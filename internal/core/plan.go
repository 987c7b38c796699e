package core

import (
	"fmt"
	"time"

	"spatialhist/internal/euler"
	"spatialhist/internal/grid"
	"spatialhist/internal/query"
)

// Plan is one tile map resolved against one estimator, once: the tiling,
// the pyramid level that answers it exactly and the region in that level's
// coordinates, and whether the ε-approximate reduced tier is worth trying
// first. The caller states a bound and the plan picks the cheapest path
// that certifies it — so the cache key, the sweep and the response all read
// one decision instead of re-deriving it.
type Plan struct {
	// Level is the pyramid level the exact sweep runs at: the coarsest whose
	// cells evenly tile the map, 0 for an estimator that is not a zoom stack.
	Level int
	// Epsilon is the bound the reduced tier will be tried under, or 0 when
	// the map is exact only: no bound asked, no overview attached, or the
	// exact route already at or above the reduced tier's level — then the
	// exact sweep touches no more memory and approximation buys nothing.
	Epsilon float64

	est        Estimator // what the caller named
	zoom       *Zoom     // est when it is a zoom stack, else nil
	sweeper    Estimator // the stack member that sweeps; est unless a zoom
	base       grid.Span // the region in base cells
	region     grid.Span // the region in Level's cells
	cols, rows int
}

// PlanGrid resolves the cols×rows tiling of region against est under the
// per-tile error bound eps·|tile| (0 asks for exact answers). It fails on a
// tiling that does not divide the region. The routing rule is pure span
// arithmetic — a map is answerable at level k iff the region origin and
// both tile dimensions are multiples of 2^k base cells, which puts every
// tile boundary on a level grid line.
func PlanGrid(est Estimator, region grid.Span, cols, rows int, eps float64) (Plan, error) {
	tw, th, err := query.Tiling(region, cols, rows)
	if err != nil {
		return Plan{}, err
	}
	p := Plan{est: est, sweeper: est, base: region, region: region, cols: cols, rows: rows}
	if z, ok := est.(*Zoom); ok {
		p.zoom, p.Level = z, alignShift(len(z.levels)-1, region.I1, region.J1, tw, th)
		p.sweeper, p.region = z.levels[p.Level], euler.CoarseSpan(region, p.Level)
		if eps > 0 && z.overview != nil && p.Level < z.overview.Shift() {
			p.Epsilon = eps
		}
	}
	return p, nil
}

// Estimates answers the plan row-major from the south-west. bound is
// non-nil when the reduced tier served the map in a plane of its own: every
// tile certified within Epsilon·|tile|, and *bound is the largest certified
// per-tile error. Otherwise the plane is the exact sweep's — in buf's
// storage, zeroed, when it holds cols×rows, else in a new plane; the
// reduced tier never returns an uncertified answer.
func (p Plan) Estimates(buf []Estimate) (ests []Estimate, bound *float64, err error) {
	if p.Epsilon > 0 {
		if ests, b, ok := p.zoom.overview.EstimateGrid(p.base, p.cols, p.rows, p.Epsilon); ok {
			return ests, &b, nil
		}
	}
	if n := p.cols * p.rows; cap(buf) >= n {
		ests = buf[:n]
		clear(ests)
	} else {
		ests = make([]Estimate, n) // zeroed once, by the allocator
	}
	if err := p.Add(ests); err != nil {
		return nil, nil, err
	}
	return ests, nil, nil
}

// Add adds the plan's exact raw sweep into dst, a cols×rows plane the
// caller owns, in one sweep on the caller's goroutine; the reduced tier is
// never consulted. Every kernel adds, so sweeping several stores over
// disjoint object sets into one plane gives the plane one store over all
// of them would — which is how a coordinator sums in-process shards
// without a plane per shard.
func (p Plan) Add(dst []Estimate) error {
	start := time.Now()
	if len(dst) != p.cols*p.rows {
		return fmt.Errorf("core: plane of %d estimates for a %dx%d tile map", len(dst), p.cols, p.rows)
	}
	if err := sumGrid(p.sweeper, dst, p.region, p.cols, p.rows); err != nil {
		return err
	}
	if p.zoom != nil {
		p.zoom.hits[p.Level].Inc()
		p.zoom.sweeps[p.Level].ObserveDuration(time.Since(start))
	}
	observeSweep(p.est.Name(), len(dst), start)
	return nil
}
