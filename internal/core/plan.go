package core

import (
	"fmt"
	"time"

	"spatialhist/internal/euler"
	"spatialhist/internal/grid"
	"spatialhist/internal/query"
)

// Plan is one tile map resolved against one estimator, once: the tiling,
// and the pyramid level that answers it exactly with the region in that
// level's coordinates — so the cache key and the sweep read one decision
// instead of re-deriving it.
type Plan struct {
	// Level is the pyramid level the sweep runs at: the coarsest whose
	// cells evenly tile the map, 0 for an estimator that is not a zoom stack.
	Level int

	est        Estimator // what the caller named
	zoom       *Zoom     // est when it is a zoom stack, else nil
	sweeper    Estimator // the stack member that sweeps; est unless a zoom
	region     grid.Span // the region in Level's cells
	cols, rows int
}

// PlanGrid resolves the cols×rows tiling of region against est. It fails
// on a tiling that does not divide the region. The routing rule is pure
// span arithmetic — a map is answerable at level k iff the region origin
// and both tile dimensions are multiples of 2^k base cells, which puts
// every tile boundary on a level grid line.
func PlanGrid(est Estimator, region grid.Span, cols, rows int) (Plan, error) {
	tw, th, err := query.Tiling(region, cols, rows)
	if err != nil {
		return Plan{}, err
	}
	p := Plan{est: est, sweeper: est, region: region, cols: cols, rows: rows}
	if z, ok := est.(*Zoom); ok {
		p.zoom, p.Level = z, alignShift(len(z.levels)-1, region.I1, region.J1, tw, th)
		p.sweeper, p.region = z.levels[p.Level], euler.CoarseSpan(region, p.Level)
	}
	return p, nil
}

// Estimates answers the plan row-major from the south-west, in buf's
// storage, zeroed, when it holds cols×rows, else in a new plane.
func (p Plan) Estimates(buf []Estimate) ([]Estimate, error) {
	var ests []Estimate
	if n := p.cols * p.rows; cap(buf) >= n {
		ests = buf[:n]
		clear(ests)
	} else {
		ests = make([]Estimate, n) // zeroed once, by the allocator
	}
	if err := p.Add(ests); err != nil {
		return nil, err
	}
	return ests, nil
}

// Add adds the plan's exact raw sweep into dst, a cols×rows plane the
// caller owns, in one sweep on the caller's goroutine. Every kernel adds,
// so sweeping several stores over disjoint object sets into one plane
// gives the plane one store over all of them would — which is how a
// coordinator sums in-process shards without a plane per shard.
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
