// Zoom-native estimation over a multi-resolution histogram pyramid
// (euler.Pyramid): a browse request whose tiling lands on coarse cell
// boundaries is answered entirely from the coarsest level that can
// express it exactly, touching ~1/4^k of the base lattice memory at
// level k while returning the very counts the base level would. The
// routing rule is pure span arithmetic — a request is answerable at
// level k iff the region origin and the tile size are both multiples of
// 2^k base cells — so unaligned tilings fall back to level 0 and stay
// bit-identical to a pyramid-less server.
package core

import (
	"fmt"
	"math/bits"
	"strconv"

	"spatialhist/internal/euler"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

// Zoom routes queries across one estimator per pyramid level. levels[0]
// answers at the base resolution; levels[k] answers over the grid
// coarsened 2^k× per axis. For level-aligned queries every level returns
// identical estimates (the pyramid levels are bit-identical to direct
// coarse builds and the estimators' lattice sums commute with
// floor-halving at aligned boundaries), so routing is purely a memory-
// traffic optimization, never an accuracy trade.
type Zoom struct {
	levels []Estimator
	name   string
	hits   []*telemetry.Counter
	sweeps []*telemetry.Histogram
}

// NewZoom wraps per-level estimators into a zoom-routing estimator.
// levels[0] is the base; each further level's grid must halve the
// previous one's cell counts over the same extent.
func NewZoom(levels []Estimator) (*Zoom, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("core: a Zoom needs at least the base level")
	}
	base := levels[0].Grid()
	for k := 1; k < len(levels); k++ {
		prev, lg := levels[k-1].Grid(), levels[k].Grid()
		if lg.Extent() != base.Extent() || lg.NX()*2 != prev.NX() || lg.NY()*2 != prev.NY() {
			return nil, fmt.Errorf("core: level %d grid %v does not halve %v", k, lg, prev)
		}
	}
	z := &Zoom{
		levels: levels,
		name:   fmt.Sprintf("%s+pyramid(%d)", levels[0].Name(), len(levels)),
	}
	reg := telemetry.Default()
	for k := range levels {
		l := strconv.Itoa(k)
		z.hits = append(z.hits, reg.Counter("core_pyramid_level_hits_total",
			"Queries and batch sweeps answered per pyramid level.", "level", l))
		z.sweeps = append(z.sweeps, reg.Histogram("core_pyramid_sweep_seconds",
			"Batch sweep duration in seconds, by resolved pyramid level.",
			sweepBuckets, "level", l))
	}
	return z, nil
}

// ZoomMEuler assembles the M-EulerApprox zoom stack over one pyramid per
// nested plane (MEuler.Histograms), as deep as the shallowest of them (all
// share the base grid, so in practice they coincide).
func ZoomMEuler(areas []float64, pyrs []*euler.Pyramid) (*Zoom, error) {
	return Spec{Algo: AlgoMEuler, Areas: areas}.zoom(pyrs)
}

// alignShift returns the largest k ≤ max such that every value is a
// multiple of 2^k.
func alignShift(max int, vals ...int) int {
	k := max
	for _, v := range vals {
		if v == 0 {
			continue
		}
		if t := bits.TrailingZeros(uint(v)); t < k {
			k = t
		}
	}
	return k
}

// RouteSpan returns the coarsest level that answers the base-grid span q
// exactly — all four cell boundaries on level-k grid lines — and the span
// in that level's coordinates.
func (z *Zoom) RouteSpan(q grid.Span) (level int, lq grid.Span) {
	level = alignShift(len(z.levels)-1, q.I1, q.J1, q.I2+1, q.J2+1)
	return level, euler.CoarseSpan(q, level)
}

// RouteGrid returns the level PlanGrid resolves for the cols×rows tiling of
// region and the region in that level's coordinates. Tilings that do not
// divide the region evenly route to level 0 unchanged.
func (z *Zoom) RouteGrid(region grid.Span, cols, rows int) (level int, lregion grid.Span) {
	p, err := PlanGrid(z, region, cols, rows)
	if err != nil {
		return 0, region
	}
	return p.Level, p.region
}

// NumLevels returns how many pyramid levels est routes across, the base
// included: 1 for anything but a zoom stack.
func NumLevels(est Estimator) int {
	if z, ok := est.(*Zoom); ok {
		return len(z.levels)
	}
	return 1
}

// Level returns the estimator serving level k (0 = base).
func (z *Zoom) Level(k int) Estimator { return z.levels[k] }

// Name implements Estimator.
func (z *Zoom) Name() string { return z.name }

// Grid implements Estimator: the base resolution, which all request
// parsing and tile geometry is expressed in.
func (z *Zoom) Grid() *grid.Grid { return z.levels[0].Grid() }

// Count implements Estimator.
func (z *Zoom) Count() int64 { return z.levels[0].Count() }

// StorageBuckets implements Estimator: the whole stack's buckets, a
// ≤ 1/3 overhead over the base level alone.
func (z *Zoom) StorageBuckets() int {
	total := 0
	for _, l := range z.levels {
		total += l.StorageBuckets()
	}
	return total
}

// LatticeBytes implements LatticeSizer: every level of the stack.
func (z *Zoom) LatticeBytes() int {
	total := 0
	for _, l := range z.levels {
		if s, ok := l.(LatticeSizer); ok {
			total += s.LatticeBytes()
		}
	}
	return total
}

// Estimate implements Estimator, descending to the coarsest level that
// expresses q exactly. Drill-down refinement (core.Drilldown) calls this
// per child tile, so a drill descends the pyramid natively: each half-step
// of the recursion re-routes and loses exactly one level of coarseness.
func (z *Zoom) Estimate(q grid.Span) Estimate {
	k, lq := z.RouteSpan(q)
	z.hits[k].Inc()
	return z.levels[k].Estimate(lq)
}
