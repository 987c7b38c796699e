package core

import (
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// Euler is the Euler Approximation algorithm (EulerApprox, §5.3). It keeps
// the same histogram as S-EulerApprox but no longer assumes N_cd = 0.
//
// The outside-bucket sum n'_ei misses exactly the objects containing the
// query (the loophole effect: their exterior intersection region has a
// hole, so it sums to zero by Corollary 4.2). EulerApprox therefore
// approximates the true n_ei independently by decomposing the query
// exterior into two regions (Figure 11):
//
//   - Region B: the full-width strip between the query's bottom edge and
//     the bottom of the data space. Nothing inside the space can contain or
//     cross B, so the S-EulerApprox contains-count N_cs(B) is exact there.
//   - Region A: the rest of the exterior — a connected ∩-shaped region
//     wrapping the query's left, top and right sides. Because A is
//     connected, the exterior annulus of an object *containing* the query
//     meets A in a single connected component and the bucket sum over A's
//     interior counts it exactly once (Corollary 4.1) — this is what
//     defeats the loophole effect.
//
// n_ei ≈ N_i(A) + N_cs(B), and
//
//	N_cd = N_i(A) + N_cs(B) − n'_ei          (Equation 21)
//	N_cs = |S| − N_cd − N_d − N_o            (Equation 22)
//
// The residual error comes from objects straddling the A/B or B/query
// seams: an object crossing the seam under the query's column range while
// also spanning past both query columns is counted twice (O1 in Figure
// 11), while an object poking from B into the query is missed (O2). The
// two kinds tend to cancel for small queries; §5.4 explains why they stop
// canceling as queries grow, motivating M-EulerApprox.
type Euler struct {
	h *euler.Histogram
}

// NewEuler wraps an Euler histogram with the EulerApprox query logic.
func NewEuler(h *euler.Histogram) *Euler { return &Euler{h: h} }

// EulerFromRects builds the histogram over g and returns the estimator.
func EulerFromRects(g *grid.Grid, rects []geom.Rect) *Euler {
	return NewEuler(euler.FromRects(g, rects))
}

// Name implements Estimator.
func (e *Euler) Name() string { return "EulerApprox" }

// Grid implements Estimator.
func (e *Euler) Grid() *grid.Grid { return e.h.Grid() }

// Count implements Estimator.
func (e *Euler) Count() int64 { return e.h.Count() }

// StorageBuckets implements Estimator.
func (e *Euler) StorageBuckets() int { return e.h.StorageBuckets() }

// LatticeBytes implements LatticeSizer.
func (e *Euler) LatticeBytes() int { return e.h.LatticeBytes() }

// Histogram exposes the underlying Euler histogram.
func (e *Euler) Histogram() *euler.Histogram { return e.h }

// Estimate implements Estimator. A constant number of cumulative-histogram
// lookups (rowBase and aWide hold Regions A and B): constant time per query.
func (e *Euler) Estimate(q grid.Span) Estimate {
	var d Estimate
	e.stack().add(&d, q)
	return d
}

// stack is the one-plane stack in the EulerApprox role.
func (e *Euler) stack() stack { return newStack(e.h, e.h, nil) }

func (e *Euler) addGrid(dst []Estimate, region grid.Span, cols, rows int) error {
	return e.stack().addGrid(dst, region, cols, rows)
}
