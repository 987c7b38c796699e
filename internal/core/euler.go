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
// lookups: constant time per query.
func (e *Euler) Estimate(q grid.Span) Estimate {
	var d Estimate
	e.add(&d, q)
	return d
}

// add adds the histogram's counts for q into d: the one-tile case of
// addGrid, each lattice sum read once.
func (e *Euler) add(d *Estimate, q grid.Span) {
	neiPrime := e.h.OutsideSum(q)
	addEuler(d, e.h.Count(), e.h.InsideSum(q), neiPrime, e.estimateContained(q, neiPrime))
}

// estimateContained computes N_cd = N_i(A) + N_cs(B) − n'_ei.
func (e *Euler) estimateContained(q grid.Span, neiPrime int64) int64 {
	g := e.h.Grid()
	nx, ny := g.NX(), g.NY()

	// Region A is the ∩-shaped region R_A \ q, where R_A is the full-width
	// band from the query's bottom edge to the top of the space. The sum of
	// the buckets strictly inside A is the sum inside R_A minus the buckets
	// of the closed query that lie inside R_A: the query's lattice footprint
	// widened by its left/right/top boundary (its bottom boundary lies on
	// R_A's boundary and is excluded from R_A's interior already).
	rA := grid.Span{I1: 0, J1: q.J1, I2: nx - 1, J2: ny - 1}
	niA := e.h.InsideSum(rA) -
		e.h.LatticeSum(2*q.I1-1, 2*q.J1, 2*q.I2+1, 2*q.J2+1)

	// Region B: the full-width strip below the query, anchored at the space
	// boundary; ContainedIn is exact there. Empty when the query touches
	// the bottom of the space (then A is the whole exterior).
	var ncsB int64
	if q.J1 > 0 {
		bottom := grid.Span{I1: 0, J1: 0, I2: nx - 1, J2: q.J1 - 1}
		ncsB = e.h.ContainedIn(bottom)
	}

	return niA + ncsB - neiPrime
}
