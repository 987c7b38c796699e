package core

import (
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// SEuler is the Simple Euler Approximation algorithm (S-EulerApprox, §5.2).
// It solves the reduced interior–exterior system of Equation 11 under the
// assumption N_cd = 0:
//
//	n_ii  = Σ_inside H          (exact intersect count)
//	n_ei  = Σ_outside H
//	N_d   = |S| − n_ii
//	N_cs  = |S| − n_ei          (Equation 16)
//	N_o   = n_ei − N_d          (Equation 17)
//
// N_o is exact up to crossover objects; N_cs additionally degrades when
// objects contain the query (each such object is missed by n_ei through the
// loophole effect and silently inflates N_cs).
type SEuler struct {
	h *euler.Histogram
}

// NewSEuler wraps an Euler histogram with the S-EulerApprox query logic.
func NewSEuler(h *euler.Histogram) *SEuler { return &SEuler{h: h} }

// SEulerFromRects builds the histogram over g and returns the estimator.
func SEulerFromRects(g *grid.Grid, rects []geom.Rect) *SEuler {
	return NewSEuler(euler.FromRects(g, rects))
}

// Name implements Estimator.
func (e *SEuler) Name() string { return "S-EulerApprox" }

// Grid implements Estimator.
func (e *SEuler) Grid() *grid.Grid { return e.h.Grid() }

// Count implements Estimator.
func (e *SEuler) Count() int64 { return e.h.Count() }

// StorageBuckets implements Estimator.
func (e *SEuler) StorageBuckets() int { return e.h.StorageBuckets() }

// LatticeBytes implements LatticeSizer.
func (e *SEuler) LatticeBytes() int { return e.h.LatticeBytes() }

// Histogram exposes the underlying Euler histogram.
func (e *SEuler) Histogram() *euler.Histogram { return e.h }

// Estimate implements Estimator. Four cumulative-histogram lookups total:
// constant time per query.
func (e *SEuler) Estimate(q grid.Span) Estimate {
	var d Estimate
	e.addMasked(&d, q, -1)
	return d
}

// addMasked adds the histogram's counts for q into d: the one-tile case of
// addGridMasked, each lattice sum read once. cs is addSEuler's mask.
func (e *SEuler) addMasked(d *Estimate, q grid.Span, cs int64) {
	addSEuler(d, e.h.Count(), e.h.InsideSum(q), e.h.OutsideSum(q), cs)
}
