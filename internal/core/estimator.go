// Package core implements the paper's primary contribution: three
// constant-time, storage-efficient estimators for Level 2 spatial relation
// counts over an Euler histogram (§5).
//
//   - SEuler (S-EulerApprox, §5.2) assumes no object contains the query
//     (N_cd = 0), which holds for datasets of small objects.
//   - Euler (EulerApprox, §5.3) estimates N_cd by offsetting the loophole
//     effect with the Region A/B decomposition of the query exterior.
//   - MEuler (M-EulerApprox, §5.4) partitions the objects by area into
//     several histograms and picks the cheapest sound algorithm per
//     histogram per query.
//
// All three share the identical, exact N_o machinery: n_ii (bucket sum
// inside the query) is exact, and N_o = n'_ei − N_d is affected only by
// crossover objects.
package core

import (
	"fmt"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// Estimate holds the estimated Level 2 counts for one query. Estimates are
// raw algorithm outputs: individual fields can be negative when the
// algorithm's assumptions are violated (e.g. many crossover objects).
// Use Clamped for display.
type Estimate struct {
	Disjoint  int64 // N_d
	Contains  int64 // N_cs: objects contained in the query
	Contained int64 // N_cd: objects containing the query
	Overlap   int64 // N_o
}

// Total returns the sum of the four counts; for every algorithm in this
// package it equals |S| by construction.
func (e Estimate) Total() int64 {
	return e.Disjoint + e.Contains + e.Contained + e.Overlap
}

// Add adds o's counts into e, field by field. Raw estimates are
// integer-linear in their histogram sums, so the sum of the estimates of
// disjoint object sets is the estimate of their union.
func (e *Estimate) Add(o Estimate) {
	e.Disjoint += o.Disjoint
	e.Contains += o.Contains
	e.Contained += o.Contained
	e.Overlap += o.Overlap
}

// Get returns the estimate for one relation (Equals is always 0).
func (e Estimate) Get(r geom.Rel2) int64 {
	switch r {
	case geom.Rel2Disjoint:
		return e.Disjoint
	case geom.Rel2Contains:
		return e.Contains
	case geom.Rel2Contained:
		return e.Contained
	case geom.Rel2Overlap:
		return e.Overlap
	}
	return 0
}

// Clamped returns the estimate with negative counts raised to zero, the
// form a browsing UI would display.
func (e Estimate) Clamped() Estimate {
	c := e
	if c.Disjoint < 0 {
		c.Disjoint = 0
	}
	if c.Contains < 0 {
		c.Contains = 0
	}
	if c.Contained < 0 {
		c.Contained = 0
	}
	if c.Overlap < 0 {
		c.Overlap = 0
	}
	return c
}

// String implements fmt.Stringer.
func (e Estimate) String() string {
	return fmt.Sprintf("{d:%d cs:%d cd:%d o:%d}", e.Disjoint, e.Contains, e.Contained, e.Overlap)
}

// Estimator is the common interface of the three approximation algorithms
// (and of exact baselines wrapped for comparison). Estimate must run in
// constant time for the paper's algorithms.
type Estimator interface {
	// Name identifies the algorithm, e.g. "S-EulerApprox".
	Name() string
	// Estimate returns the Level 2 counts for a grid-aligned query span.
	Estimate(q grid.Span) Estimate
	// Grid returns the resolution the estimator answers queries at.
	Grid() *grid.Grid
	// Count returns |S|, the number of summarized objects.
	Count() int64
	// StorageBuckets returns the number of histogram values kept, the
	// storage cost compared throughout §6.
	StorageBuckets() int
}

// LatticeSizer is the capability of estimators that serve from Euler
// lattices: the resident payload bytes of every lattice they hold,
// at its cells' width. Memory budgets charge this; StorageBuckets counts
// values (the storage cost of §6), not bytes.
type LatticeSizer interface {
	LatticeBytes() int
}

// EstimateSet runs the estimator over every tile of a browsing query set.
func EstimateSet(e Estimator, tiles []grid.Span) []Estimate {
	out := make([]Estimate, len(tiles))
	for k, q := range tiles {
		out[k] = e.Estimate(q)
	}
	return out
}
