// Spatial-join selectivity from two histograms alone.
//
// Given two datasets summarized as Euler histograms over a common lattice,
// the number of object pairs whose rasterizations share a cell is the
// per-cell product sum Σ s·hA·hB (euler.ProductSum) — no object data, no
// index, one fused sweep over the two lattices. This opens the classic
// optimizer workload: join cardinality and selectivity between datasets a
// server only knows as histograms.
package core

import (
	"fmt"

	"spatialhist/internal/euler"
	"spatialhist/internal/grid"
)

// JoinEstimate is the result of a two-histogram join estimate.
type JoinEstimate struct {
	// Pairs is the product sum: for MBR histograms, exactly the number of
	// span-intersecting pairs; for rasterized objects, Σ χ of the pairwise
	// cell intersections (each hole-free intersection component counts 1).
	Pairs int64
	// CountA and CountB are the dataset sizes.
	CountA, CountB int64
	// Selectivity is Pairs / (CountA·CountB), 0 for empty inputs.
	Selectivity float64
	// Resampled is true when the sides had different resolutions and the
	// finer one was coarsened to the common grid.
	Resampled bool
	// Certified is true when both sides carry partial-cell class planes
	// with zero partial incidences and no resampling occurred: the
	// rasterizations are exact at grid resolution, so Pairs counts the
	// actual geometric intersections, not an approximation of them.
	Certified bool
}

// JoinEstimator estimates spatial-join selectivity between the datasets of
// two estimators from their lattices alone.
type JoinEstimator struct {
	a, b      Estimator
	la, lb    []*euler.Histogram
	resampled bool
}

// NewJoin builds a join estimator over two sides. Both must expose Euler
// lattices (S-EulerApprox, EulerApprox, M-EulerApprox or Zoom estimators)
// over the same extent, with cell counts either equal or related by a
// power of two on both axes — the finer side is then coarsened to the
// common grid by the exact pyramid stencil, which requires that side to be
// an MBR histogram (rasterized histograms do not coarsen exactly).
func NewJoin(a, b Estimator) (*JoinEstimator, error) {
	la, err := joinHistograms(a)
	if err != nil {
		return nil, fmt.Errorf("core: join side A: %w", err)
	}
	lb, err := joinHistograms(b)
	if err != nil {
		return nil, fmt.Errorf("core: join side B: %w", err)
	}
	nx, ny, resample, ok := euler.CommonGrid(la[0], lb[0])
	if !ok {
		return nil, fmt.Errorf("core: join sides have no common grid: %v vs %v", la[0].Grid(), lb[0].Grid())
	}
	if resample {
		if la, err = coarsenSide(la, nx, ny); err != nil {
			return nil, fmt.Errorf("core: resampling join side A: %w", err)
		}
		if lb, err = coarsenSide(lb, nx, ny); err != nil {
			return nil, fmt.Errorf("core: resampling join side B: %w", err)
		}
	}
	return &JoinEstimator{a: a, b: b, la: la, lb: lb, resampled: resample}, nil
}

// Estimate computes the join estimate: the sum of pairwise product sums
// across the sides' histograms (M-EulerApprox sides hold one per
// area group; raw counts are additive, so the product sum distributes).
func (j *JoinEstimator) Estimate() (JoinEstimate, error) {
	out := JoinEstimate{
		CountA:    j.a.Count(),
		CountB:    j.b.Count(),
		Resampled: j.resampled,
	}
	for _, a := range j.la {
		for _, b := range j.lb {
			s, err := euler.ProductSum(a, b)
			if err != nil {
				return JoinEstimate{}, fmt.Errorf("core: join product sum: %w", err)
			}
			out.Pairs += s
		}
	}
	if out.CountA > 0 && out.CountB > 0 {
		out.Selectivity = float64(out.Pairs) / (float64(out.CountA) * float64(out.CountB))
	}
	out.Certified = !j.resampled && sideCertified(j.la) && sideCertified(j.lb)
	return out, nil
}

// joinHistograms extracts the Euler histograms an estimator serves from: a
// zoom stack joins at its base resolution, coarse levels being derived
// views.
func joinHistograms(e Estimator) ([]*euler.Histogram, error) {
	_, hists, ok := SpecOf(e)
	if !ok {
		return nil, fmt.Errorf("estimator %T exposes no Euler lattice", e)
	}
	return hists, nil
}

// coarsenSide halves a side's histograms down to nx×ny.
func coarsenSide(hs []*euler.Histogram, nx, ny int) ([]*euler.Histogram, error) {
	if hs[0].Grid().NX() == nx && hs[0].Grid().NY() == ny {
		return hs, nil
	}
	out := make([]*euler.Histogram, len(hs))
	for i, h := range hs {
		c, err := euler.CoarsenTo(h, nx, ny)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// sideCertified reports whether every histogram of a side carries a class
// plane with zero partial incidences over the full grid.
func sideCertified(hs []*euler.Histogram) bool {
	for _, h := range hs {
		g := h.Grid()
		full := grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
		p, ok := h.PartialIn(full)
		if !ok || p != 0 {
			return false
		}
	}
	return true
}
