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
	la, lb    []euler.Lattice
	resampled bool
}

// NewJoin builds a join estimator over two sides. Both must expose Euler
// lattices (S-EulerApprox, EulerApprox, M-EulerApprox or Zoom estimators)
// over the same extent, with cell counts either equal or related by a
// power of two on both axes — the finer side is then coarsened to the
// common grid by the exact pyramid stencil, which requires that side to be
// an MBR histogram (rasterized histograms do not coarsen exactly).
func NewJoin(a, b Estimator) (*JoinEstimator, error) {
	la, err := joinLattices(a)
	if err != nil {
		return nil, fmt.Errorf("core: join side A: %w", err)
	}
	lb, err := joinLattices(b)
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
// across the sides' lattices (M-EulerApprox sides hold one lattice per
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

// joinLattices extracts the Euler lattices an estimator serves from.
func joinLattices(e Estimator) ([]euler.Lattice, error) {
	switch v := e.(type) {
	case *SEuler:
		return []euler.Lattice{v.Lattice()}, nil
	case *Euler:
		return []euler.Lattice{v.Lattice()}, nil
	case *MEuler:
		return v.Lattices(), nil
	case *Zoom:
		// Join at the base resolution; coarse levels are derived views.
		return joinLattices(v.Base())
	default:
		return nil, fmt.Errorf("estimator %T exposes no Euler lattice", e)
	}
}

// coarsenSide halves a side's lattices down to nx×ny, promoting packed
// tiers first (coarsening samples the int64 cumulative plane).
func coarsenSide(ls []euler.Lattice, nx, ny int) ([]euler.Lattice, error) {
	if ls[0].Grid().NX() == nx && ls[0].Grid().NY() == ny {
		return ls, nil
	}
	out := make([]euler.Lattice, len(ls))
	for i, l := range ls {
		h, err := latticeHistogram(l)
		if err != nil {
			return nil, err
		}
		c, err := euler.CoarsenTo(h, nx, ny)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// latticeHistogram promotes any resident lattice tier to a full histogram.
func latticeHistogram(l euler.Lattice) (*euler.Histogram, error) {
	switch v := l.(type) {
	case *euler.Histogram:
		return v, nil
	case *euler.PackedHistogram:
		return v.Unpack(), nil
	default:
		return nil, fmt.Errorf("lattice %T cannot be promoted for resampling", l)
	}
}

// sideCertified reports whether every lattice of a side carries a class
// plane with zero partial incidences over the full grid.
func sideCertified(ls []euler.Lattice) bool {
	for _, l := range ls {
		g := l.Grid()
		full := grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
		p, ok := euler.PartialInLattice(l, full)
		if !ok || p != 0 {
			return false
		}
	}
	return true
}
