package core

import (
	"fmt"
	"math"

	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// Algo names one of the paper's three algorithms. The values are the
// on-disk tags of the summary, WAL and checkpoint formats.
type Algo uint8

// The three paper algorithms.
const (
	AlgoSEuler Algo = 1
	AlgoEuler  Algo = 2
	AlgoMEuler Algo = 3
)

// String implements fmt.Stringer with the flag-style names.
func (a Algo) String() string {
	switch a {
	case AlgoSEuler:
		return "seuler"
	case AlgoEuler:
		return "euler"
	case AlgoMEuler:
		return "meuler"
	}
	return fmt.Sprintf("algo(%d)", uint8(a))
}

// Spec is everything that tells one estimator of the family from another:
// the algorithm and, for M-EulerApprox, the area thresholds that partition
// the objects. The three algorithms are one machine over the same Euler
// histograms, so a Spec plus lattices — histograms, or pyramids of them —
// is an estimator; every layer that builds, saves, reloads or republishes
// one goes through the From constructors, and SpecOf takes one apart again.
type Spec struct {
	Algo Algo
	// Areas are area(H_i) in unit cells (§5.4): ascending, starting at the
	// unit cell. Set iff Algo is AlgoMEuler.
	Areas []float64
}

// Validate holds the rules a Spec must meet, the threshold rules of §5.4
// among them: at least one, finite, the first the unit cell, strictly
// ascending.
func (s Spec) Validate() error {
	switch s.Algo {
	case AlgoSEuler, AlgoEuler:
		if len(s.Areas) != 0 {
			return fmt.Errorf("core: area thresholds are only for meuler, got %v", s.Areas)
		}
		return nil
	case AlgoMEuler:
	default:
		return fmt.Errorf("core: unknown algorithm %v", s.Algo)
	}
	if len(s.Areas) == 0 {
		return fmt.Errorf("core: M-EulerApprox needs at least one area threshold")
	}
	for i, a := range s.Areas {
		switch {
		case math.IsNaN(a) || math.IsInf(a, 0):
			return fmt.Errorf("core: invalid area threshold %g", a)
		case i == 0 && a != 1:
			return fmt.Errorf("core: area(H_0) must be the unit cell (1), got %g", a)
		case i > 0 && a <= s.Areas[i-1]:
			return fmt.Errorf("core: area thresholds %v not strictly ascending", s.Areas)
		}
	}
	return nil
}

// Groups returns how many histograms the spec partitions objects into.
func (s Spec) Groups() int {
	if s.Algo == AlgoMEuler {
		return len(s.Areas)
	}
	return 1
}

// Group routes one object MBR to its histogram over g: the only one, or the
// M-EulerApprox area partition NewMEuler assigns it to. ok is false for an
// object no partition takes — one entirely outside the data space.
func (s Spec) Group(g *grid.Grid, r geom.Rect) (group int, ok bool) {
	if s.Groups() == 1 {
		return 0, true
	}
	return ObjectAreaGroup(g, s.Areas, r)
}

// FromRects builds the spec's estimator over the objects.
func (s Spec) FromRects(g *grid.Grid, rects []geom.Rect) (Estimator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Algo {
	case AlgoSEuler:
		return SEulerFromRects(g, rects), nil
	case AlgoEuler:
		return EulerFromRects(g, rects), nil
	}
	return NewMEuler(g, s.Areas, rects)
}

// FromHistograms assembles the spec's estimator over prebuilt histograms,
// one per group, smallest area group first.
func (s Spec) FromHistograms(hists []*euler.Histogram) (Estimator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(hists) != s.Groups() {
		return nil, fmt.Errorf("core: %d histograms for the %d groups of %v", len(hists), s.Groups(), s.Algo)
	}
	switch s.Algo {
	case AlgoSEuler:
		return NewSEuler(hists[0]), nil
	case AlgoEuler:
		return NewEuler(hists[0]), nil
	}
	return MEulerFromHistograms(s.Areas, hists)
}

// FromPyramids assembles the spec's estimator over one pyramid per group:
// the zoom stack with the ε-approximate overview attached, or the plain
// base-level estimator when the pyramids hold no coarse level to route to.
func (s Spec) FromPyramids(pyrs []*euler.Pyramid) (Estimator, error) {
	z, err := s.zoom(pyrs)
	if err != nil {
		return nil, err
	}
	if len(z.levels) == 1 {
		return z.levels[0], nil
	}
	return z, nil
}

// zoom is the one assembly of a zoom stack: the spec's estimator at every
// level the pyramids share — an M-EulerApprox level measuring query areas
// in base cells (unit 4^k), so its per-group choice matches level 0 — and
// the reduced tier over the level two halvings down, or one when the stack
// is that shallow. The overview shares the pyramids' lattices, costs
// nothing, and is inert until a plan asks for ε.
func (s Spec) zoom(pyrs []*euler.Pyramid) (*Zoom, error) {
	if len(pyrs) == 0 {
		return nil, fmt.Errorf("core: a zoom stack needs one pyramid per group")
	}
	depth := pyrs[0].Levels()
	for _, p := range pyrs[1:] {
		depth = min(depth, p.Levels())
	}
	levels := make([]Estimator, depth)
	for k := range levels {
		hists := make([]*euler.Histogram, len(pyrs))
		for i, p := range pyrs {
			hists[i] = p.Level(k)
		}
		est, err := s.FromHistograms(hists)
		if err != nil {
			return nil, err
		}
		if m, ok := est.(*MEuler); ok {
			m.unit = float64(int64(1) << (2 * k))
		}
		levels[k] = est
	}
	z, err := NewZoom(levels)
	if err != nil {
		return nil, err
	}
	if o, ok := OverviewFromPyramids(pyrs, min(DefaultOverviewShift, depth-1)); ok {
		z.overview = o
	}
	return z, nil
}

// SpecOf is the inverse of the From constructors: the spec of one of the
// paper's estimators and the base-resolution histograms it serves from (a
// zoom stack answers for its base level). ok is false for any other
// Estimator.
func SpecOf(est Estimator) (s Spec, hists []*euler.Histogram, ok bool) {
	switch e := est.(type) {
	case *SEuler:
		return Spec{Algo: AlgoSEuler}, []*euler.Histogram{e.h}, true
	case *Euler:
		return Spec{Algo: AlgoEuler}, []*euler.Histogram{e.h}, true
	case *MEuler:
		return Spec{Algo: AlgoMEuler, Areas: e.Areas()}, e.Histograms(), true
	case *Zoom:
		return SpecOf(e.levels[0])
	}
	return Spec{}, nil, false
}

// Pyramids builds one pyramid per histogram est serves from, ready for its
// spec's FromPyramids. ok is as SpecOf's.
func Pyramids(est Estimator, opts euler.PyramidOpts) (s Spec, pyrs []*euler.Pyramid, ok bool) {
	s, hists, ok := SpecOf(est)
	pyrs = make([]*euler.Pyramid, len(hists))
	for i, h := range hists {
		pyrs[i] = euler.NewPyramid(h, opts)
	}
	return s, pyrs, ok
}
