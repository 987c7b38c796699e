package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spatialhist/internal/euler"
	"spatialhist/internal/grid"
)

var testSpecs = []Spec{
	{Algo: AlgoSEuler},
	{Algo: AlgoEuler},
	{Algo: AlgoMEuler, Areas: []float64{1, 9, 100}},
}

// sameEstimator requires two estimators to be indistinguishable from
// outside: the same name and footprint, and bit-identical answers to random
// spans and to a few full-space tile maps.
func sameEstimator(t *testing.T, r *rand.Rand, what string, got, want Estimator) {
	t.Helper()
	if got.Name() != want.Name() || got.Count() != want.Count() || got.StorageBuckets() != want.StorageBuckets() ||
		got.(LatticeSizer).LatticeBytes() != want.(LatticeSizer).LatticeBytes() {
		t.Fatalf("%s: %s/%d/%d/%d, want %s/%d/%d/%d", what,
			got.Name(), got.Count(), got.StorageBuckets(), got.(LatticeSizer).LatticeBytes(),
			want.Name(), want.Count(), want.StorageBuckets(), want.(LatticeSizer).LatticeBytes())
	}
	g := want.Grid()
	for trial := 0; trial < 300; trial++ {
		i1, j1 := r.Intn(g.NX()), r.Intn(g.NY())
		q := spanOf(i1, j1, i1+r.Intn(g.NX()-i1), j1+r.Intn(g.NY()-j1))
		if ge, we := got.Estimate(q), want.Estimate(q); ge != we {
			t.Fatalf("%s: Estimate(%v) = %v, want %v", what, q, ge, we)
		}
	}
	for _, tl := range [][2]int{{1, 1}, {4, 4}, {8, 2}, {g.NX() / 2, g.NY() / 4}} {
		full := spanOf(0, 0, g.NX()-1, g.NY()-1)
		ge, err := EstimateGrid(got, full, tl[0], tl[1])
		if err != nil {
			t.Fatal(err)
		}
		we, err := EstimateGrid(want, full, tl[0], tl[1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ge, we) {
			t.Fatalf("%s: %dx%d tile map diverges", what, tl[0], tl[1])
		}
	}
}

// TestSpecRoundTrip: SpecOf inverts every From constructor, and the
// estimators they assemble are the ones the concrete constructors build.
func TestSpecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	g := grid.NewUnit(64, 32)
	rects := batchRects(r, g, 400)
	for _, spec := range testSpecs {
		built, err := spec.FromRects(g, rects)
		if err != nil {
			t.Fatal(err)
		}
		got, hists, ok := SpecOf(built)
		if !ok || !reflect.DeepEqual(got, spec) || len(hists) != spec.Groups() {
			t.Fatalf("SpecOf(FromRects(%v)) = %v over %d histograms, %v", spec, got, len(hists), ok)
		}
		var direct Estimator
		switch spec.Algo {
		case AlgoSEuler:
			direct = NewSEuler(hists[0])
		case AlgoEuler:
			direct = NewEuler(hists[0])
		default:
			if direct, err = MEulerFromHistograms(spec.Areas, hists); err != nil {
				t.Fatal(err)
			}
		}
		again, err := spec.FromHistograms(hists)
		if err != nil {
			t.Fatal(err)
		}
		sameEstimator(t, r, spec.Algo.String()+" FromHistograms", again, direct)
		sameEstimator(t, r, spec.Algo.String()+" FromRects", built, direct)
		if s2, h2, ok := SpecOf(again); !ok || !reflect.DeepEqual(s2, spec) || !reflect.DeepEqual(h2, hists) {
			t.Fatalf("SpecOf(FromHistograms(%v)) = %v, %v", spec, s2, ok)
		}
		if _, err := spec.FromHistograms(append(hists, hists[0])); err == nil {
			t.Fatalf("%v: a histogram too many accepted", spec)
		}
	}
	if _, _, ok := SpecOf(hideBatch{SEulerFromRects(g, rects)}); ok {
		t.Fatal("SpecOf recognised an estimator that is none of the paper's")
	}
}

// handZoom is the zoom stack as it was assembled before Spec.FromPyramids:
// one estimator per level by the concrete constructors, M-EulerApprox
// levels measuring areas in base cells, then the overview attached at the
// clamped shift.
func handZoom(t *testing.T, spec Spec, pyrs []*euler.Pyramid) *Zoom {
	t.Helper()
	depth := pyrs[0].Levels()
	levels := make([]Estimator, depth)
	for k := range levels {
		switch spec.Algo {
		case AlgoSEuler:
			levels[k] = NewSEuler(pyrs[0].Level(k))
		case AlgoEuler:
			levels[k] = NewEuler(pyrs[0].Level(k))
		default:
			hists := make([]*euler.Histogram, len(pyrs))
			for i, p := range pyrs {
				hists[i] = p.Level(k)
			}
			m, err := MEulerFromHistograms(spec.Areas, hists)
			if err != nil {
				t.Fatal(err)
			}
			m.unit = float64(int64(1) << (2 * k))
			levels[k] = m
		}
	}
	z, err := NewZoom(levels)
	if err != nil {
		t.Fatal(err)
	}
	if o, ok := OverviewFromPyramids(pyrs, min(DefaultOverviewShift, depth-1)); ok {
		z.overview = o
	}
	return z
}

// TestFromPyramidsMatchesHandAssembly: the one zoom assembly builds, at
// every depth, the stack the per-algorithm constructors plus AttachOverview
// used to — same name, footprint, estimates, routing and ε maps — and
// core.Pyramids + FromPyramids is how a fixed summary gets there.
func TestFromPyramidsMatchesHandAssembly(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	g := grid.NewUnit(64, 32)
	rects := batchRects(r, g, 400)
	for _, spec := range testSpecs {
		base, err := spec.FromRects(g, rects)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxLevels := range []int{1, 2, 3} {
			gotSpec, pyrs, ok := Pyramids(base, euler.PyramidOpts{MaxLevels: maxLevels, MinGrid: 4})
			if !ok || !reflect.DeepEqual(gotSpec, spec) || len(pyrs) != spec.Groups() || pyrs[0].Levels() != maxLevels+1 {
				t.Fatalf("Pyramids(%v) = %v over %d pyramids, %v", spec, gotSpec, len(pyrs), ok)
			}
			want := handZoom(t, spec, pyrs)
			est, err := spec.FromPyramids(pyrs)
			if err != nil {
				t.Fatal(err)
			}
			got, isZoom := est.(*Zoom)
			if !isZoom {
				t.Fatalf("%v over %d levels assembled %T", spec, maxLevels+1, est)
			}
			what := spec.Algo.String() + " FromPyramids"
			sameEstimator(t, r, what, got, want)
			if got.overview == nil || got.overview.Shift() != want.overview.Shift() {
				t.Fatalf("%s: overview %v, want %v", what, got.overview, want.overview)
			}
			for trial := 0; trial < 40; trial++ {
				cols, rows := 1+r.Intn(4), 1+r.Intn(4)
				tw, th := 1+r.Intn(64/cols), 1+r.Intn(32/rows)
				i1, j1 := r.Intn(64-cols*tw+1), r.Intn(32-rows*th+1)
				region := spanOf(i1, j1, i1+cols*tw-1, j1+rows*th-1)
				gl, gr := got.RouteGrid(region, cols, rows)
				wl, wr := want.RouteGrid(region, cols, rows)
				if gl != wl || gr != wr {
					t.Fatalf("%s: RouteGrid(%v, %dx%d) = %d %v, want %d %v", what, region, cols, rows, gl, gr, wl, wr)
				}
				ge, gb, gok := got.overview.EstimateGrid(region, cols, rows, 0.5)
				we, wb, wok := want.overview.EstimateGrid(region, cols, rows, 0.5)
				if gok != wok || gb != wb || !reflect.DeepEqual(ge, we) {
					t.Fatalf("%s: ε map %v %dx%d diverges", what, region, cols, rows)
				}
			}
			if s2, h2, ok := SpecOf(got); !ok || !reflect.DeepEqual(s2, spec) || h2[0] != pyrs[0].Level(0) {
				t.Fatalf("SpecOf(zoom %v) = %v, %v", spec, s2, ok)
			}
		}
	}
	if _, err := (Spec{Algo: AlgoSEuler}).FromPyramids(nil); err == nil {
		t.Fatal("a zoom stack over no pyramid accepted")
	}
}

// TestSpecValidate: every malformed spec is refused by Validate and by
// every constructor; live.Open and the summary loader run the same list
// against the same function.
func TestSpecValidate(t *testing.T) {
	g := grid.NewUnit(16, 16)
	h := euler.FromRects(g, nil)
	for _, bad := range []Spec{
		{},
		{Algo: 4},
		{Algo: AlgoSEuler, Areas: []float64{1}},
		{Algo: AlgoEuler, Areas: []float64{1, 9}},
		{Algo: AlgoMEuler},
		{Algo: AlgoMEuler, Areas: []float64{}},
		{Algo: AlgoMEuler, Areas: []float64{2, 9}},
		{Algo: AlgoMEuler, Areas: []float64{0, 1}},
		{Algo: AlgoMEuler, Areas: []float64{1, 9, 4}},
		{Algo: AlgoMEuler, Areas: []float64{1, 9, 9}},
		{Algo: AlgoMEuler, Areas: []float64{1, 1}},
		{Algo: AlgoMEuler, Areas: []float64{1, math.NaN()}},
		{Algo: AlgoMEuler, Areas: []float64{1, 9, math.Inf(1)}},
		{Algo: AlgoMEuler, Areas: []float64{math.NaN()}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%v) accepted", bad)
		}
		if _, err := bad.FromRects(g, nil); err == nil {
			t.Errorf("FromRects(%v) accepted", bad)
		}
		hists := make([]*euler.Histogram, max(1, len(bad.Areas)))
		pyrs := make([]*euler.Pyramid, len(hists))
		for i := range hists {
			hists[i], pyrs[i] = h, euler.NewPyramid(h, euler.PyramidOpts{MinGrid: 4})
		}
		if _, err := bad.FromHistograms(hists); err == nil {
			t.Errorf("FromHistograms(%v) accepted", bad)
		}
		if _, err := bad.FromPyramids(pyrs); err == nil {
			t.Errorf("FromPyramids(%v) accepted", bad)
		}
		if bad.Algo == AlgoMEuler {
			if _, err := NewMEuler(g, bad.Areas, nil); err == nil {
				t.Errorf("NewMEuler(%v) accepted", bad.Areas)
			}
			if _, err := MEulerFromHistograms(bad.Areas, hists); err == nil {
				t.Errorf("MEulerFromHistograms(%v) accepted", bad.Areas)
			}
		}
	}
	for _, good := range testSpecs {
		if err := good.Validate(); err != nil {
			t.Errorf("Validate(%v): %v", good, err)
		}
	}
}

// TestSpecGroup: Group routes an object where NewMEuler put it, and the
// single-histogram algorithms route everything to their one histogram.
func TestSpecGroup(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	g := grid.NewUnit(40, 40)
	spec := Spec{Algo: AlgoMEuler, Areas: []float64{1, 9, 100}}
	for _, rect := range batchRects(r, g, 200) {
		gi, ok := spec.Group(g, rect)
		wi, wok := ObjectAreaGroup(g, spec.Areas, rect)
		if gi != wi || ok != wok {
			t.Fatalf("Group(%v) = %d %v, want %d %v", rect, gi, ok, wi, wok)
		}
		if gi, ok := (Spec{Algo: AlgoEuler}).Group(g, rect); gi != 0 || !ok {
			t.Fatalf("single-histogram Group(%v) = %d %v", rect, gi, ok)
		}
	}
}
