package core

import (
	"math/rand"
	"testing"

	"spatialhist/internal/euler"
	"spatialhist/internal/grid"
)

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// approxGrid answers a tile map through the ε plan; ok reports whether the
// reduced tier served it.
func approxGrid(t *testing.T, est Estimator, region grid.Span, cols, rows int, eps float64) ([]Estimate, float64, bool) {
	t.Helper()
	p, err := PlanGrid(est, region, cols, rows, eps)
	if err != nil {
		t.Fatal(err)
	}
	ests, bound, err := p.Estimates(nil)
	if err != nil {
		t.Fatal(err)
	}
	if bound == nil {
		return nil, 0, false
	}
	return ests, *bound, true
}

// TestOverviewEpsilonBound is the serving contract of the reduced tier:
// when the ε plan serves a map under eps, every tile's Disjoint,
// Contains and Overlap are within the reported bound — and within
// eps·|tile| — of the exact S-EulerApprox answer, and the four counts sum
// to |S|.
func TestOverviewEpsilonBound(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	nx, ny := 128, 128
	g := grid.NewUnit(nx, ny)
	h := histFromSpans(g, randSpans(r, nx, ny, 500))
	p := euler.NewPyramid(h, euler.PyramidOpts{MinGrid: 8})
	z := ZoomSEuler(p)
	o := z.Overview()
	if o == nil || o.Shift() != DefaultOverviewShift {
		t.Fatal("overview not attached two halvings down")
	}

	served := 0
	for trial := 0; trial < 60; trial++ {
		// Tile sizes of 8..32 base cells per axis with odd origins, so the
		// exact route stays at level 0 and tiles stay unaligned.
		cols, rows := 1+r.Intn(4), 1+r.Intn(4)
		tw, th := 8+r.Intn(25), 8+r.Intn(25)
		i1 := 1 + r.Intn(nx-cols*tw-1)
		j1 := 1 + r.Intn(ny-rows*th-1)
		region := spanOf(i1, j1, i1+cols*tw-1, j1+rows*th-1)
		eps := 0.5 + r.Float64()
		approx, bound, ok := approxGrid(t, z, region, cols, rows, eps)
		if !ok {
			continue
		}
		served++
		if bound > eps*float64(tw)*float64(th) {
			t.Fatalf("reported bound %g exceeds the budget", bound)
		}
		exact, err := EstimateGrid(z, region, cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		for k := range exact {
			a, e := approx[k], exact[k]
			if got := a.Disjoint + a.Contains + a.Contained + a.Overlap; got != h.Count() {
				t.Fatalf("tile %d: counts sum to %d, want %d", k, got, h.Count())
			}
			lim := int64(bound)
			if abs64(a.Disjoint-e.Disjoint) > lim || abs64(a.Contains-e.Contains) > lim ||
				abs64(a.Overlap-e.Overlap) > 2*lim {
				t.Fatalf("tile %d: approx %+v drifts past bound %g from exact %+v", k, a, bound, e)
			}
		}
	}
	if served == 0 {
		t.Fatal("no map was ever served from the reduced tier")
	}

	// eps = 0 must always decline, as must a missing overview.
	if _, _, ok := approxGrid(t, z, spanOf(1, 1, 96, 96), 2, 2, 0); ok {
		t.Fatal("eps=0 served")
	}
	bare, err := NewZoom([]Estimator{NewSEuler(p.Level(0)), NewSEuler(p.Level(1))})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := approxGrid(t, bare, spanOf(1, 1, 96, 96), 2, 2, 1); ok {
		t.Fatal("overview-less zoom served approximately")
	}
	if _, _, ok := approxGrid(t, NewSEuler(h), spanOf(1, 1, 96, 96), 2, 2, 1); ok {
		t.Fatal("plain estimator served approximately")
	}

	// A tiling the exact route already answers at the reduced level (or
	// coarser) must decline: alignment at 2^shift makes the exact sweep as
	// cheap as the approximate one.
	w := 1 << o.Shift()
	if _, _, ok := approxGrid(t, z, spanOf(0, 0, 16*w-1, 16*w-1), 2, 2, 5); ok {
		t.Fatal("aligned overview map served approximately")
	}
}

// TestOverviewAlignedIsExact: a map whose tiles are coarse-aligned but
// whose exact route resolves below the reduced shift (mixed alignment)
// still certifies with zero error when its tiles land on the coarse
// raster.
func TestOverviewExactWhenCertZero(t *testing.T) {
	r := rand.New(rand.NewSource(212))
	nx, ny := 64, 64
	g := grid.NewUnit(nx, ny)
	h := histFromSpans(g, randSpans(r, nx, ny, 200))
	p := euler.NewPyramid(h, euler.PyramidOpts{MinGrid: 8})
	o, ok := OverviewFromPyramids([]*euler.Pyramid{p}, 2)
	if !ok {
		t.Fatal("overview derivation refused")
	}
	se := NewSEuler(h)
	region := spanOf(4, 8, 4+31, 8+15) // 4-aligned tiles of 8×8
	approx, bound, ok := o.EstimateGrid(region, 4, 2, 1e-9)
	if !ok {
		t.Fatal("aligned map not served under a tiny eps")
	}
	if bound != 0 {
		t.Fatalf("aligned map bound = %g, want 0", bound)
	}
	exact, err := EstimateGrid(se, region, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := range exact {
		if approx[k] != exact[k] {
			t.Fatalf("tile %d: aligned approx %+v != exact %+v", k, approx[k], exact[k])
		}
	}
}

// TestOverviewShiftClamp: the reduced tier sits two halvings down, or as
// deep as a shallower stack goes; a stack with no coarse level has none and
// is served as the plain estimator.
func TestOverviewShiftClamp(t *testing.T) {
	h := histFromSpans(grid.NewUnit(64, 64), randSpans(rand.New(rand.NewSource(213)), 64, 64, 50))
	for _, tc := range []struct{ levels, want int }{
		{2, 1}, {3, 2}, {5, 2},
	} {
		z := ZoomSEuler(euler.NewPyramid(h, euler.PyramidOpts{MaxLevels: tc.levels - 1, MinGrid: 2}))
		if NumLevels(z) != tc.levels || z.Overview() == nil || z.Overview().Shift() != tc.want {
			t.Fatalf("%d levels: overview %v, want shift %d", NumLevels(z), z.Overview(), tc.want)
		}
	}
	flat := []*euler.Pyramid{euler.NewPyramid(h, euler.PyramidOpts{MinGrid: 64})}
	if z := ZoomSEuler(flat[0]); NumLevels(z) != 1 || z.Overview() != nil {
		t.Fatalf("one-level stack: %d levels, overview %v", NumLevels(z), z.Overview())
	}
	if est, err := (Spec{Algo: AlgoSEuler}).FromPyramids(flat); err != nil || est.Name() != "S-EulerApprox" {
		t.Fatalf("FromPyramids over no coarse level = %v, %v; want the plain estimator", est, err)
	}
	if _, ok := OverviewFromPyramids(nil, 2); ok {
		t.Fatal("empty pyramid set accepted")
	}
}
