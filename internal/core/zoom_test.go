package core

import (
	"math/rand"
	"testing"

	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

func zoomTestRects(r *rand.Rand, n int) []geom.Rect {
	rects := make([]geom.Rect, 0, n)
	for k := 0; k < n; k++ {
		x, y := r.Float64()*60, r.Float64()*60
		rects = append(rects, geom.NewRect(x, y, x+r.Float64()*6+0.1, y+r.Float64()*6+0.1))
	}
	return rects
}

// zoomOver is the zoom stack of a one-histogram spec over its pyramid.
func zoomOver(t testing.TB, algo Algo, p *euler.Pyramid) *Zoom {
	t.Helper()
	est, err := Spec{Algo: algo}.FromPyramids([]*euler.Pyramid{p})
	if err != nil {
		t.Fatal(err)
	}
	z, ok := est.(*Zoom)
	if !ok {
		t.Fatalf("%s over a pyramid of %d levels is no zoom stack", algo, p.Levels())
	}
	return z
}

// zoomStacks builds the base estimator and its zoom stack for each paper
// algorithm over the same dataset.
func zoomStacks(t *testing.T, g *grid.Grid, rects []geom.Rect) map[string][2]Estimator {
	t.Helper()
	opts := euler.PyramidOpts{MinGrid: 4}
	areas := []float64{1, 4, 16}

	seuler := SEulerFromRects(g, rects)
	eapx := EulerFromRects(g, rects)
	meuler, err := NewMEuler(g, areas, rects)
	if err != nil {
		t.Fatal(err)
	}
	pyrs := make([]*euler.Pyramid, 0, len(areas))
	for _, h := range meuler.Histograms() {
		pyrs = append(pyrs, euler.NewPyramid(h, opts))
	}
	zm, err := ZoomMEuler(areas, pyrs)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][2]Estimator{
		"seuler": {seuler, zoomOver(t, AlgoSEuler, euler.NewPyramid(seuler.Histogram(), opts))},
		"euler":  {eapx, zoomOver(t, AlgoEuler, euler.NewPyramid(eapx.Histogram(), opts))},
		"meuler": {meuler, zm},
	}
}

// TestZoomRouting pins the alignment rule: the resolved level is the
// largest power of two dividing the region origin and the tile size.
func TestZoomRouting(t *testing.T) {
	g := grid.NewUnit(64, 64)
	z := zoomOver(t, AlgoSEuler, euler.NewPyramid(euler.FromRects(g, nil), euler.PyramidOpts{MinGrid: 4}))
	if NumLevels(z) != 5 { // 64 → 32 → 16 → 8 → 4
		t.Fatalf("NumLevels = %d, want 5", NumLevels(z))
	}
	cases := []struct {
		q     grid.Span
		level int
		lq    grid.Span
	}{
		{grid.Span{I1: 0, J1: 0, I2: 63, J2: 63}, 4, grid.Span{I1: 0, J1: 0, I2: 3, J2: 3}},
		{grid.Span{I1: 16, J1: 32, I2: 31, J2: 47}, 4, grid.Span{I1: 1, J1: 2, I2: 1, J2: 2}},
		{grid.Span{I1: 4, J1: 4, I2: 11, J2: 11}, 2, grid.Span{I1: 1, J1: 1, I2: 2, J2: 2}},
		{grid.Span{I1: 3, J1: 0, I2: 63, J2: 63}, 0, grid.Span{I1: 3, J1: 0, I2: 63, J2: 63}},
		{grid.Span{I1: 0, J1: 0, I2: 62, J2: 63}, 0, grid.Span{I1: 0, J1: 0, I2: 62, J2: 63}},
	}
	for _, c := range cases {
		level, lq := z.RouteSpan(c.q)
		if level != c.level || lq != c.lq {
			t.Errorf("RouteSpan(%v) = (%d, %v), want (%d, %v)", c.q, level, lq, c.level, c.lq)
		}
	}
	// Tile-map routing: origin 0, tile 16×8 → level 3 (8 divides both).
	if level, _ := z.RouteGrid(grid.Span{I1: 0, J1: 0, I2: 63, J2: 63}, 4, 8); level != 3 {
		t.Errorf("RouteGrid(full, 4x8) level = %d, want 3", level)
	}
	// Unaligned origin falls back to level 0.
	if level, _ := z.RouteGrid(grid.Span{I1: 1, J1: 0, I2: 32, J2: 63}, 2, 2); level != 0 {
		t.Errorf("RouteGrid(unaligned) level = %d, want 0", level)
	}
}

// TestRouteGridOfUndividedTilingIsTheBase: a tiling that does not divide
// its region, which PlanGrid refuses, routes to level 0 with the region
// unchanged, even where its origin and extent are coarsely aligned.
func TestRouteGridOfUndividedTilingIsTheBase(t *testing.T) {
	z := zoomOver(t, AlgoSEuler, euler.NewPyramid(euler.FromRects(grid.NewUnit(64, 64), nil), euler.PyramidOpts{MinGrid: 4}))
	for _, tc := range []struct {
		region     grid.Span
		cols, rows int
	}{
		{grid.Span{I2: 63, J2: 63}, 3, 4},
		{grid.Span{I2: 63, J2: 63}, 4, 5},
		{grid.Span{I1: 16, J1: 16, I2: 47, J2: 47}, 64, 1},
		{grid.Span{I2: 63, J2: 63}, 0, 4},
	} {
		if _, err := PlanGrid(z, tc.region, tc.cols, tc.rows); err == nil {
			t.Fatalf("PlanGrid(%v, %dx%d) planned an undivided tiling", tc.region, tc.cols, tc.rows)
		}
		if level, lregion := z.RouteGrid(tc.region, tc.cols, tc.rows); level != 0 || lregion != tc.region {
			t.Errorf("RouteGrid(%v, %dx%d) = %d %v, want 0 and the region", tc.region, tc.cols, tc.rows, level, lregion)
		}
	}
}

// TestZoomMatchesBase asserts the serving property behind the pyramid:
// for every query — aligned (served coarse) or not (level-0 fallback) —
// the zoom stack returns exactly the base estimator's counts, for all
// three algorithms, per query and per tile map.
func TestZoomMatchesBase(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g := grid.NewUnit(64, 64)
	rects := zoomTestRects(r, 400)
	for name, pair := range zoomStacks(t, g, rects) {
		base, zoom := pair[0], pair[1]
		if base.Count() != zoom.Count() {
			t.Fatalf("%s: count %d vs %d", name, zoom.Count(), base.Count())
		}
		for trial := 0; trial < 200; trial++ {
			// Random spans at a random alignment so every level gets hit.
			k := r.Intn(5)
			step := 1 << k
			i1 := r.Intn(64/step) * step
			j1 := r.Intn(64/step) * step
			q := grid.Span{
				I1: i1, J1: j1,
				I2: i1 + step*(1+r.Intn((64-i1)/step)) - 1,
				J2: j1 + step*(1+r.Intn((64-j1)/step)) - 1,
			}
			if r.Intn(3) == 0 { // ~1/3 deliberately unaligned
				q.I2 = min(q.I2+1, 63)
			}
			if got, want := zoom.Estimate(q), base.Estimate(q); got != want {
				t.Fatalf("%s: Estimate(%v) = %+v, want %+v", name, q, got, want)
			}
		}
		for _, tiling := range []struct{ cols, rows int }{{4, 4}, {8, 2}, {16, 16}, {64, 64}} {
			full := grid.Span{I1: 0, J1: 0, I2: 63, J2: 63}
			got, err := EstimateGrid(zoom, full, tiling.cols, tiling.rows)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EstimateGrid(base, full, tiling.cols, tiling.rows)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %dx%d: tile %d = %+v, want %+v",
						name, tiling.cols, tiling.rows, i, got[i], want[i])
				}
			}
		}
	}
}
