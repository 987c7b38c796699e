package euler

import (
	"math/rand"
	"testing"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/grid"
)

// checkGridSums holds GridQuerySums to per-tile InsideSum, ClosedSum and
// OutsideSum (Total − Closed) on one tiling.
func checkGridSums(t *testing.T, h *Histogram, region grid.Span, cols, rows int) {
	t.Helper()
	ts, err := h.GridQuerySums(region, cols, rows)
	if err != nil {
		t.Fatalf("grid %v: GridQuerySums(%v,%d,%d): %v", h.Grid(), region, cols, rows, err)
	}
	for k, q := range gen.Tiles(region, cols, rows) {
		if got, want := ts.Inside[k], h.InsideSum(q); got != want {
			t.Fatalf("%v %dx%d tile %d %v: inside %d, want %d", region, cols, rows, k, q, got, want)
		}
		if got, want := ts.Closed[k], h.ClosedSum(q); got != want {
			t.Fatalf("%v %dx%d tile %d %v: closed %d, want %d", region, cols, rows, k, q, got, want)
		}
		if got, want := h.Total()-ts.Closed[k], h.OutsideSum(q); got != want {
			t.Fatalf("%v %dx%d tile %d %v: outside %d, want %d", region, cols, rows, k, q, got, want)
		}
	}
}

func TestGridSumsMatchPerTile(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, gc := range [][2]int{{1, 1}, {7, 5}, {36, 18}, {61, 43}} {
		g := grid.NewUnit(gc[0], gc[1])
		narrow := FromRects(g, gen.Rects(r, g, 300, gen.RectOpts{}))
		for trial := 0; trial < 50; trial++ {
			h := narrow
			if trial%2 == 1 {
				h = narrow.Unpack() // the same sweep over 8-byte cells
			}
			region, cols, rows := gen.Tiling(r, g)
			checkGridSums(t, h, region, cols, rows)
		}
	}
}

// TestGridSumsEdgeRows pins the tile rows whose corners leave the lattice —
// the bottom row, the top row, both at once (rows == 1 over the full
// height) — beside interior-only maps, at both cell widths.
func TestGridSumsEdgeRows(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	g := grid.NewUnit(48, 40)
	narrow := FromRects(g, gen.Rects(r, g, 500, gen.RectOpts{}))
	for _, h := range []*Histogram{narrow, narrow.Unpack()} {
		for _, tl := range []struct {
			region     grid.Span
			cols, rows int
		}{
			{grid.Span{I2: 47, J2: 39}, 12, 1},                // one row, bottom and top edge at once
			{grid.Span{I2: 47, J2: 39}, 48, 40},               // every cell
			{grid.Span{I2: 47, J2: 39}, 6, 10},                // both edge rows
			{grid.Span{I1: 4, I2: 43, J2: 19}, 10, 5},         // bottom edge only
			{grid.Span{I1: 4, J1: 20, I2: 43, J2: 39}, 8, 4},  // top edge only
			{grid.Span{I1: 8, J1: 8, I2: 39, J2: 31}, 8, 6},   // interior
			{grid.Span{J1: 8, I2: 47, J2: 15}, 3, 1},          // one interior row
			{grid.Span{I1: 47, J1: 39, I2: 47, J2: 39}, 1, 1}, // the top-right cell
		} {
			checkGridSums(t, h, tl.region, tl.cols, tl.rows)
		}
	}
}

func TestGridSumsWholeSpaceSingleTile(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g := grid.NewUnit(12, 9)
	h := FromRects(g, gen.Rects(r, g, 200, gen.RectOpts{}))
	whole := grid.Span{I1: 0, J1: 0, I2: 11, J2: 8}
	ts, err := h.GridQuerySums(whole, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Inside[0] != h.InsideSum(whole) || ts.Closed[0] != h.ClosedSum(whole) {
		t.Fatalf("1x1 whole-space tile: got %d/%d, want %d/%d",
			ts.Inside[0], ts.Closed[0], h.InsideSum(whole), h.ClosedSum(whole))
	}
	checkGridSums(t, h, whole, 12, 9) // max tiling: every tile a single cell
}

func TestGridSumsBadTiling(t *testing.T) {
	g := grid.NewUnit(10, 10)
	h := FromRects(g, nil)
	whole := grid.Span{I1: 0, J1: 0, I2: 9, J2: 9}
	for _, c := range []struct {
		region     grid.Span
		cols, rows int
	}{
		{whole, 0, 1},
		{whole, 1, -1},
		{whole, 3, 1},  // does not divide 10
		{whole, 1, 11}, // more tiles than cells
		{grid.Span{I1: 0, J1: 0, I2: 10, J2: 9}, 1, 1}, // outside grid
		{grid.Span{I1: 5, J1: 0, I2: 4, J2: 9}, 1, 1},  // invalid span
	} {
		if _, err := h.GridQuerySums(c.region, c.cols, c.rows); err == nil {
			t.Errorf("GridQuerySums(%v, %d, %d): expected error", c.region, c.cols, c.rows)
		}
	}
}
