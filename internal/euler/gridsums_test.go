package euler

import (
	"math/rand"
	"testing"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/grid"
)

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
			ts, err := h.GridQuerySums(region, cols, rows)
			if err != nil {
				t.Fatalf("grid %v: GridQuerySums(%v,%d,%d): %v", g, region, cols, rows, err)
			}
			outs, err := h.GridOutsideSums(region, cols, rows)
			if err != nil {
				t.Fatal(err)
			}
			for k, q := range gen.Tiles(region, cols, rows) {
				if got, want := ts.Inside[k], h.InsideSum(q); got != want {
					t.Fatalf("tile %d %v: inside %d, want %d", k, q, got, want)
				}
				if got, want := ts.Closed[k], h.ClosedSum(q); got != want {
					t.Fatalf("tile %d %v: closed %d, want %d", k, q, got, want)
				}
				if got, want := outs[k], h.OutsideSum(q); got != want {
					t.Fatalf("tile %d %v: outside %d, want %d", k, q, got, want)
				}
			}
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
	// Max tiling: every tile a single cell.
	ins, err := h.GridInsideSums(whole, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	for k, q := range gen.Tiles(whole, 12, 9) {
		if ins[k] != h.InsideSum(q) {
			t.Fatalf("cell tile %d: %d, want %d", k, ins[k], h.InsideSum(q))
		}
	}
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

func TestExteriorGridInsideSums(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	g := grid.NewUnit(24, 16)
	b := NewExteriorBuilder(g)
	for _, rect := range gen.Rects(r, g, 150, gen.RectOpts{}) {
		if s, ok := g.Snap(rect); ok {
			b.AddSpan(s)
		}
	}
	h := b.Build()
	for trial := 0; trial < 30; trial++ {
		region, cols, rows := gen.Tiling(r, g)
		ins, err := h.GridInsideSums(region, cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		for k, q := range gen.Tiles(region, cols, rows) {
			if got, want := ins[k], h.InsideSum(q); got != want {
				t.Fatalf("tile %d %v: %d, want %d", k, q, got, want)
			}
		}
	}
}
