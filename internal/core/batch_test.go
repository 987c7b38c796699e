package core

import (
	"math/rand"
	"slices"
	"testing"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/query"
)

// batchRects draws from the shared generators with two interleaved
// profiles — mostly tiny objects plus every seventh one huge — so all
// M-EulerApprox groups and the containing-object (loophole) paths are
// populated.
func batchRects(r *rand.Rand, g *grid.Grid, n int) []geom.Rect {
	tiny := gen.RectOpts{MaxCellsX: 1 + g.NX()/20, MaxCellsY: 1 + g.NY()/20}
	out := make([]geom.Rect, n)
	for i := range out {
		o := tiny
		if i%7 == 0 {
			o = gen.RectOpts{}
		}
		out[i] = gen.Rect(r, g, o)
	}
	return out
}

// hideBatch masks the batch kernel (gridAdder) so the plan's per-tile
// fallback is exercised with the same golden comparison.
type hideBatch struct{ Estimator }

func testEstimators(t *testing.T, g *grid.Grid, rects []geom.Rect) []Estimator {
	t.Helper()
	m, err := NewMEuler(g, []float64{1, 9, 100}, rects)
	if err != nil {
		t.Fatal(err)
	}
	se := SEulerFromRects(g, rects)
	return []Estimator{se, EulerFromRects(g, rects), m, hideBatch{se}}
}

// TestEstimateGridGolden asserts the batch path is bit-identical to the
// per-tile path for all three estimators (and the fallback) across random
// grids, regions and tilings.
func TestEstimateGridGolden(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for _, gc := range [][2]int{{1, 1}, {9, 7}, {36, 18}, {50, 40}} {
		g := grid.NewUnit(gc[0], gc[1])
		rects := batchRects(r, g, 400)
		for _, est := range testEstimators(t, g, rects) {
			for trial := 0; trial < 40; trial++ {
				region, cols, rows := gen.Tiling(r, g)
				got, err := EstimateGrid(est, region, cols, rows)
				if err != nil {
					t.Fatalf("%s: EstimateGrid(%v,%d,%d): %v", est.Name(), region, cols, rows, err)
				}
				qs, err := query.Browsing(region, cols, rows)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(qs.Tiles) {
					t.Fatalf("%s: %d estimates for %d tiles", est.Name(), len(got), len(qs.Tiles))
				}
				for k, q := range qs.Tiles {
					if want := est.Estimate(q); got[k] != want {
						t.Fatalf("%s grid %v region %v %dx%d tile %d %v:\n  batch    %v\n  per-tile %v",
							est.Name(), g, region, cols, rows, k, q, got[k], want)
					}
				}
			}
		}
	}
}

// TestEstimateGridEdgeTilings pins the 1×1 and max-tiles (every tile one
// cell) cases over the whole space.
func TestEstimateGridEdgeTilings(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	g := grid.NewUnit(20, 12)
	rects := batchRects(r, g, 300)
	whole := grid.Span{I1: 0, J1: 0, I2: 19, J2: 11}
	for _, est := range testEstimators(t, g, rects) {
		for _, tc := range [][2]int{{1, 1}, {20, 12}, {1, 12}, {20, 1}} {
			cols, rows := tc[0], tc[1]
			got, err := EstimateGrid(est, whole, cols, rows)
			if err != nil {
				t.Fatalf("%s %dx%d: %v", est.Name(), cols, rows, err)
			}
			qs, _ := query.Browsing(whole, cols, rows)
			for k, q := range qs.Tiles {
				if want := est.Estimate(q); got[k] != want {
					t.Fatalf("%s %dx%d tile %d: %v != %v", est.Name(), cols, rows, k, got[k], want)
				}
			}
		}
	}
}

// TestPlanEstimatesIntoRecycledPlane: one plan answered into no buffer, a
// dirty buffer of exactly cols×rows, a dirty larger one and one too small
// is the EstimateGrid answer, tile for tile. A buffer with room is written
// in place, so a server recycling its plane serves no stale tile.
func TestPlanEstimatesIntoRecycledPlane(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	g := grid.NewUnit(128, 96)
	rects := batchRects(r, g, 500)
	whole := grid.Span{I1: 0, J1: 0, I2: 127, J2: 95}
	const cols, rows = 64, 48
	dirty := func(n int) []Estimate {
		buf := make([]Estimate, n)
		for k := range buf {
			buf[k] = Estimate{Contains: int64(k) + 1, Overlap: -7}
		}
		return buf
	}
	for _, est := range testEstimators(t, g, rects) {
		want, err := EstimateGrid(est, whole, cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		p, err := PlanGrid(est, whole, cols, rows, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, cols * rows, cols*rows + 9, cols*rows - 1} {
			buf := dirty(n)
			got, bound, err := p.Estimates(buf)
			if err != nil || bound != nil {
				t.Fatalf("%s buffer of %d: err %v, bound %v", est.Name(), n, err, bound)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s buffer of %d: plane differs from EstimateGrid", est.Name(), n)
			}
			if inPlace := n >= cols*rows; n > 0 && inPlace != (&got[0] == &buf[0]) {
				t.Fatalf("%s buffer of %d: written in place = %v, want %v", est.Name(), n, !inPlace, inPlace)
			}
		}
	}
}

func TestEstimateGridErrors(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	g := grid.NewUnit(10, 10)
	est := SEulerFromRects(g, batchRects(r, g, 50))
	whole := grid.Span{I1: 0, J1: 0, I2: 9, J2: 9}
	if _, err := EstimateGrid(est, whole, 3, 2); err == nil {
		t.Error("non-dividing tiling: expected error")
	}
	if _, err := EstimateGrid(est, whole, 0, 2); err == nil {
		t.Error("zero cols: expected error")
	}
	if _, err := PlanGrid(est, whole, 3, 2, 0); err == nil {
		t.Error("planning a non-dividing tiling: expected error")
	}
}

// intoEstimators returns every batch path over one dataset: the three
// algorithms at the cell width they are built with, over the same planes
// widened, as zoom stacks, and the per-tile fallback.
func intoEstimators(t *testing.T, g *grid.Grid, rects []geom.Rect) []Estimator {
	t.Helper()
	ests := testEstimators(t, g, rects)
	se, eu, m := ests[0].(*SEuler), ests[1].(*Euler), ests[2].(*MEuler)
	wide := make([]*euler.Histogram, 0, len(m.Histograms()))
	pyrs := make([]*euler.Pyramid, 0, len(m.Histograms()))
	for _, h := range m.Histograms() {
		wide = append(wide, widened(t, h))
		pyrs = append(pyrs, euler.NewPyramid(h, euler.PyramidOpts{MinGrid: 4}))
	}
	mp, err := MEulerFromHistograms(m.Areas(), wide)
	if err != nil {
		t.Fatal(err)
	}
	zm, err := ZoomMEuler(m.Areas(), pyrs)
	if err != nil {
		t.Fatal(err)
	}
	return append(ests,
		NewSEuler(widened(t, se.Histogram())), NewEuler(widened(t, eu.Histogram())), mp,
		ZoomSEuler(euler.NewPyramid(se.Histogram(), euler.PyramidOpts{MinGrid: 4})),
		ZoomEuler(euler.NewPyramid(eu.Histogram(), euler.PyramidOpts{MinGrid: 4})), zm)
}

// TestPlanAdd pins the accumulate contract from outside: Plan.Add onto a
// plane pre-filled with garbage — whole, and in every two-band split of its
// rows, one plan per band — is the garbage plus the per-tile loop, bit for
// bit, for every algorithm at both cell widths and as a zoom stack, on maps
// whose rows are both lattice edges at once (rows == 1 full-height), one of
// them, or neither. EstimateGrid is the same map on a zero plane.
func TestPlanAdd(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	g := grid.NewUnit(48, 40)
	tilings := []struct {
		region     grid.Span
		cols, rows int
	}{
		{grid.Span{I2: 47, J2: 39}, 12, 1},               // one row, bottom and top edge at once
		{grid.Span{I2: 47, J2: 39}, 48, 40},              // every cell
		{grid.Span{I2: 47, J2: 39}, 6, 10},               // both edge rows, level-2 aligned
		{grid.Span{I1: 4, I2: 43, J2: 19}, 10, 5},        // bottom edge only
		{grid.Span{I1: 4, J1: 20, I2: 43, J2: 39}, 8, 4}, // top edge only
		{grid.Span{I1: 8, J1: 8, I2: 39, J2: 31}, 8, 6},  // interior
		{grid.Span{J1: 8, I2: 47, J2: 15}, 3, 1},         // one interior row
	}
	for _, est := range intoEstimators(t, g, batchRects(r, g, 500)) {
		for _, tl := range tilings {
			region, cols, rows := tl.region, tl.cols, tl.rows
			qs, err := query.Browsing(region, cols, rows)
			if err != nil {
				t.Fatal(err)
			}
			want := EstimateSet(est, qs.Tiles)
			got, err := EstimateGrid(est, region, cols, rows)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s %v %dx%d EstimateGrid: tile %d = %v, per-tile %v", est.Name(), region, cols, rows, k, got[k], want[k])
				}
			}
			for split := 0; split < rows; split++ { // split 0: the whole plane at once
				garbage := make([]Estimate, cols*rows)
				for k := range garbage {
					garbage[k] = Estimate{Disjoint: r.Int63n(1 << 40), Contains: -r.Int63n(1 << 40), Contained: r.Int63n(1 << 40), Overlap: -r.Int63n(1 << 40)}
				}
				plane := slices.Clone(garbage)
				for _, band := range [][2]int{{0, split}, {split, rows}} {
					r0, r1 := band[0], band[1]
					if r0 == r1 {
						continue
					}
					p, err := PlanGrid(est, query.RowBand(region, region.Height()/rows, r0, r1-1), cols, r1-r0, 0)
					if err != nil {
						t.Fatal(err)
					}
					if err := p.Add(plane[r0*cols : r1*cols]); err != nil {
						t.Fatal(err)
					}
				}
				for k := range want {
					w := garbage[k]
					w.Add(want[k])
					if plane[k] != w {
						t.Fatalf("%s %v %dx%d Add split at row %d: tile %d = %v, garbage + per-tile %v", est.Name(), region, cols, rows, split, k, plane[k], w)
					}
				}
			}
		}
	}
	se := SEulerFromRects(g, nil)
	p, err := PlanGrid(se, grid.Span{I2: 47, J2: 39}, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Add(make([]Estimate, 5)); err == nil {
		t.Error("plane of the wrong length: expected error")
	}
	if p, err = PlanGrid(se, grid.Span{I2: 95, J2: 39}, 2, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(make([]Estimate, 4)); err == nil {
		t.Error("region outside the grid: expected error")
	}
}
