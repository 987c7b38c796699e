package core

import (
	"math"
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

// TestKernelWindowsExhaustive sweeps every region of a 6×5 grid in every
// tiling that divides it — so every interior band (r0, r1) and row step
// the kernels meet there, edge rows on both sides or neither — and holds
// each kernel to the per-tile path at both cell widths: S-EulerApprox
// under both masks, EulerApprox and M-EulerApprox, EstimateGrid against
// the same estimator behind hideBatch. The M-EulerApprox cases cover every
// pass shape: 1 to 5 groups (a fused pass of three, a last pass of one or
// two run group by group, and two passes at one width), at thresholds that put every group in every role
// it can take somewhere in the 1–30-cell tile areas, and mixed widths (one
// group widened). Plan.Add onto a garbage-filled plane must be the garbage
// plus the per-tile answer. It also pins interiorWindow to the lowest and
// highest lattice positions the interior rows' corner sums read, inside
// the lattice rows ColumnRows hands out.
func TestKernelWindowsExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	g := grid.NewUnit(6, 5)
	rects := batchRects(r, g, 80)
	se, eu := SEulerFromRects(g, rects), EulerFromRects(g, rects)
	seW, euW := NewSEuler(widened(t, se.Histogram())), NewEuler(widened(t, eu.Histogram()))
	ests := []Estimator{se, seW, eu, euW}
	var ms []*MEuler
	for _, areas := range [][]float64{{1}, {1, 6}, {1, 4, 12}, {1, 3, 7, 16}, {1, 3, 6, 12, 20}} {
		m, err := NewMEuler(g, areas, rects)
		if err != nil {
			t.Fatal(err)
		}
		hs := m.Histograms()
		wide, mixed := make([]*euler.Histogram, len(hs)), slices.Clone(hs)
		for i, h := range hs {
			wide[i] = widened(t, h)
		}
		mixed[len(hs)/2] = wide[len(hs)/2]
		for _, planes := range [][]*euler.Histogram{wide, mixed} {
			mw, err := MEulerFromHistograms(areas, planes)
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, mw)
		}
		ms = append(ms, m)
	}
	for _, m := range ms {
		ests = append(ests, m)
	}
	roles := make([]map[[2]int]bool, len(ms)) // (group, role) pairs each M-EulerApprox reached

	windows := map[[3]int]bool{}
	for i1 := 0; i1 < g.NX(); i1++ {
		for i2 := i1; i2 < g.NX(); i2++ {
			for j1 := 0; j1 < g.NY(); j1++ {
				for j2 := j1; j2 < g.NY(); j2++ {
					region := grid.Span{I1: i1, J1: j1, I2: i2, J2: j2}
					for cols := 1; cols <= region.Width(); cols++ {
						for rows := 1; rows <= region.Height(); rows++ {
							if region.Width()%cols != 0 || region.Height()%rows != 0 {
								continue
							}
							for _, est := range ests {
								checkBatchAgainstPerTile(t, est, region, cols, rows)
								checkAddOntoGarbage(t, r, est, region, cols, rows)
							}
							for k, m := range ms {
								if roles[k] == nil {
									roles[k] = map[[2]int]bool{}
								}
								aq := float64(region.Cells() / (cols * rows))
								for i := range m.Areas() {
									roles[k][[2]int{i, int(m.role(i, aq))}] = true
								}
							}
							for _, s := range []*SEuler{se, seW} {
								checkMaskedAgainstPerTile(t, s, region, cols, rows)
							}
							windows[checkInteriorWindow(t, se.Histogram(), region, cols, rows)] = true
							checkInteriorWindow(t, seW.Histogram(), region, cols, rows)
						}
					}
				}
			}
		}
	}
	for k, m := range ms {
		// The last group takes no S-EulerApprox role: nothing is too large
		// to contain a query.
		if want := 3*len(m.Areas()) - 1; len(roles[k]) != want {
			t.Errorf("%s %v: %d (group, role) pairs reached, want %d: %v", m.Name(), m.Areas(), len(roles[k]), want, roles[k])
		}
	}
	t.Logf("%d distinct (r0, r1, step) interior bands", len(windows))
}

// checkAddOntoGarbage holds Plan.Add to the accumulate contract: onto a
// garbage-filled plane it adds the per-tile answer and touches nothing
// else.
func checkAddOntoGarbage(t *testing.T, r *rand.Rand, est Estimator, region grid.Span, cols, rows int) {
	t.Helper()
	want, err := EstimateGrid(hideBatch{est}, region, cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlanGrid(est, region, cols, rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	plane := make([]Estimate, len(want))
	for k := range plane {
		plane[k] = Estimate{Disjoint: r.Int63(), Contains: -r.Int63(), Contained: r.Int63(), Overlap: -r.Int63()}
		want[k].Add(plane[k])
	}
	if err := p.Add(plane); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plane, want) {
		t.Fatalf("%s %v %dx%d Add onto garbage: %v, garbage + per-tile %v", est.Name(), region, cols, rows, plane, want)
	}
}

func checkBatchAgainstPerTile(t *testing.T, est Estimator, region grid.Span, cols, rows int) {
	t.Helper()
	got, err := EstimateGrid(est, region, cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EstimateGrid(hideBatch{est}, region, cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s %v %dx%d: batch %v, per-tile %v", est.Name(), region, cols, rows, got, want)
	}
}

// checkMaskedAgainstPerTile runs the S-EulerApprox kernel under the
// no-contains mask, the M-EulerApprox role whose N_cs is zero.
func checkMaskedAgainstPerTile(t *testing.T, s *SEuler, region grid.Span, cols, rows int) {
	t.Helper()
	got, want := make([]Estimate, cols*rows), make([]Estimate, cols*rows)
	if err := s.addGridMasked(got, region, cols, rows, 0); err != nil {
		t.Fatal(err)
	}
	qs, err := query.Browsing(region, cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	for k, q := range qs.Tiles {
		s.addMasked(&want[k], q, 0)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("masked %v %dx%d: batch %v, per-tile %v", region, cols, rows, got, want)
	}
}

// checkInteriorWindow pins interiorWindow for one tiling and returns its
// interior band and step.
func checkInteriorWindow(t *testing.T, h *euler.Histogram, region grid.Span, cols, rows int) [3]int {
	t.Helper()
	var (
		v0, step, r0, r1 int
		rowLen           int
	)
	if h.CellWidth() == 4 {
		cv, err := euler.CornerViewOf[int32](h, region, cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		v0, step, r0, r1 = cv.Interior()
		inL, _, _, _ := cv.ColumnRows(0)
		rowLen = len(inL)
	} else {
		cv, err := euler.CornerViewOf[int64](h, region, cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		v0, step, r0, r1 = cv.Interior()
		inL, _, _, _ := cv.ColumnRows(0)
		rowLen = len(inL)
	}
	if r0 >= r1 {
		return [3]int{r0, r1, step}
	}
	// The positions the interior rows read: the inside sum at v and
	// v+step−1, the closed sum at v−1 and v+step, the A-wide sum at v and
	// v+step.
	least, most := math.MaxInt, math.MinInt
	for r := r0; r < r1; r++ {
		v := v0 + r*step
		for _, p := range []int{v - 1, v, v + step - 1, v + step} {
			least, most = min(least, p), max(most, p)
		}
	}
	lo, hi := interiorWindow(v0, step, r0, r1)
	if lo != least || hi != most+1 || lo < 0 || hi > rowLen {
		t.Fatalf("%v %dx%d (r0 %d, r1 %d, step %d): window [%d, %d), reads [%d, %d] of %d",
			region, cols, rows, r0, r1, step, lo, hi, least, most, rowLen)
	}
	return [3]int{r0, r1, step}
}

// TestPlanAddAllocs bounds what a warm Plan.Add of the served
// M-EulerApprox(1, 9, 100) allocates onto a recycled plane, for two
// full-space maps over a 360×180 grid that each sweep the three groups in
// one pass: 36×18, whose 10×10 tiles leave no group in the EulerApprox
// role, and 72×36, whose 5×5 tiles put the middle group in it. The sweep
// telemetry is resolved once per algorithm, so what is left is the sweep's
// own: the EulerApprox row bases (or the masked-off stand-in) and the zero
// lattice rows of the groups' views at the left edge of the space.
func TestPlanAddAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	g := grid.NewUnit(360, 180)
	m, err := NewMEuler(g, []float64{1, 9, 100}, batchRects(r, g, 2000))
	if err != nil {
		t.Fatal(err)
	}
	whole := grid.Span{I2: 359, J2: 179}
	for _, tl := range [][2]int{{36, 18}, {72, 36}} {
		p, err := PlanGrid(m, whole, tl[0], tl[1], 0)
		if err != nil {
			t.Fatal(err)
		}
		plane := make([]Estimate, tl[0]*tl[1])
		if err := p.Add(plane); err != nil { // warm: the series resolved
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			clear(plane)
			if err := p.Add(plane); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%dx%d: %.0f allocations per Plan.Add", tl[0], tl[1], allocs)
		if allocs > 4 {
			t.Errorf("%dx%d: %.0f allocations per Plan.Add, want at most 4", tl[0], tl[1], allocs)
		}
	}
}

// FuzzMEulerGrid fuzzes the M-EulerApprox sweep's pass shapes: 1 to 5 area
// groups at fuzzed thresholds (fractional ones included), each group's
// cell width, and a region and dividing tiling of a 12×10 grid. The batch
// sweep must equal the per-tile path, bit for bit.
func FuzzMEulerGrid(f *testing.F) {
	g := grid.NewUnit(12, 10)
	rects := batchRects(rand.New(rand.NewSource(58)), g, 300)
	f.Add(uint8(3), uint32(0x00100810), uint8(0), uint8(0), uint8(0), uint8(11), uint8(9), uint8(3), uint8(2))
	f.Add(uint8(5), uint32(0x0c060402), uint8(0b10110), uint8(1), uint8(2), uint8(10), uint8(8), uint8(0), uint8(4))
	f.Add(uint8(2), uint32(0x0000000b), uint8(0b10), uint8(3), uint8(0), uint8(5), uint8(9), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, groups uint8, gaps uint32, wide, i1, j1, i2, j2, cols, rows uint8) {
		// Thresholds: 1, then steps of 0.5 to 16 cells, one byte of gaps each.
		areas := []float64{1}
		for k := 1; k < 1+int(groups%5); k++ {
			areas = append(areas, areas[k-1]+0.5+float64(gaps>>(8*(k-1))&0x1f)/2)
		}
		m, err := NewMEuler(g, areas, rects)
		if err != nil {
			t.Fatal(err)
		}
		hs := m.Histograms()
		for i, h := range hs {
			if wide>>i&1 != 0 {
				hs[i] = widened(t, h)
			}
		}
		if m, err = MEulerFromHistograms(areas, hs); err != nil {
			t.Fatal(err)
		}
		x1, x2 := int(i1)%g.NX(), int(i2)%g.NX()
		y1, y2 := int(j1)%g.NY(), int(j2)%g.NY()
		region := grid.Span{I1: min(x1, x2), J1: min(y1, y2), I2: max(x1, x2), J2: max(y1, y2)}
		// The cols-th and rows-th divisors, cyclically, of the region's sides.
		divisor := func(n int, k uint8) int {
			var ds []int
			for d := 1; d <= n; d++ {
				if n%d == 0 {
					ds = append(ds, d)
				}
			}
			return ds[int(k)%len(ds)]
		}
		checkBatchAgainstPerTile(t, m, region, divisor(region.Width(), cols), divisor(region.Height(), rows))
	})
}
