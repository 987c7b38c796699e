package core

import (
	"math/rand"
	"slices"
	"testing"

	"spatialhist/internal/euler"
	"spatialhist/internal/grid"
)

func randSpans(r *rand.Rand, nx, ny, n int) []grid.Span {
	spans := make([]grid.Span, 0, n)
	for k := 0; k < n; k++ {
		i1, j1 := r.Intn(nx), r.Intn(ny)
		spans = append(spans, spanOf(i1, j1, i1+r.Intn(nx-i1), j1+r.Intn(ny-j1)))
	}
	return spans
}

// widened returns h at 8 bytes per bucket; h itself is built at 4.
func widened(t *testing.T, h *euler.Histogram) *euler.Histogram {
	t.Helper()
	w := h.Unpack()
	if h.CellWidth() != 4 || w.CellWidth() != 8 {
		t.Fatalf("built %d-byte cells, unpacked to %d", h.CellWidth(), w.CellWidth())
	}
	return w
}

// TestCellWidthsBitIdentical is the serving contract of the two cell
// widths: S-EulerApprox and EulerApprox answer every query and every batch
// sweep bit-identically over the narrow plane a histogram is built with
// and over the same plane widened.
func TestCellWidthsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	nx, ny := 48, 40
	g := grid.NewUnit(nx, ny)
	p := histFromSpans(g, randSpans(r, nx, ny, 300))
	h := widened(t, p)

	seF, seP := NewSEuler(h), NewSEuler(p)
	euF, euP := NewEuler(h), NewEuler(p)
	if seP.Histogram() != p || euF.Histogram() != h {
		t.Fatal("histogram accessors diverge")
	}
	for trial := 0; trial < 400; trial++ {
		i1, j1 := r.Intn(nx), r.Intn(ny)
		q := spanOf(i1, j1, i1+r.Intn(nx-i1), j1+r.Intn(ny-j1))
		if seP.Estimate(q) != seF.Estimate(q) {
			t.Fatalf("SEuler diverges at %v", q)
		}
		if euP.Estimate(q) != euF.Estimate(q) {
			t.Fatalf("Euler diverges at %v", q)
		}
	}
	region := spanOf(0, 0, nx-1, ny-1)
	for _, tiling := range [][2]int{{1, 1}, {8, 8}, {12, 10}, {nx, ny}} {
		cols, rows := tiling[0], tiling[1]
		for _, pair := range [][2]Estimator{{seF, seP}, {euF, euP}} {
			want, err := EstimateGrid(pair[0], region, cols, rows)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EstimateGrid(pair[1], region, cols, rows)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s %dx%d: tile %d = %+v, want %+v",
						pair[0].Name(), cols, rows, k, got[k], want[k])
				}
			}
		}
	}
}

// TestMEulerMixedCellWidths reassembles M-EulerApprox over nested planes
// of different cell widths — what a set of planes looks like when one of
// them has outgrown 4 bytes — and checks that the stack is assembled at
// one width, the wide one, answering as the all-narrow estimator does.
func TestMEulerMixedCellWidths(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	nx, ny := 32, 32
	g := grid.NewUnit(nx, ny)
	areas := []float64{1, 16, 128}
	spans := randSpans(r, nx, ny, 240)
	builders := make([]*euler.Builder, len(areas))
	for i := range builders {
		builders[i] = euler.NewBuilder(g)
	}
	for _, s := range spans {
		for _, b := range builders[AreaGroup(areas, float64(s.Cells())):] {
			b.AddSpan(s)
		}
	}
	full := make([]*euler.Histogram, len(builders))
	for i, b := range builders {
		full[i] = b.Build()
	}
	mixed := slices.Clone(full)
	mixed[1] = widened(t, full[1])
	mF, err := MEulerFromHistograms(areas, full)
	if err != nil {
		t.Fatal(err)
	}
	mP, err := MEulerFromHistograms(areas, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if mP.Count() != mF.Count() || mP.StorageBuckets() != mF.StorageBuckets() {
		t.Fatal("reassembled MEuler metadata diverges")
	}
	for k, h := range mP.Histograms() {
		if h.CellWidth() != 8 {
			t.Fatalf("plane %d of a stack with one wide plane has %d-byte cells", k, h.CellWidth())
		}
	}
	if mixed[0].CellWidth() != 4 || mP.LatticeBytes() != 2*mF.LatticeBytes() {
		t.Fatalf("LatticeBytes = %d with one of three planes widened, %d all narrow", mP.LatticeBytes(), mF.LatticeBytes())
	}
	for trial := 0; trial < 300; trial++ {
		i1, j1 := r.Intn(nx), r.Intn(ny)
		q := spanOf(i1, j1, i1+r.Intn(nx-i1), j1+r.Intn(ny-j1))
		if mP.Estimate(q) != mF.Estimate(q) {
			t.Fatalf("MEuler diverges at %v", q)
		}
	}
	region := spanOf(0, 0, nx-1, ny-1)
	want, err := EstimateGrid(mF, region, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EstimateGrid(mP, region, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("MEuler batch tile %d diverges", k)
		}
	}
}

// TestStackOfMixedWidthsIsRefused: the planes of a stack share C_m's cell
// width (MEulerFromHistograms widens them all together). A stack put
// together otherwise gets an error from the sweep, not a panic or another
// plane's rows.
func TestStackOfMixedWidthsIsRefused(t *testing.T) {
	g := grid.NewUnit(8, 8)
	b := euler.NewBuilder(g)
	for _, s := range randSpans(rand.New(rand.NewSource(7)), 8, 8, 20) {
		b.AddSpan(s)
	}
	narrow := b.Build()
	wide := widened(t, narrow)
	region := grid.Span{I1: 0, J1: 0, I2: 7, J2: 7}
	for i, st := range []stack{
		newStack(narrow, wide, nil),
		newStack(narrow, narrow, wide),
		newStack(wide, narrow, narrow),
	} {
		if err := st.addGrid(make([]Estimate, 4), region, 2, 2); err == nil {
			t.Errorf("stack %d of mixed cell widths swept without an error", i)
		}
	}
}
