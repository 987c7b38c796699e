package euler

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/grid"
	"spatialhist/internal/prefixsum"
)

// The cumulative plane has two cell widths and one implementation. These
// tests pin where the width is decided — in the builder, from its count of
// updates; in Read and BuilderFromHistogram, from the values themselves —
// and what happens when a lattice stops fitting. The narrow limit is
// lowered so a few hundred objects stand in for two billion.

func TestDefaultBuildIsNarrow(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	h, _ := buildRandom(r, 64, 64, 500)
	if h.CellWidth() != 4 || h.LatticeBytes() != 4*127*127 {
		t.Fatalf("default build: %d-byte cells, %d lattice bytes, want 4 and %d", h.CellWidth(), h.LatticeBytes(), 4*127*127)
	}
	if p, ok := h.Pack(); !ok || p != h {
		t.Fatal("Pack of a narrow histogram should return it")
	}
	w := h.Unpack()
	if w.CellWidth() != 8 || w.LatticeBytes() != 8*127*127 {
		t.Fatalf("Unpack: %d-byte cells, %d lattice bytes", w.CellWidth(), w.LatticeBytes())
	}
	if w.Unpack() != w {
		t.Fatal("Unpack of a wide histogram should return it")
	}
	assertIdentical(t, h, w)
	p, ok := w.Pack()
	if !ok || p.CellWidth() != 4 {
		t.Fatal("Pack refused a 500-object histogram")
	}
	assertIdentical(t, h, p)
}

// TestWidthsAnswerIdentically runs one builder script narrow and wide and
// compares everything a histogram can be asked, and the bytes it writes.
func TestWidthsAnswerIdentically(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {3, 7}, {24, 12}, {40, 64}} {
		nx, ny := dim[0], dim[1]
		build := func() *Histogram {
			h, _ := buildRandom(rand.New(rand.NewSource(91)), nx, ny, 150)
			return h
		}
		narrow := build()
		restore := LowerNarrowLimit(100)
		wide := build()
		restore()
		if narrow.CellWidth() != 4 || wide.CellWidth() != 8 {
			t.Fatalf("%dx%d: built %d- and %d-byte cells, want 4 and 8", nx, ny, narrow.CellWidth(), wide.CellWidth())
		}
		assertIdentical(t, narrow, wide)
		requireHistEqual(t, "wide vs narrow", wide, narrow)
		if wide.StorageBuckets() != narrow.StorageBuckets() || 2*narrow.LatticeBytes() != wide.LatticeBytes() {
			t.Fatalf("%dx%d: %d buckets in %d bytes narrow, %d in %d wide", nx, ny,
				narrow.StorageBuckets(), narrow.LatticeBytes(), wide.StorageBuckets(), wide.LatticeBytes())
		}
		r := rand.New(rand.NewSource(92))
		for trial := 0; trial < 300; trial++ {
			q := randQuery(r, nx, ny)
			if narrow.InsideSum(q) != wide.InsideSum(q) || narrow.ClosedSum(q) != wide.ClosedSum(q) ||
				narrow.OutsideSum(q) != wide.OutsideSum(q) || narrow.ContainedIn(q) != wide.ContainedIn(q) ||
				narrow.NaiveInsideSum(q) != wide.NaiveInsideSum(q) {
				t.Fatalf("%dx%d: sums diverge at %v", nx, ny, q)
			}
		}
		lx, ly := narrow.Buckets()
		for trial := 0; trial < 100; trial++ {
			u1, v1 := r.Intn(lx)-1, r.Intn(ly)-1
			u2, v2 := u1+r.Intn(lx), v1+r.Intn(ly)
			if narrow.LatticeSum(u1, v1, u2, v2) != wide.LatticeSum(u1, v1, u2, v2) {
				t.Fatalf("%dx%d: LatticeSum(%d,%d,%d,%d) diverges", nx, ny, u1, v1, u2, v2)
			}
		}
		g := narrow.Grid()
		for trial := 0; trial < 20; trial++ {
			region, cols, rows := gen.Tiling(r, g)
			want, err := narrow.GridQuerySums(region, cols, rows)
			if err != nil {
				t.Fatal(err)
			}
			got, err := wide.GridQuerySums(region, cols, rows)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want.Inside {
				if got.Inside[k] != want.Inside[k] || got.Closed[k] != want.Closed[k] {
					t.Fatalf("%dx%d: %dx%d sweep of %v diverges at tile %d", nx, ny, cols, rows, region, k)
				}
			}
		}
		var nb, wb bytes.Buffer
		if err := narrow.Write(&nb); err != nil {
			t.Fatal(err)
		}
		if err := wide.Write(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(nb.Bytes(), wb.Bytes()) {
			t.Fatalf("%dx%d: file bytes depend on the cell width", nx, ny)
		}
	}
}

// TestGoldenFilesAtBothWidths: the golden files read back narrow, and the
// same histograms built wide write the same bytes — the formats do not know
// the resident width.
func TestGoldenFilesAtBothWidths(t *testing.T) {
	narrow := goldenCases()
	restore := LowerNarrowLimit(50)
	wide := goldenCases()
	restore()
	for i, c := range narrow {
		if c.h.CellWidth() != 4 || wide[i].h.CellWidth() != 8 {
			t.Fatalf("%s: built %d- and %d-byte cells, want 4 and 8", c.name, c.h.CellWidth(), wide[i].h.CellWidth())
		}
		var nb, wb bytes.Buffer
		if err := c.h.Write(&nb); err != nil {
			t.Fatal(err)
		}
		if err := wide[i].h.Write(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(nb.Bytes(), wb.Bytes()) {
			t.Errorf("%s: the wide build writes different bytes", c.name)
		}
		got, err := Read(bytes.NewReader(nb.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.CellWidth() != 4 {
			t.Errorf("%s: read back at %d-byte cells, want 4", c.name, got.CellWidth())
		}
	}
}

// TestBuilderWidensAtTheLimit crosses the limit mid-life: the generation
// that no longer fits is rebuilt wide — the donated narrow scratch refused,
// not refilled — bit-identical to a fresh build, and the wide generations
// after it repair incrementally and recycle scratch again.
func TestBuilderWidensAtTheLimit(t *testing.T) {
	const limit = 200
	defer LowerNarrowLimit(limit)()
	r := rand.New(rand.NewSource(95))
	g := grid.NewUnit(32, 32)
	b := NewBuilder(g)
	var present []grid.Span
	add := func(n int, draw func(*rand.Rand, *grid.Grid) grid.Span) {
		for k := 0; k < n; k++ {
			s := draw(r, g)
			b.AddSpan(s)
			present = append(present, s)
		}
	}

	add(limit-20, randSpan)
	gen0 := b.Build()
	add(10, localSpan)
	gen1, stats := b.BuildFrom(gen0, BuildFromOpts{})
	if gen0.CellWidth() != 4 || gen1.CellWidth() != 4 || !stats.Incremental {
		t.Fatalf("below the limit: %d/%d-byte cells, incremental %v", gen0.CellWidth(), gen1.CellWidth(), stats.Incremental)
	}

	// The update that takes the count of updates to limit+1 widens the
	// builder; the next publish cannot repair gen1 or refill gen0.
	add(11, randSpan)
	if b.d32 != nil || b.bound != limit+1 {
		t.Fatalf("after %d updates: narrow=%v bound=%d", limit+1, b.d32 != nil, b.bound)
	}
	gen0Addr := planeAddr(gen0)
	gen2, stats := b.BuildFrom(gen1, BuildFromOpts{Scratch: gen0, Stale: stats.Dirty})
	if gen2.CellWidth() != 8 || stats.Incremental {
		t.Fatalf("crossing publish: %d-byte cells, incremental %v", gen2.CellWidth(), stats.Incremental)
	}
	if planeAddr(gen0) != gen0Addr {
		t.Fatal("the refused narrow scratch was taken apart")
	}
	assertIdentical(t, freshBuild(g, present), gen2)
	assertIdentical(t, gen0, freshBuild(g, present[:limit-20]))

	// Wide from here on: repair against gen2 — the narrow gen1 refused as
	// scratch — then recycle it.
	add(5, localSpan)
	gen3, stats3 := b.BuildFrom(gen2, BuildFromOpts{Scratch: gen1, Stale: stats.Dirty})
	if gen3.CellWidth() != 8 || !stats3.Incremental {
		t.Fatalf("first wide repair: %d-byte cells, incremental %v", gen3.CellWidth(), stats3.Incremental)
	}
	assertIdentical(t, freshBuild(g, present), gen3)
	add(5, localSpan)
	gen2Addr := planeAddr(gen2)
	gen4, stats4 := b.BuildFrom(gen3, BuildFromOpts{Scratch: gen2, Stale: stats3.Dirty})
	if !stats4.Incremental || planeAddr(gen4) != gen2Addr {
		t.Fatalf("wide scratch not recycled: incremental %v", stats4.Incremental)
	}
	assertIdentical(t, freshBuild(g, present), gen4)

	// The pyramid follows its base across the switch.
	opts := PyramidOpts{MaxLevels: 2, MinGrid: 2}
	donor := NewPyramid(gen1, opts)
	p := PyramidFrom(gen4, PyramidFromOpts{Opts: opts, Donor: donor, Stale: DirtyRegion{U2: 62, V2: 62}})
	if p.Levels() != 3 {
		t.Fatalf("%d levels, want 3", p.Levels())
	}
	for k := 1; k < p.Levels(); k++ {
		if p.Level(k).CellWidth() != 8 {
			t.Fatalf("level %d kept %d-byte cells over a wide base", k, p.Level(k).CellWidth())
		}
		requireHistEqual(t, "level across the switch", p.Level(k), freshCoarse(g, present, k))
	}
}

// TestForeignRemoveRoundTrips: removing a span that was never inserted
// drives buckets and prefix values negative. The histogram has no way to
// notice, but it must keep its values: narrow cells are signed, the bound
// counts the removals, and the file and the resumed builder reproduce it.
func TestForeignRemoveRoundTrips(t *testing.T) {
	for _, limit := range []int64{1 << 31, 40} {
		restore := LowerNarrowLimit(limit - 1)
		g := grid.NewUnit(12, 10)
		b := NewBuilder(g)
		for k := 0; k < 30; k++ {
			b.AddSpan(spanOf(8, 6, 11, 9))
		}
		for k := 0; k < 25; k++ {
			if !b.RemoveSpan(spanOf(0, 0, 5, 4)) {
				t.Fatal("foreign remove refused")
			}
		}
		h := b.Build()
		wantWidth := 4
		if limit == 40 {
			wantWidth = 8 // 55 updates
		}
		if h.CellWidth() != wantWidth || h.Bucket(2, 2) != -25 || h.InsideSum(spanOf(0, 0, 5, 4)) != -25 || h.Total() != 5 {
			t.Fatalf("limit %d: %d-byte cells, bucket %d, inside %d, total %d", limit,
				h.CellWidth(), h.Bucket(2, 2), h.InsideSum(spanOf(0, 0, 5, 4)), h.Total())
		}
		var buf bytes.Buffer
		if err := h.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		// Values reach −25 and +5: inside a limit of 39, so the file reads
		// back narrow even where the builder had widened on its update count.
		if got.CellWidth() != 4 {
			t.Fatalf("limit %d: read back at %d-byte cells", limit, got.CellWidth())
		}
		assertIdentical(t, h, got)
		rb := BuilderFromHistogram(got)
		assertIdentical(t, h, rb.Build())
		rb.AddSpan(spanOf(0, 0, 5, 4))
		b.AddSpan(spanOf(0, 0, 5, 4))
		assertIdentical(t, b.Build(), rb.Build())
		restore()
	}
}

// TestReadWidensWhatDoesNotFit: a file is read back at the width its values
// need, decided value by value, whatever its own bucket width.
func TestReadWidensWhatDoesNotFit(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	h, _ := buildRandom(r, 20, 16, 300)
	for name, file := range map[string]func(*bytes.Buffer) error{
		"SPHEUL02 at 4 bytes": func(b *bytes.Buffer) error { return h.Write(b) },
		"SPHEUL01 at 8 bytes": func(b *bytes.Buffer) error { return writeSPHEUL01(h, b) },
	} {
		var buf bytes.Buffer
		if err := file(&buf); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			limit int64
			width int
		}{{300, 4}, {299, 8}, {7, 8}} {
			restore := LowerNarrowLimit(tc.limit)
			got, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got.CellWidth() != tc.width {
				t.Fatalf("%s at limit %d: %d-byte cells, want %d", name, tc.limit, got.CellWidth(), tc.width)
			}
			assertIdentical(t, h, got)
			// The resumed builder takes the plane's width and the values'
			// reach as its bound: at limit 300 the next update is the one
			// that no longer fits; the wide ones repair what they resumed.
			b := BuilderFromHistogram(got)
			if (b.d32 != nil) != (tc.width == 4) || b.bound != 300 {
				t.Fatalf("%s at limit %d: resumed narrow=%v with bound %d", name, tc.limit, b.d32 != nil, b.bound)
			}
			b.AddSpan(spanOf(1, 1, 2, 2))
			next, stats := b.BuildFrom(got, BuildFromOpts{})
			if next.CellWidth() != 8 || stats.Incremental != (tc.width == 8) {
				t.Fatalf("%s at limit %d: next publish has %d-byte cells, incremental %v", name, tc.limit, next.CellWidth(), stats.Incremental)
			}
			restore()
		}
	}
}

// TestResumeChecksDifferenceEntries: a narrow plane can hide difference
// entries that do not fit — prefix values within the limit whose second
// differences are not. The resumed builder goes wide rather than truncate.
func TestResumeChecksDifferenceEntries(t *testing.T) {
	defer LowerNarrowLimit(10)()
	// A 2×1 grid: face, edge, face. Raw counts 10, 20, 0 — more objects on
	// the edge than on either face, as only foreign removes leave behind —
	// have prefix values 10, −10, −10 and a difference entry of −20.
	g := grid.NewUnit(2, 1)
	wide := &Histogram{g: g, lx: 3, ly: 1, hc: prefixsum.NewSum2D([]int64{10, -20, 0}, 3, 1), n: -10}
	narrow, ok := wide.Pack()
	if !ok || narrow.hc.MaxMagnitude() > 10 {
		t.Fatalf("test plane: packed %v, reach %d, meant to stay within the limit", ok, narrow.hc.MaxMagnitude())
	}
	b := BuilderFromHistogram(narrow)
	if b.d32 != nil || b.bound != 19 {
		t.Fatalf("resumed narrow=%v with bound %d over a limit of 10", b.d32 != nil, b.bound)
	}
	assertIdentical(t, wide, b.Build())
}

// TestFinishEqualsBuildAtBothWidths: Finish, which turns the builder's own
// difference array into the plane, builds the bytes, count and cell width
// Build builds from the same script — narrow, and past a lowered narrow
// limit where the builder went wide — and its plane is that array.
func TestFinishEqualsBuildAtBothWidths(t *testing.T) {
	defer LowerNarrowLimit(100)()
	written := func(h *Histogram) []byte {
		var buf bytes.Buffer
		if err := h.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// run plays n random adds (every fifth followed by its removal, every
	// seventh an object outside the space) into b.
	run := func(b *Builder, seed int64, n int) {
		g := b.Grid()
		r := rand.New(rand.NewSource(seed))
		for k := 0; k < n; k++ {
			s := randSpan(r, g)
			b.AddSpan(s)
			if k%5 == 4 {
				b.RemoveSpan(s)
			}
			if k%7 == 6 {
				b.Add(g.SpanRect(s).Translate(1000, 1000))
			}
		}
	}
	for _, tc := range []struct {
		nx, ny, n int
		width     int
	}{{24, 20, 0, 4}, {24, 20, 40, 4}, {24, 20, 150, 8}, {1, 1, 150, 8}, {31, 7, 60, 4}} {
		t.Run(fmt.Sprintf("%dx%d/%d objects", tc.nx, tc.ny, tc.n), func(t *testing.T) {
			g := grid.NewUnit(tc.nx, tc.ny)
			built, finished := NewBuilder(g), NewBuilder(g)
			run(built, int64(300+tc.n), tc.n)
			run(finished, int64(300+tc.n), tc.n)
			var own any
			if finished.d32 != nil {
				own = &finished.d32[0]
			} else {
				own = &finished.d64[0]
			}
			want, got := built.Build(), finished.Finish()
			if got.CellWidth() != tc.width || want.CellWidth() != tc.width {
				t.Fatalf("Finish built %d B/bucket, Build %d, want %d", got.CellWidth(), want.CellWidth(), tc.width)
			}
			assertIdentical(t, want, got)
			if !bytes.Equal(written(got), written(want)) {
				t.Fatal("Write bytes differ from Build's")
			}
			if planeAddr(got) != own {
				t.Fatal("Finish's plane is not the builder's difference array")
			}
			if finished.d32 != nil || finished.d64 != nil {
				t.Fatal("Finish left the builder holding the plane's array")
			}
		})
	}
}

// TestMergeIsAddingEachObject: a builder that merged another holds what one
// builder fed both builders' updates holds — the same count, bound, cell
// width and dirty box, and a bit-identical build — narrow, past a lowered
// limit, and with either side alone wide. Widen then keeps the values and
// marks the whole lattice dirty, so BuildFrom rebuilds at 8 bytes.
func TestMergeIsAddingEachObject(t *testing.T) {
	defer LowerNarrowLimit(100)()
	g := grid.NewUnit(24, 20)
	for _, tc := range []struct {
		na, nb, width int
	}{{30, 40, 4}, {60, 60, 8}, {150, 10, 8}, {10, 150, 8}} {
		t.Run(fmt.Sprintf("%d+%d updates", tc.na, tc.nb), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(tc.na*1000 + tc.nb)))
			a, b, both := NewBuilder(g), NewBuilder(g), NewBuilder(g)
			for k := 0; k < tc.na+tc.nb; k++ {
				into := a
				if k >= tc.na {
					into = b
				}
				s := randSpan(r, g)
				into.AddSpan(s)
				both.AddSpan(s)
				if k%5 == 4 {
					into.RemoveSpan(s)
					both.RemoveSpan(s)
				}
			}
			a.Merge(b)
			if a.n != both.n || a.bound != both.bound || a.CellWidth() != tc.width || both.CellWidth() != tc.width || a.Dirty() != both.Dirty() {
				t.Fatalf("merged: %d objects, bound %d, %d B/cell, dirty %v; one builder: %d, %d, %d, %v (want %d B/cell)",
					a.n, a.bound, a.CellWidth(), a.Dirty(), both.n, both.bound, both.CellWidth(), both.Dirty(), tc.width)
			}
			prev := both.Build()
			assertIdentical(t, prev, a.Build())
			if tc.width == 4 {
				both.Widen()
				h, stats := both.BuildFrom(prev, BuildFromOpts{})
				if h.CellWidth() != 8 || stats.Incremental || stats.DirtyFrac != 1 {
					t.Fatalf("after Widen: %d B/cell, %+v", h.CellWidth(), stats)
				}
				assertIdentical(t, prev, h)
			}
		})
	}
}
