package euler

import (
	"math/rand"
	"testing"

	"spatialhist/internal/grid"
	"spatialhist/internal/prefixsum"
)

// assertIdentical checks bit-identity of two histograms, whatever their
// cell widths: the whole cumulative plane (which determines every bucket
// and every sum) and the count.
func assertIdentical(t *testing.T, want, got *Histogram) {
	t.Helper()
	if want.lx != got.lx || want.ly != got.ly {
		t.Fatalf("lattice differs: %dx%d vs %dx%d", want.lx, want.ly, got.lx, got.ly)
	}
	if want.n != got.n {
		t.Fatalf("count = %d, want %d", got.n, want.n)
	}
	for u := 0; u < want.lx; u++ {
		for v := 0; v < want.ly; v++ {
			if g, w := got.hc.PrefixAt(u, v), want.hc.PrefixAt(u, v); g != w {
				t.Fatalf("cumulative(%d,%d) = %d, want %d", u, v, g, w)
			}
		}
	}
}

// planeAddr identifies a histogram's lattice array, for tests asserting
// that a donated buffer was (or was not) reused.
func planeAddr(h *Histogram) any {
	if h.hc.Narrow() {
		return &prefixsum.PlaneOf[int32](h.hc).Row(0)[0]
	}
	return &prefixsum.PlaneOf[int64](h.hc).Row(0)[0]
}

func randSpan(r *rand.Rand, g *grid.Grid) grid.Span {
	i1, j1 := r.Intn(g.NX()), r.Intn(g.NY())
	return spanOf(i1, j1, i1+r.Intn(g.NX()-i1), j1+r.Intn(g.NY()-j1))
}

func TestDirtyRegion(t *testing.T) {
	e := EmptyRegion()
	if !e.Empty() || e.Area() != 0 {
		t.Fatal("EmptyRegion not empty")
	}
	a := DirtyRegion{U1: 2, V1: 3, U2: 4, V2: 5}
	if got := e.Union(a); got != a {
		t.Fatalf("empty ∪ a = %+v, want %+v", got, a)
	}
	if got := a.Union(e); got != a {
		t.Fatalf("a ∪ empty = %+v, want %+v", got, a)
	}
	b := DirtyRegion{U1: 0, V1: 4, U2: 3, V2: 9}
	want := DirtyRegion{U1: 0, V1: 3, U2: 4, V2: 9}
	if got := a.Union(b); got != want {
		t.Fatalf("a ∪ b = %+v, want %+v", got, want)
	}
	if a.Area() != 9 {
		t.Fatalf("Area = %d, want 9", a.Area())
	}
}

func TestBuilderDirtyTracking(t *testing.T) {
	g := grid.NewUnit(8, 8)
	b := NewBuilder(g)
	if !b.Dirty().Empty() {
		t.Fatal("fresh builder has non-empty dirty region")
	}
	b.AddSpan(spanOf(1, 2, 3, 4))
	want := DirtyRegion{U1: 2, V1: 4, U2: 6, V2: 8}
	if b.Dirty() != want {
		t.Fatalf("dirty = %+v, want %+v", b.Dirty(), want)
	}
	b.RemoveSpan(spanOf(5, 0, 6, 1))
	want = DirtyRegion{U1: 2, V1: 0, U2: 12, V2: 8}
	if b.Dirty() != want {
		t.Fatalf("dirty after remove = %+v, want %+v", b.Dirty(), want)
	}
	b.Build()
	if !b.Dirty().Empty() {
		t.Fatal("Build did not reset the dirty region")
	}
	b.MarkDirty(want)
	if b.Dirty() != want {
		t.Fatalf("MarkDirty = %+v, want %+v", b.Dirty(), want)
	}
}

func TestBuildParallelMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, dim := range [][2]int{{1, 1}, {3, 17}, {40, 40}, {200, 130}} {
		g := grid.NewUnit(dim[0], dim[1])
		b := NewBuilder(g)
		for k := 0; k < 200; k++ {
			b.AddSpan(randSpan(r, g))
		}
		want := b.Build()
		for _, workers := range []int{2, 4, 9} {
			assertIdentical(t, want, b.BuildParallel(workers))
		}
	}
}

// applyScript drives a builder and a shadow span multiset through a random
// add/remove script and returns the spans currently present.
func applyScript(r *rand.Rand, b *Builder, present []grid.Span, ops int) []grid.Span {
	for k := 0; k < ops; k++ {
		if len(present) > 0 && r.Intn(3) == 0 {
			i := r.Intn(len(present))
			if b.RemoveSpan(present[i]) {
				present[i] = present[len(present)-1]
				present = present[:len(present)-1]
			}
		} else {
			s := randSpan(r, b.Grid())
			b.AddSpan(s)
			present = append(present, s)
		}
	}
	return present
}

func freshBuild(g *grid.Grid, present []grid.Span) *Histogram {
	fresh := NewBuilder(g)
	for _, s := range present {
		fresh.AddSpan(s)
	}
	return fresh.Build()
}

func TestBuildFromMatchesFreshBuild(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 30; trial++ {
		g := grid.NewUnit(1+r.Intn(30), 1+r.Intn(30))
		b := NewBuilder(g)
		var present []grid.Span
		present = applyScript(r, b, present, 30)
		prev := b.Build()
		crossover := []float64{-1, 0, 1}[trial%3] // always-repair, default, generous
		for round := 0; round < 4; round++ {
			present = applyScript(r, b, present, 1+r.Intn(10))
			h, stats := b.BuildFrom(prev, BuildFromOpts{Crossover: crossover})
			assertIdentical(t, freshBuild(g, present), h)
			if !b.Dirty().Empty() {
				t.Fatal("BuildFrom did not reset the dirty region")
			}
			if crossover < 0 && !stats.Incremental {
				t.Fatal("negative crossover must force the incremental path")
			}
			prev = h
		}
	}
}

func TestBuildFromEmptyDirtySharesPrev(t *testing.T) {
	g := grid.NewUnit(10, 10)
	b := NewBuilder(g)
	b.AddSpan(spanOf(1, 1, 4, 4))
	prev := b.Build()
	h, stats := b.BuildFrom(prev, BuildFromOpts{})
	if h != prev {
		t.Fatal("BuildFrom with no mutations must return prev itself")
	}
	if !stats.Incremental || stats.DirtyFrac != 0 {
		t.Fatalf("stats = %+v, want incremental with zero dirty fraction", stats)
	}
}

func TestBuildFromNilPrevIsFullBuild(t *testing.T) {
	g := grid.NewUnit(6, 6)
	b := NewBuilder(g)
	b.AddSpan(spanOf(0, 0, 5, 5))
	h, stats := b.BuildFrom(nil, BuildFromOpts{})
	if stats.Incremental {
		t.Fatal("nil prev cannot take the incremental path")
	}
	assertIdentical(t, freshBuild(g, []grid.Span{spanOf(0, 0, 5, 5)}), h)
}

func TestBuildFromScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	g := grid.NewUnit(25, 25)
	b := NewBuilder(g)
	var present []grid.Span
	present = applyScript(r, b, present, 40)
	prev := b.Build()

	// Retire a snapshot to serve as scratch, then track the damage it
	// accumulates relative to each published generation, the way the live
	// arena does.
	present = applyScript(r, b, present, 8)
	gen1, stats1 := b.BuildFrom(prev, BuildFromOpts{Crossover: -1})
	assertIdentical(t, freshBuild(g, present), gen1)

	// prev is now retired; its content lags gen1 by stats1.Dirty.
	stale := stats1.Dirty
	present = applyScript(r, b, present, 8)
	gen2, stats2 := b.BuildFrom(gen1, BuildFromOpts{Scratch: prev, Stale: stale, Crossover: -1})
	assertIdentical(t, freshBuild(g, present), gen2)
	if !stats2.Incremental {
		t.Fatal("scratch path should be incremental at crossover -1")
	}
	if planeAddr(gen2) != planeAddr(prev) {
		t.Fatal("BuildFrom did not reuse the scratch array")
	}

	// Next cycle: gen1 is retired, stale vs gen2 is stats2.Dirty.
	present = applyScript(r, b, present, 8)
	gen3, _ := b.BuildFrom(gen2, BuildFromOpts{Scratch: gen1, Stale: stats2.Dirty, Crossover: -1})
	assertIdentical(t, freshBuild(g, present), gen3)
	if planeAddr(gen3) != planeAddr(gen1) {
		t.Fatal("BuildFrom did not reuse the second scratch array")
	}
}

func TestAutoWorkers(t *testing.T) {
	if got := AutoWorkers(100, 100); got != 1 {
		t.Fatalf("tiny build: AutoWorkers = %d, want 1", got)
	}
	// A huge lattice must request parallel workers even with no objects —
	// the regression the policy fix is about. The cap is GOMAXPROCS, so
	// only assert when more than one core is available.
	if got := AutoWorkers(16<<20, 0); got == 1 && AutoWorkers(0, 10_000_000) > 1 {
		t.Fatalf("lattice-dominated build: AutoWorkers = %d, want > 1", got)
	}
}

// FuzzIncrementalRebuild drives a builder through an arbitrary interleaving
// of adds, removes and BuildFrom publishes and asserts every published
// histogram is bit-identical to a fresh rebuild from the surviving spans.
func FuzzIncrementalRebuild(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), []byte{0, 1, 2, 0xFF, 3, 0xFE})
	f.Add(int64(7), uint8(1), uint8(13), []byte{0xFF, 0xFF, 0, 0xFE, 0xFE})
	f.Add(int64(42), uint8(30), uint8(2), []byte{1, 1, 1, 0xFD, 2, 2, 0xFF})
	f.Fuzz(fuzzIncrementalRebuild)
}

// FuzzLowLimitIncrementalRebuild is FuzzIncrementalRebuild with the narrow
// limit lowered to a fuzzed handful of updates, so that scripts cross it:
// the builder widens mid-life, narrow scratch is refused, and the wide
// generations after it repair and recycle like the narrow ones before.
func FuzzLowLimitIncrementalRebuild(f *testing.F) {
	f.Add(uint8(3), int64(1), uint8(8), uint8(8), []byte{0, 1, 2, 0xFF, 3, 0xFF, 4, 0xFF, 5, 6, 0xFF, 0xFD, 0xFF})
	f.Add(uint8(0), int64(7), uint8(1), uint8(13), []byte{0xFF, 0xFF, 0, 0xFE, 0xFE, 1, 0xFF})
	f.Add(uint8(6), int64(42), uint8(30), uint8(2), []byte{1, 1, 1, 0xFD, 2, 2, 0xFF, 3, 3, 0xFF, 0xFD, 0xFF})
	f.Fuzz(func(t *testing.T, limit uint8, seed int64, nx, ny uint8, script []byte) {
		defer LowerNarrowLimit(int64(limit))()
		fuzzIncrementalRebuild(t, seed, nx, ny, script)
	})
}

func fuzzIncrementalRebuild(t *testing.T, seed int64, nx, ny uint8, script []byte) {
	if nx == 0 || ny == 0 || nx > 40 || ny > 40 {
		t.Skip()
	}
	r := rand.New(rand.NewSource(seed))
	g := grid.NewUnit(int(nx), int(ny))
	b := NewBuilder(g)
	var present []grid.Span
	var prev *Histogram
	var scratch *Histogram
	stale := EmptyRegion()
	for _, op := range script {
		switch {
		case op == 0xFF: // publish incrementally
			h, stats := b.BuildFrom(prev, BuildFromOpts{Scratch: scratch, Stale: stale, Crossover: 1})
			assertIdentical(t, freshBuild(g, present), h)
			if wide := b.d32 == nil; wide == h.hc.Narrow() && h != prev {
				t.Fatalf("builder wide=%v published a %d-byte-cell plane", wide, h.CellWidth())
			}
			if h != prev && prev != nil {
				// A real publish consumes any donated scratch and
				// retires prev, whose content lags h by exactly the
				// repaired region — the next cycle's scratch.
				scratch, stale = prev, stats.Dirty
			}
			prev = h
		case op == 0xFE: // full rebuild baseline
			prev = b.Build()
			scratch, stale = nil, EmptyRegion()
		case op == 0xFD && len(present) > 0: // remove
			i := r.Intn(len(present))
			if b.RemoveSpan(present[i]) {
				present[i] = present[len(present)-1]
				present = present[:len(present)-1]
			}
		default: // add
			s := randSpan(r, g)
			b.AddSpan(s)
			present = append(present, s)
		}
	}
	h, _ := b.BuildFrom(prev, BuildFromOpts{Scratch: scratch, Stale: stale})
	assertIdentical(t, freshBuild(g, present), h)
}

// TestBuildFromCopyRepair pins the copy-first strategy: a scratch whose
// stale region covers (nearly) the whole lattice is cheaper to refresh from
// prev — one CloneInto, reusing its buffer — than to repair, when
// the round's own dirty box is small.
func TestBuildFromCopyRepair(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	g := grid.NewUnit(30, 30)
	b := NewBuilder(g)
	var present []grid.Span
	present = applyScript(r, b, present, 60)
	scratch := b.Build()

	// Drift the builder far from the retired scratch: a full-lattice stale
	// box, the worst case a long-lived lease accumulates.
	present = applyScript(r, b, present, 40)
	prev := b.Build()
	stale := DirtyRegion{U1: 0, V1: 0, U2: 2*30 - 2, V2: 2*30 - 2}

	// One small mutation this round.
	s := spanOf(2, 3, 4, 5)
	b.AddSpan(s)
	present = append(present, s)

	h, stats := b.BuildFrom(prev, BuildFromOpts{Scratch: scratch, Stale: stale, Crossover: -1})
	assertIdentical(t, freshBuild(g, present), h)
	if !stats.Incremental || !stats.Copied {
		t.Fatalf("want copy-repair, got %+v", stats)
	}
	if planeAddr(h) != planeAddr(scratch) {
		t.Fatal("copy-repair did not reuse the scratch array")
	}
	// Dirty stays the conservative union — donor pyramids and retired
	// buffers may lag anywhere in it — even though only the small box was
	// arithmetically repaired.
	if stats.Dirty.Area() < stale.Area() {
		t.Fatalf("copy-repair must report the stale union, got %v", stats.Dirty)
	}

	// A small stale box must keep the plain repair path: copying the whole
	// lattice cannot beat repairing a few buckets. The new mutation lands
	// next to the stale box so the union stays small.
	scratch2 := prev
	prev = h
	s2 := spanOf(3, 4, 5, 6)
	b.AddSpan(s2)
	present = append(present, s2)
	// scratch2 (the retired prev) actually lags h by phase 1's mutation
	// alone: the lattice box of spanOf(2,3,4,5).
	smallStale := DirtyRegion{U1: 2 * 2, V1: 2 * 3, U2: 2 * 4, V2: 2 * 5}
	h2, stats2 := b.BuildFrom(prev, BuildFromOpts{Scratch: scratch2, Stale: smallStale, Crossover: -1})
	assertIdentical(t, freshBuild(g, present), h2)
	if !stats2.Incremental || stats2.Copied {
		t.Fatalf("want plain repair, got %+v", stats2)
	}
}

// TestBuildFromCopyRepairEmptyDirty covers the refresh-only corner: stale
// scratch, no mutations since prev. The union path would repair the whole
// stale box; copy-first just refreshes the buffers.
func TestBuildFromCopyRepairEmptyDirty(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	g := grid.NewUnit(20, 20)
	b := NewBuilder(g)
	var present []grid.Span
	present = applyScript(r, b, present, 50)
	scratch := b.Build()
	present = applyScript(r, b, present, 30)
	prev := b.Build()
	stale := DirtyRegion{U1: 0, V1: 0, U2: 2*20 - 2, V2: 2*20 - 2}

	h, stats := b.BuildFrom(prev, BuildFromOpts{Scratch: scratch, Stale: stale, Crossover: -1})
	assertIdentical(t, freshBuild(g, present), h)
	if !stats.Copied || stats.Dirty != stale {
		t.Fatalf("want refresh-only copy reporting the stale union, got %+v", stats)
	}
	if planeAddr(h) != planeAddr(scratch) {
		t.Fatal("refresh did not reuse the scratch array")
	}
}
