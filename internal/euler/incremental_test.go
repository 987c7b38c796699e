package euler

import (
	"math/rand"
	"slices"
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

// applyScript drives a builder and a shadow span multiset through a random
// add/remove script, adding spans drawn by draw, and returns the spans
// currently present.
func applyScript(r *rand.Rand, b *Builder, present []grid.Span, ops int, draw func(*rand.Rand, *grid.Grid) grid.Span) []grid.Span {
	for k := 0; k < ops; k++ {
		if len(present) > 0 && r.Intn(3) == 0 {
			i := r.Intn(len(present))
			if b.RemoveSpan(present[i]) {
				present[i] = present[len(present)-1]
				present = present[:len(present)-1]
			}
		} else {
			s := draw(r, b.Grid())
			b.AddSpan(s)
			present = append(present, s)
		}
	}
	return present
}

// localSpan draws a span of at most three cells a side starting in the
// first quarter of the grid: the localized churn repair is for.
func localSpan(r *rand.Rand, g *grid.Grid) grid.Span {
	i1, j1 := r.Intn(max(g.NX()/4, 1)), r.Intn(max(g.NY()/4, 1))
	return spanOf(i1, j1, min(i1+r.Intn(3), g.NX()-1), min(j1+r.Intn(3), g.NY()-1))
}

// strategy is how a test publishes: through BuildFrom's own choice, or with
// one of its two strategies forced whatever the data say — for tests and
// benchmarks about one strategy's arithmetic, or its price, over boxes the
// policy would send the other way.
type strategy string

const (
	byPolicy   strategy = "policy"
	repairOnly strategy = "repair"
	fullOnly   strategy = "full"
)

// publish is BuildFrom under strategy s. A forced strategy expects a
// donated scratch to fit and prev to have the builder's cell width.
func (s strategy) publish(b *Builder, prev *Histogram, opts BuildFromOpts) (*Histogram, BuildStats) {
	r := b.dirty
	if opts.Scratch != nil {
		r = r.Union(opts.Stale)
	}
	if s == byPolicy || prev == nil || r.Empty() {
		return b.BuildFrom(prev, opts)
	}
	stats := BuildStats{Incremental: s == repairOnly, Dirty: r, DirtyFrac: float64(r.Area()) / float64(b.lx*b.ly)}
	if s == repairOnly {
		return b.repair(prev, opts.Scratch, r), stats
	}
	return b.buildInto(opts.Scratch), stats
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
	var repaired, rebuilt int
	for trial := 0; trial < 30; trial++ {
		g := grid.NewUnit(1+r.Intn(30), 1+r.Intn(30))
		b := NewBuilder(g)
		var present []grid.Span
		present = applyScript(r, b, present, 30, randSpan)
		prev := b.Build()
		draw := []func(*rand.Rand, *grid.Grid) grid.Span{localSpan, randSpan}[trial%2]
		for round := 0; round < 4; round++ {
			present = applyScript(r, b, present, 1+r.Intn(10), draw)
			h, stats := b.BuildFrom(prev, BuildFromOpts{})
			assertIdentical(t, freshBuild(g, present), h)
			if !b.Dirty().Empty() {
				t.Fatal("BuildFrom did not reset the dirty region")
			}
			if h != prev && stats.Incremental {
				repaired++
			} else if h != prev {
				rebuilt++
			}
			prev = h
		}
	}
	if repaired == 0 || rebuilt == 0 {
		t.Fatalf("%d repairs and %d full rebuilds: the scripts missed a strategy", repaired, rebuilt)
	}
}

// TestBuildFromPolicy: the strategy follows the data. On a 64×64 grid a
// batch of small spans repairs, wherever it lands and whether or not it
// changes the object count — near the origin the prefix-delta quadrant a
// count change shifts is nearly the whole lattice, and that is one constant
// add per cell, not a reason to rebuild — while spans scattered to the
// corners rebuild in full.
func TestBuildFromPolicy(t *testing.T) {
	g := grid.NewUnit(64, 64)
	r := rand.New(rand.NewSource(34))
	b := NewBuilder(g)
	var present []grid.Span
	present = applyScript(r, b, present, 400, randSpan)
	prev := b.Build()
	for _, tc := range []struct {
		name        string
		add, remove []grid.Span
		incremental bool
	}{
		{"net inserts near the origin", []grid.Span{spanOf(2, 2, 4, 3), spanOf(3, 4, 5, 5), spanOf(2, 3, 2, 3)}, nil, true},
		{"balanced churn near the origin", []grid.Span{spanOf(4, 2, 6, 3)}, []grid.Span{spanOf(3, 4, 5, 5)}, true},
		{"scattered to the corners", []grid.Span{spanOf(0, 0, 1, 1), spanOf(62, 62, 63, 63), spanOf(0, 63, 0, 63)}, nil, false},
	} {
		for _, s := range tc.add {
			b.AddSpan(s)
			present = append(present, s)
		}
		for _, s := range tc.remove {
			b.RemoveSpan(s)
			present = slices.Delete(present, slices.Index(present, s), slices.Index(present, s)+1)
		}
		h, stats := b.BuildFrom(prev, BuildFromOpts{})
		if stats.Incremental != tc.incremental {
			t.Errorf("%s: incremental %v over %+v, want %v", tc.name, stats.Incremental, stats.Dirty, tc.incremental)
		}
		assertIdentical(t, freshBuild(g, present), h)
		prev = h
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
	seed := applyScript(r, b, nil, 40, randSpan)
	prev := b.Build()
	// The churn after the seed is localized — small spans added and taken
	// away near one corner, each round in a window of its own so that a
	// scratch's stale box is not inside the round's dirty box — so every
	// publish repairs.
	var local []grid.Span
	fresh := func() *Histogram { return freshBuild(g, append(slices.Clone(seed), local...)) }
	window := func(i0, j0 int) func(*rand.Rand, *grid.Grid) grid.Span {
		return func(r *rand.Rand, g *grid.Grid) grid.Span {
			i1, j1 := i0+r.Intn(3), j0+r.Intn(3)
			return spanOf(i1, j1, i1+r.Intn(2), j1+r.Intn(2))
		}
	}

	// Retire a snapshot to serve as scratch, then track the damage it
	// accumulates relative to each published generation, the way the live
	// arena does.
	local = applyScript(r, b, local, 8, window(0, 0))
	gen1, stats1 := b.BuildFrom(prev, BuildFromOpts{})
	assertIdentical(t, fresh(), gen1)

	// prev is now retired; its content lags gen1 by stats1.Dirty.
	stale := stats1.Dirty
	local = applyScript(r, b, local, 8, window(4, 4))
	gen2, stats2 := b.BuildFrom(gen1, BuildFromOpts{Scratch: prev, Stale: stale})
	assertIdentical(t, fresh(), gen2)
	if !stats1.Incremental || !stats2.Incremental {
		t.Fatalf("localized churn rebuilt in full: %+v, %+v", stats1, stats2)
	}
	if planeAddr(gen2) != planeAddr(prev) {
		t.Fatal("BuildFrom did not reuse the scratch array")
	}

	// Next cycle: gen1 is retired, stale vs gen2 is stats2.Dirty.
	local = applyScript(r, b, local, 8, window(0, 4))
	gen3, _ := b.BuildFrom(gen2, BuildFromOpts{Scratch: gen1, Stale: stats2.Dirty})
	assertIdentical(t, fresh(), gen3)
	if planeAddr(gen3) != planeAddr(gen1) {
		t.Fatal("BuildFrom did not reuse the second scratch array")
	}
}

// TestBuildFromWholeStaleRebuildsIntoScratch: a scratch whose stale box is
// the whole lattice — the worst case a long-lived lease accumulates — makes
// repair a pass over everything, so the policy rebuilds in full, into the
// scratch's array, however small the round's own change.
func TestBuildFromWholeStaleRebuildsIntoScratch(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	g := grid.NewUnit(30, 30)
	b := NewBuilder(g)
	var present []grid.Span
	present = applyScript(r, b, present, 60, randSpan)
	scratch := b.Build()
	present = applyScript(r, b, present, 40, randSpan)
	prev := b.Build()
	stale := DirtyRegion{U1: 0, V1: 0, U2: 2*30 - 2, V2: 2*30 - 2}
	s := spanOf(2, 3, 4, 5)
	b.AddSpan(s)
	present = append(present, s)

	addr := planeAddr(scratch)
	h, stats := b.BuildFrom(prev, BuildFromOpts{Scratch: scratch, Stale: stale})
	assertIdentical(t, freshBuild(g, present), h)
	if stats.Incremental || stats.Dirty != stale {
		t.Fatalf("want a full rebuild reporting the stale union, got %+v", stats)
	}
	if planeAddr(h) != addr {
		t.Fatal("the full rebuild did not refill the scratch array")
	}
}

// TestBuildFromRefusedScratchStale: a scratch the builder cannot use — a
// narrow plane once the builder has gone wide — is refused with its stale
// box, so a long-retired narrow lease does not push a small wide repair
// into a full rebuild, and Dirty reports only what the round changed.
func TestBuildFromRefusedScratchStale(t *testing.T) {
	defer LowerNarrowLimit(50)()
	g := grid.NewUnit(32, 32)
	r := rand.New(rand.NewSource(46))
	b := NewBuilder(g)
	var present []grid.Span
	present = applyScript(r, b, present, 50, randSpan)
	narrow := b.Build()
	s := spanOf(9, 9, 10, 10)
	b.AddSpan(s) // update 51 widens the builder
	present = append(present, s)
	prev := b.Build()
	if narrow.CellWidth() != 4 || prev.CellWidth() != 8 {
		t.Fatalf("cells %d and %d bytes, want 4 then 8", narrow.CellWidth(), prev.CellWidth())
	}
	s = spanOf(12, 12, 13, 12)
	b.AddSpan(s)
	present = append(present, s)
	addr := planeAddr(narrow)
	h, stats := b.BuildFrom(prev, BuildFromOpts{Scratch: narrow, Stale: DirtyRegion{U2: 62, V2: 62}})
	assertIdentical(t, freshBuild(g, present), h)
	if want := (DirtyRegion{U1: 24, V1: 24, U2: 26, V2: 24}); !stats.Incremental || stats.Dirty != want {
		t.Fatalf("got %+v, want a repair of %+v alone", stats, want)
	}
	if planeAddr(narrow) != addr {
		t.Fatal("the refused scratch was taken apart")
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
			h, stats := b.BuildFrom(prev, BuildFromOpts{Scratch: scratch, Stale: stale})
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
