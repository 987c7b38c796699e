package euler

import (
	"math/rand"
	"runtime"
	"testing"

	"spatialhist/internal/grid"
)

// rebuildHarness drives the steady-state publish loop of a live store in
// miniature: a seeded builder, a ring of "hot" objects being moved inside
// a bounded region, and the retired-generation scratch ping-pong that the
// live arena performs.
type rebuildHarness struct {
	bld          *Builder
	r            *rand.Rand
	hot          []grid.Span
	prev         *Histogram
	scratch      *Histogram
	stale        DirtyRegion
	hotLo, hotHi int
}

func hotSpan(r *rand.Rand, lo, hi int) grid.Span {
	i1 := lo + r.Intn(hi-lo+1)
	i2 := min(i1+r.Intn(4), hi)
	j1 := lo + r.Intn(hi-lo+1)
	j2 := min(j1+r.Intn(4), hi)
	return grid.Span{I1: i1, J1: j1, I2: i2, J2: j2}
}

// newRebuildHarness seeds an n×n grid with objects spread over the whole
// space plus hotCount objects inside the hot cell range [hotLo..hotHi]²,
// the region each benchmark iteration mutates.
func newRebuildHarness(n, objects, hotLo, hotHi, hotCount int) *rebuildHarness {
	r := rand.New(rand.NewSource(97))
	g := grid.NewUnit(n, n)
	bld := NewBuilder(g)
	for k := 0; k < objects; k++ {
		i1, j1 := r.Intn(n), r.Intn(n)
		bld.AddSpan(grid.Span{I1: i1, J1: j1, I2: min(i1+r.Intn(8), n-1), J2: min(j1+r.Intn(8), n-1)})
	}
	h := &rebuildHarness{bld: bld, r: r, hotLo: hotLo, hotHi: hotHi, stale: EmptyRegion()}
	for k := 0; k < hotCount; k++ {
		s := hotSpan(r, hotLo, hotHi)
		bld.AddSpan(s)
		h.hot = append(h.hot, s)
	}
	h.prev = bld.Build()
	return h
}

// mutate moves every hot object: one remove plus one add, all inside the
// hot region, leaving the object count unchanged (the balanced-churn shape
// that keeps the prefix-repair quadrant untouched).
func (h *rebuildHarness) mutate() {
	for i, s := range h.hot {
		h.bld.RemoveSpan(s)
		ns := hotSpan(h.r, h.hotLo, h.hotHi)
		h.bld.AddSpan(ns)
		h.hot[i] = ns
	}
}

// publishIncremental publishes via BuildFrom with the retired-generation
// scratch ping-pong.
func (h *rebuildHarness) publishIncremental(crossover float64) BuildStats {
	nh, stats := h.bld.BuildFrom(h.prev, BuildFromOpts{Scratch: h.scratch, Stale: h.stale, Crossover: crossover})
	if nh != h.prev {
		h.scratch, h.stale = h.prev, stats.Dirty
		h.prev = nh
	}
	return stats
}

// The hot cell range [460..561] spans lattice box [920..1122]², 203²
// buckets = 0.98% of the 2047² lattice — the ≤1% dirty region of the
// acceptance criteria.
const (
	benchGridN = 1024
	benchHotLo = 460
	benchHotHi = 561
)

// BenchmarkRebuildFull is the PR 3 publish path: every generation pays a
// full O(lattice) Build with fresh allocations, however small the change.
func BenchmarkRebuildFull(b *testing.B) {
	h := newRebuildHarness(benchGridN, 200_000, benchHotLo, benchHotHi, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.mutate()
		h.prev = h.bld.Build()
	}
}

// BenchmarkRebuildIncremental is the same workload published through
// BuildFrom: dirty-region repair on recycled generation buffers.
func BenchmarkRebuildIncremental(b *testing.B) {
	h := newRebuildHarness(benchGridN, 200_000, benchHotLo, benchHotHi, 64)
	// Reach the steady state (scratch ping-pong established) before timing.
	for i := 0; i < 2; i++ {
		h.mutate()
		h.publishIncremental(-1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.mutate()
		if stats := h.publishIncremental(-1); !stats.Incremental {
			b.Fatal("expected the incremental path")
		}
	}
}

// BenchmarkCrossover measures incremental repair against a full in-place
// rebuild across dirty fractions — the data behind DefaultCrossover. The
// sub-benchmark name carries the repair-cost fraction repairCost/3·lattice
// that BuildFrom's policy actually compares against.
func BenchmarkCrossover(b *testing.B) {
	for _, hot := range []struct {
		name   string
		lo, hi int
	}{
		{"dirty3pct", 400, 577},  // box 355² ≈ 3% of lattice
		{"dirty10pct", 350, 673}, // box 647² ≈ 10%
		{"dirty25pct", 250, 761}, // box 1023² ≈ 25%
		{"dirty50pct", 150, 873}, // box 1447² ≈ 50%
		{"dirty80pct", 50, 965},  // box 1831² ≈ 80%
	} {
		h := newRebuildHarness(benchGridN, 200_000, hot.lo, hot.hi, 64)
		for i := 0; i < 2; i++ {
			h.mutate()
			h.publishIncremental(-1)
		}
		b.Run(hot.name+"/incremental", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.mutate()
				h.publishIncremental(-1)
			}
		})
		b.Run(hot.name+"/full", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.mutate()
				// Full rebuild into the recycled buffers, forced via a
				// vanishingly small crossover bound.
				nh, stats := h.bld.BuildFrom(h.prev, BuildFromOpts{Scratch: h.scratch, Stale: h.stale, Crossover: 1e-12})
				if nh != h.prev {
					h.scratch, h.stale = h.prev, stats.Dirty
					h.prev = nh
				}
			}
		})
	}
}

// TestIncrementalRebuildAllocs is the steady-state allocation regression
// gate: publishing a small dirty region through the scratch ping-pong must
// allocate O(dirty) — the delta buffer and a few descriptors — not
// O(lattice). The lattice arrays here are 2047²×4 B ≈ 17 MB each; the
// asserted ceilings are ~3 orders of magnitude below one of them.
func TestIncrementalRebuildAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on a 1024×1024 grid")
	}
	h := newRebuildHarness(benchGridN, 50_000, benchHotLo, benchHotHi, 16)
	for i := 0; i < 2; i++ {
		h.mutate()
		h.publishIncremental(-1)
	}
	allocs := testing.AllocsPerRun(5, func() {
		h.mutate()
		if stats := h.publishIncremental(-1); !stats.Incremental {
			t.Fatal("expected the incremental path")
		}
	})
	if allocs > 20 {
		t.Errorf("steady-state incremental publish made %.0f allocations, want ≤ 20", allocs)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h.mutate()
	h.publishIncremental(-1)
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	// The repair box is ≤ 203² buckets; its delta buffer is ≤ 330 KB. A
	// lattice-sized allocation would be ≥ 17 MB.
	if bytes > 2<<20 {
		t.Errorf("steady-state incremental publish allocated %d bytes, want O(dirty) (< 2 MB)", bytes)
	}
}
