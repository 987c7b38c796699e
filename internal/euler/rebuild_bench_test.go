package euler

import (
	"fmt"
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
	h := seedHarness(n, n, objects)
	h.hotLo, h.hotHi = hotLo, hotHi
	for k := 0; k < hotCount; k++ {
		s := hotSpan(h.r, hotLo, hotHi)
		h.bld.AddSpan(s)
		h.hot = append(h.hot, s)
	}
	h.prev = h.bld.Build()
	return h
}

// seedHarness is a harness over an nx×ny grid seeded with objects of up to
// eight cells a side spread over the whole space, not yet built.
func seedHarness(nx, ny, objects int) *rebuildHarness {
	r := rand.New(rand.NewSource(97))
	g := grid.NewUnit(nx, ny)
	bld := NewBuilder(g)
	for k := 0; k < objects; k++ {
		i1, j1 := r.Intn(nx), r.Intn(ny)
		bld.AddSpan(grid.Span{I1: i1, J1: j1, I2: min(i1+r.Intn(8), nx-1), J2: min(j1+r.Intn(8), ny-1)})
	}
	return &rebuildHarness{bld: bld, r: r, stale: EmptyRegion()}
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

// publish publishes the next generation under strategy st with the
// retired-generation scratch ping-pong: the generation it replaces lags it
// by the builder's dirty box.
func (h *rebuildHarness) publish(st strategy) BuildStats {
	moved := h.bld.Dirty()
	nh, stats := st.publish(h.bld, h.prev, BuildFromOpts{Scratch: h.scratch, Stale: h.stale})
	if nh != h.prev {
		h.scratch, h.stale = h.prev, moved
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
		h.publish(byPolicy)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.mutate()
		if stats := h.publish(byPolicy); !stats.Incremental {
			b.Fatal("expected the incremental path")
		}
	}
}

// BenchmarkCrossover prices BuildFrom's two strategies against each other
// and against its own choice between them: the data behind
// DefaultCrossover and the table in DESIGN ("Incremental snapshot
// rebuilds"). Sub-benchmarks are named shape/strategy, strategy one of
// policy (BuildFrom's choice), repair and full (forced); one op is one
// publish.
//
//   - dirtyNpct: balanced churn of 64 objects inside a centered box of
//     about N % of a 1024×1024 grid's lattice, the sweep that puts the
//     break-even;
//   - feed=localized|scattered/NXxNY: the live ingest feed shape on the
//     ingest-browse grid (360×180, 200,000 seed objects) and on a
//     1440×720 one (1,000,000 objects): one publish per 20 batches of 50
//     objects of 1–4 cells a side, four insert batches then a delete of the
//     group's first, each batch within 12 cells of a focus drifting by at
//     most 3 cells a batch, or (scattered) drawn anywhere. policy reports
//     the share of its publishes that repaired.
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
			h.publish(repairOnly)
		}
		for _, st := range []strategy{repairOnly, fullOnly} {
			b.Run(hot.name+"/"+string(st), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					h.mutate()
					h.publish(st)
				}
			})
		}
	}
	for _, size := range []struct{ nx, ny, objects int }{{360, 180, 200_000}, {1440, 720, 1_000_000}} {
		for _, scattered := range []bool{false, true} {
			f := newFeedHarness(size.nx, size.ny, size.objects, scattered)
			name := fmt.Sprintf("feed=localized/%dx%d", size.nx, size.ny)
			if scattered {
				name = fmt.Sprintf("feed=scattered/%dx%d", size.nx, size.ny)
			}
			for _, st := range []strategy{byPolicy, repairOnly, fullOnly} {
				b.Run(name+"/"+string(st), func(b *testing.B) {
					repaired := 0
					for i := 0; i < b.N; i++ {
						f.feed()
						if f.publish(st).Incremental {
							repaired++
						}
					}
					if st == byPolicy {
						b.ReportMetric(float64(repaired)/float64(b.N), "repaired/op")
					}
				})
			}
		}
	}
}

// feedHarness is a rebuildHarness fed the live ingest feed shape (see
// BenchmarkCrossover).
type feedHarness struct {
	*rebuildHarness
	scattered bool
	fi, fj    int
	n         int         // batches fed
	group     []grid.Span // first insert batch of the current group of five
}

func newFeedHarness(nx, ny, objects int, scattered bool) *feedHarness {
	h := seedHarness(nx, ny, objects)
	h.prev = h.bld.Build()
	return &feedHarness{rebuildHarness: h, scattered: scattered, fi: h.r.Intn(nx), fj: h.r.Intn(ny)}
}

// feed applies the 20 batches of one publish.
func (f *feedHarness) feed() {
	g := f.bld.Grid()
	nx, ny := g.NX(), g.NY()
	for k := 0; k < 20; k++ {
		if f.n%5 == 4 {
			for _, s := range f.group {
				f.bld.RemoveSpan(s)
			}
			f.n++
			continue
		}
		batch := make([]grid.Span, 50)
		for i := range batch {
			ci := clamp(f.fi+f.r.Intn(25)-12, 0, nx-1)
			cj := clamp(f.fj+f.r.Intn(25)-12, 0, ny-1)
			if f.scattered {
				ci, cj = f.r.Intn(nx), f.r.Intn(ny)
			}
			batch[i] = grid.Span{I1: ci, J1: cj, I2: min(ci+f.r.Intn(4), nx-1), J2: min(cj+f.r.Intn(4), ny-1)}
			f.bld.AddSpan(batch[i])
		}
		if f.n%5 == 0 {
			f.group = batch
		}
		f.fi = clamp(f.fi+f.r.Intn(7)-3, 0, nx-1)
		f.fj = clamp(f.fj+f.r.Intn(7)-3, 0, ny-1)
		f.n++
	}
}

func clamp(v, lo, hi int) int { return min(max(v, lo), hi) }

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
		h.publish(byPolicy)
	}
	allocs := testing.AllocsPerRun(5, func() {
		h.mutate()
		if stats := h.publish(byPolicy); !stats.Incremental {
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
	h.publish(byPolicy)
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	// The repair box is ≤ 203² buckets; its delta buffer is ≤ 330 KB. A
	// lattice-sized allocation would be ≥ 17 MB.
	if bytes > 2<<20 {
		t.Errorf("steady-state incremental publish allocated %d bytes, want O(dirty) (< 2 MB)", bytes)
	}
}
