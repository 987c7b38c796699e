package euler

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/grid"
)

// The histogram keeps no bucket plane: Bucket and rawRowOf difference values
// out of the cumulative form. These tests hold that derivation against a
// plane accumulated independently of every code path under test — object by
// object, lattice element by lattice element, from the covering rule of
// §5.1 itself — after each way a cumulative plane comes to be: Build,
// BuildFrom repair (cloned or in a donated scratch) and full rebuild into
// the scratch, Pack and Unpack, builder resumption, and pyramid
// derivation and repair — with the whole chain built narrow and built wide.

// refBuckets accumulates the signed bucket plane of a set of objects over
// an nx×ny grid, each object given as cell spans. A lattice element is
// covered by an object exactly when every cell around it is; faces and
// vertices count +1, edges −1.
func refBuckets(nx, ny int, objects [][]grid.Span) []int64 {
	lx, ly := 2*nx-1, 2*ny-1
	plane := make([]int64, lx*ly)
	cells := make([]bool, nx*ny)
	for _, spans := range objects {
		clear(cells)
		for _, s := range spans {
			for i := s.I1; i <= s.I2; i++ {
				for j := s.J1; j <= s.J2; j++ {
					cells[i*ny+j] = true
				}
			}
		}
		for u := 0; u < lx; u++ {
			for v := 0; v < ly; v++ {
				// Element (u,v) touches cells ⌊u/2⌋..⌈u/2⌉ × ⌊v/2⌋..⌈v/2⌉.
				covered := true
				for i := u / 2; i <= (u+1)/2; i++ {
					for j := v / 2; j <= (v+1)/2; j++ {
						covered = covered && cells[i*ny+j]
					}
				}
				if !covered {
					continue
				}
				if (u^v)&1 == 1 {
					plane[u*ly+v]--
				} else {
					plane[u*ly+v]++
				}
			}
		}
	}
	return plane
}

func requireBuckets(t *testing.T, ctx string, h *Histogram, want []int64) {
	t.Helper()
	lx, ly := h.Buckets()
	if lx*ly != len(want) {
		t.Fatalf("%s: lattice %dx%d, reference has %d buckets", ctx, lx, ly, len(want))
	}
	buf := make([]int64, ly)
	for u := 0; u < lx; u++ {
		rawRowOf(h.hc, u, 0, buf)
		for v := 0; v < ly; v++ {
			if buf[v] != want[u*ly+v] {
				t.Fatalf("%s: rawRowOf(%d)[%d] = %d, want %d", ctx, u, v, buf[v], want[u*ly+v])
			}
			if h.Bucket(u, v) != want[u*ly+v] {
				t.Fatalf("%s: Bucket(%d,%d) = %d, want %d", ctx, u, v, h.Bucket(u, v), want[u*ly+v])
			}
		}
	}
}

// atBothWidths runs fn with builders that stay narrow (the default limit)
// and that go wide at their first update (a limit of 0), passing the cell
// width every histogram they build must have.
func atBothWidths(t *testing.T, fn func(t *testing.T, cellWidth int)) {
	t.Run("narrow", func(t *testing.T) { fn(t, 4) })
	t.Run("wide", func(t *testing.T) {
		defer LowerNarrowLimit(0)()
		fn(t, 8)
	})
}

func TestDerivedBucketsMatchIndependentPlane(t *testing.T) {
	atBothWidths(t, testDerivedBuckets)
}

func testDerivedBuckets(t *testing.T, cellWidth int) {
	var repairedIntoScratch, rebuiltIntoScratch int
	for seed := int64(1); seed <= 12; seed++ {
		r := gen.Rand(seed)
		g := gen.Grid(r, 20, 20)
		nx, ny := g.NX(), g.NY()
		whole := DirtyRegion{U2: 2*nx - 2, V2: 2*ny - 2}
		b := NewBuilder(g)
		var objects [][]grid.Span
		mutate := func(n int) {
			for k := 0; k < n; k++ {
				switch {
				case len(objects) > 0 && r.Intn(4) == 0:
					i := r.Intn(len(objects))
					if !b.RemoveObject(objects[i]) {
						t.Fatalf("seed %d: RemoveObject refused an inserted object", seed)
					}
					objects[i] = objects[len(objects)-1]
					objects = objects[:len(objects)-1]
				case r.Intn(3) == 0:
					rasters, _ := rasterObjects(r, g, 1, gen.PolyOpts{})
					for _, rst := range rasters {
						b.AddObject(rst.Spans)
						objects = append(objects, rst.Spans)
					}
				default:
					s := gen.Span(r, g)
					b.AddSpan(s)
					objects = append(objects, []grid.Span{s})
				}
			}
		}
		check := func(ctx string, h *Histogram) {
			t.Helper()
			ctx = fmt.Sprintf("seed %d %s", seed, ctx)
			if h.CellWidth() != cellWidth {
				t.Fatalf("%s: %d-byte cells, want %d", ctx, h.CellWidth(), cellWidth)
			}
			want := refBuckets(nx, ny, objects)
			requireBuckets(t, ctx, h, want)
			p, ok := h.Pack()
			if !ok || p.CellWidth() != 4 || (cellWidth == 4 && p != h) {
				t.Fatalf("%s: Pack = %v, %v", ctx, p, ok)
			}
			requireBuckets(t, ctx+" packed", p, want)
			u := h.Unpack()
			if u.CellWidth() != 8 || (cellWidth == 8 && u != h) {
				t.Fatalf("%s: Unpack gave %d-byte cells (same histogram: %v)", ctx, u.CellWidth(), u == h)
			}
			requireBuckets(t, ctx+" unpacked", u, want)
			resumed := BuilderFromHistogram(h).Build()
			if resumed.CellWidth() != cellWidth {
				t.Fatalf("%s: resumed at %d-byte cells, want %d", ctx, resumed.CellWidth(), cellWidth)
			}
			requireBuckets(t, ctx+" resumed", resumed, want)
		}

		mutate(10 + r.Intn(30))
		prev := b.Build()
		check("Build", prev)

		// The live arena in miniature: the generation before prev retires
		// and is donated, its stale box widened by every publish since.
		var retired *Histogram
		stale := EmptyRegion()
		for step := 0; step < 8; step++ {
			mutate(1 + r.Intn(6))
			var opts BuildFromOpts
			if retired != nil && r.Intn(3) > 0 {
				opts.Scratch, opts.Stale = retired, stale
				if r.Intn(2) == 0 {
					// Stale is a bound; a long-retired lease reports the whole
					// lattice.
					opts.Stale = whole
				}
				retired = nil
			}
			h, stats := []strategy{byPolicy, byPolicy, repairOnly, fullOnly}[r.Intn(4)].publish(b, prev, opts)
			switch {
			case opts.Scratch == nil || h == prev:
			case stats.Incremental:
				repairedIntoScratch++
			default:
				rebuiltIntoScratch++
			}
			check(fmt.Sprintf("BuildFrom step %d %+v", step, stats), h)
			if h == prev {
				continue
			}
			if retired == nil {
				retired, stale = prev, stats.Dirty
			} else {
				stale = stale.Union(stats.Dirty)
			}
			prev = h
		}
	}
	if repairedIntoScratch == 0 || rebuiltIntoScratch == 0 {
		t.Fatalf("chains never exercised a path: %d repairs and %d full rebuilds into a scratch",
			repairedIntoScratch, rebuiltIntoScratch)
	}
}

func TestDerivedPyramidBucketsMatchIndependentPlane(t *testing.T) {
	atBothWidths(t, testDerivedPyramidBuckets)
}

func testDerivedPyramidBuckets(t *testing.T, cellWidth int) {
	for seed := int64(1); seed <= 8; seed++ {
		r := gen.Rand(seed)
		g := grid.NewUnit(8*(1+r.Intn(4)), 8*(1+r.Intn(4)))
		opts := PyramidOpts{MaxLevels: 2, MinGrid: 2}
		b := NewBuilder(g)
		var spans []grid.Span
		mutate := func(n int) {
			for k := 0; k < n; k++ {
				if len(spans) > 0 && r.Intn(3) == 0 {
					i := r.Intn(len(spans))
					b.RemoveSpan(spans[i])
					spans[i] = spans[len(spans)-1]
					spans = spans[:len(spans)-1]
					continue
				}
				s := gen.Span(r, g)
				b.AddSpan(s)
				spans = append(spans, s)
			}
		}
		check := func(ctx string, p *Pyramid) {
			t.Helper()
			if p.Levels() != 3 {
				t.Fatalf("seed %d %s: %d levels, want 3", seed, ctx, p.Levels())
			}
			for k := 0; k < p.Levels(); k++ {
				if got := p.Level(k).CellWidth(); got != cellWidth {
					t.Fatalf("seed %d %s: level %d has %d-byte cells, want %d", seed, ctx, k, got, cellWidth)
				}
				objects := make([][]grid.Span, len(spans))
				for i, s := range spans {
					objects[i] = []grid.Span{CoarseSpan(s, k)}
				}
				requireBuckets(t, fmt.Sprintf("seed %d %s level %d", seed, ctx, k),
					p.Level(k), refBuckets(g.NX()>>k, g.NY()>>k, objects))
			}
		}
		mutate(20 + r.Intn(40))
		prevHist := b.Build()
		prev := NewPyramid(prevHist, opts)
		check("cold", prev)
		var retired *Pyramid
		stale := EmptyRegion()
		for step := 0; step < 8; step++ {
			mutate(1 + r.Intn(5))
			var bopts BuildFromOpts
			popts := PyramidFromOpts{Opts: opts, Donor: prev}
			if retired != nil && step%3 != 0 {
				// In-place repair of the retired generation's buffers, base
				// and coarse levels alike, as a collectible lease donates them.
				bopts.Scratch, bopts.Stale = retired.Base(), stale
				popts.Donor, popts.InPlace = retired, true
				retired = nil
			}
			h, stats := repairOnly.publish(b, prevHist, bopts)
			popts.Stale = stats.Dirty
			p := PyramidFrom(h, popts)
			check(fmt.Sprintf("step %d inPlace=%v", step, popts.InPlace), p)
			if retired == nil {
				retired, stale = prev, stats.Dirty
			} else {
				stale = stale.Union(stats.Dirty)
			}
			prevHist, prev = h, p
		}
	}
}

// TestBuildAllocatesOnePlane is the allocation gate of the single narrow
// plane: a builder holds one difference array of 4-byte entries, and a cold
// Build materializes the buckets in the array that becomes the cumulative
// form, so it allocates one lattice-sized array of 4-byte cells, plus a
// column accumulator — no 8-byte plane is staged anywhere on the way. A
// build from rectangles is those two arrays and no more, whatever worker
// count it is handed: no second difference array is filled beside the first.
func TestBuildAllocatesOnePlane(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on a 1024×1024 grid")
	}
	g := grid.NewUnit(1024, 1024)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b := NewBuilder(g)
	runtime.ReadMemStats(&after)
	diff := uint64(4 * 2048 * 2048)
	if got := after.TotalAlloc - before.TotalAlloc; got > diff+diff/4 {
		t.Errorf("NewBuilder allocated %d bytes, want < 1.25 × one %d-byte difference array", got, diff)
	}
	r := rand.New(rand.NewSource(5))
	for k := 0; k < 10_000; k++ {
		b.AddSpan(randSpan(r, g))
	}
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := b.Build()
	runtime.ReadMemStats(&after)
	plane := uint64(4 * h.StorageBuckets())
	if got := after.TotalAlloc - before.TotalAlloc; got > plane+plane/4 {
		t.Errorf("Build allocated %d bytes, want < 1.25 × one %d-byte plane", got, plane)
	}
	if h.LatticeBytes() != int(plane) {
		t.Errorf("LatticeBytes = %d, want one plane of %d bytes", h.LatticeBytes(), plane)
	}

	rects := gen.Rects(r, g, 10_000, gen.RectOpts{})
	for _, tc := range []struct {
		name  string
		build func() *Histogram
	}{
		{"FromRects", func() *Histogram { return FromRects(g, rects) }},
		{"FromRectsParallel", func() *Histogram { return FromRectsParallel(g, rects, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tc.build()
			runtime.ReadMemStats(&after)
			if got, want := after.TotalAlloc-before.TotalAlloc, diff+plane; got > want+want/4 {
				t.Errorf("allocated %d bytes, want < 1.25 × one %d-byte difference array and one %d-byte plane", got, diff, plane)
			}
		})
	}
}
