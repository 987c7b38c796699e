package euler

import (
	"fmt"
	"math/rand"
	"testing"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// freshCoarse builds the level-k histogram directly: a new builder over
// the 2^k-coarsened grid fed the floor-halved base spans — the definition
// the pyramid's stencil derivation must reproduce bit for bit.
func freshCoarse(g *grid.Grid, spans []grid.Span, k int) *Histogram {
	cg := grid.New(g.Extent(), g.NX()>>k, g.NY()>>k)
	b := NewBuilder(cg)
	for _, s := range spans {
		b.AddSpan(CoarseSpan(s, k))
	}
	return b.Build()
}

// requireHistEqual compares two histograms bucket for bucket.
func requireHistEqual(t *testing.T, ctx string, got, want *Histogram) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%s: count %d, want %d", ctx, got.Count(), want.Count())
	}
	glx, gly := got.Buckets()
	wlx, wly := want.Buckets()
	if glx != wlx || gly != wly {
		t.Fatalf("%s: lattice %dx%d, want %dx%d", ctx, glx, gly, wlx, wly)
	}
	for u := 0; u < glx; u++ {
		for v := 0; v < gly; v++ {
			if g, w := got.Bucket(u, v), want.Bucket(u, v); g != w {
				t.Fatalf("%s: bucket (%d,%d) = %d, want %d", ctx, u, v, g, w)
			}
		}
	}
	if got.Total() != want.Total() {
		t.Fatalf("%s: total %d, want %d", ctx, got.Total(), want.Total())
	}
	gg := got.Grid()
	for _, q := range []grid.Span{
		{I1: 0, J1: 0, I2: gg.NX() - 1, J2: gg.NY() - 1},
		{I1: 0, J1: 0, I2: gg.NX() / 2, J2: gg.NY() / 2},
		{I1: gg.NX() / 3, J1: gg.NY() / 4, I2: gg.NX() - 1, J2: gg.NY() - 1},
	} {
		if g, w := got.InsideSum(q), want.InsideSum(q); g != w {
			t.Fatalf("%s: InsideSum(%v) = %d, want %d", ctx, q, g, w)
		}
	}
}

func randSpans(r *rand.Rand, g *grid.Grid, n int) []grid.Span {
	spans := make([]grid.Span, 0, n)
	for k := 0; k < n; k++ {
		i1, j1 := r.Intn(g.NX()), r.Intn(g.NY())
		spans = append(spans, grid.Span{
			I1: i1, J1: j1,
			I2: min(i1+r.Intn(7), g.NX()-1),
			J2: min(j1+r.Intn(7), g.NY()-1),
		})
	}
	return spans
}

func TestPyramidColdBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	grids := []*grid.Grid{
		grid.NewUnit(64, 64),
		grid.NewUnit(96, 48),
		grid.New(geom.NewRect(-3, 2, 17, 9.5), 80, 32),
		grid.NewUnit(40, 24),
	}
	for gi, g := range grids {
		spans := randSpans(r, g, 500)
		b := NewBuilder(g)
		for _, s := range spans {
			b.AddSpan(s)
		}
		base := b.Build()
		p := NewPyramid(base, PyramidOpts{MinGrid: 4})
		if p.Levels() < 2 {
			t.Fatalf("grid %d: pyramid did not coarsen (%d levels)", gi, p.Levels())
		}
		if p.Base() != base {
			t.Fatalf("grid %d: level 0 is not the base histogram", gi)
		}
		for k := 1; k < p.Levels(); k++ {
			ctx := fmt.Sprintf("grid %d level %d", gi, k)
			lvl := p.Level(k)
			lg := lvl.Grid()
			if lg.NX() != g.NX()>>k || lg.NY() != g.NY()>>k {
				t.Fatalf("%s: grid %dx%d, want %dx%d", ctx, lg.NX(), lg.NY(), g.NX()>>k, g.NY()>>k)
			}
			requireHistEqual(t, ctx, lvl, freshCoarse(g, spans, k))
		}
	}
}

func TestPyramidShape(t *testing.T) {
	g := grid.NewUnit(96, 80) // 96×80 → 48×40 → 24×20 → (12×10 below floor)
	base := NewBuilder(g).Build()
	if got := NewPyramid(base, PyramidOpts{MinGrid: 16}).Levels(); got != 3 {
		t.Fatalf("min-grid floor: %d levels, want 3", got)
	}
	if got := NewPyramid(base, PyramidOpts{MinGrid: 16, MaxLevels: 1}).Levels(); got != 2 {
		t.Fatalf("MaxLevels cap: %d levels, want 2", got)
	}
	godd := grid.NewUnit(100, 90) // 100×90 → 50×45, 45 is odd
	baseOdd := NewBuilder(godd).Build()
	if got := NewPyramid(baseOdd, PyramidOpts{MinGrid: 4}).Levels(); got != 2 {
		t.Fatalf("odd-dimension stop: %d levels, want 2", got)
	}
	// A grid that cannot coarsen at all still yields a one-level pyramid.
	gtiny := grid.NewUnit(9, 9)
	if got := NewPyramid(NewBuilder(gtiny).Build(), PyramidOpts{}).Levels(); got != 1 {
		t.Fatalf("uncoarsenable grid: %d levels, want 1", got)
	}
}

// TestPyramidDefaultMinGrid: zero options coarsen down to, and not below,
// DefaultPyramidMinGrid cells on the shorter axis.
func TestPyramidDefaultMinGrid(t *testing.T) {
	g := grid.NewUnit(256, 64) // 256×64 → 128×32 → 64×16 (→ 32×8 below the floor)
	p := NewPyramid(NewBuilder(g).Build(), PyramidOpts{})
	if p.Levels() != 3 {
		t.Fatalf("%d levels, want 3", p.Levels())
	}
	if top := p.Level(p.Levels() - 1).Grid(); top.NX() != 64 || top.NY() != DefaultPyramidMinGrid {
		t.Fatalf("coarsest level %d×%d, want 64×%d", top.NX(), top.NY(), DefaultPyramidMinGrid)
	}
	if want := NewPyramid(NewBuilder(g).Build(), PyramidOpts{MinGrid: DefaultPyramidMinGrid}); want.Levels() != p.Levels() {
		t.Fatalf("zero MinGrid gave %d levels, MinGrid %d gives %d", p.Levels(), DefaultPyramidMinGrid, want.Levels())
	}
}

// TestPyramidFromIncremental drives the live-store publish shape: mutate,
// BuildFrom (by its own choice, or either strategy forced), PyramidFrom
// with the retired generation as donor — both the clone-and-repair and the
// in-place arena path — and checks every level of every generation against
// a fresh direct build.
func TestPyramidFromIncremental(t *testing.T) {
	for _, inPlace := range []bool{false, true} {
		for _, st := range []strategy{byPolicy, repairOnly, fullOnly} {
			t.Run(fmt.Sprintf("inplace=%v/strategy=%s", inPlace, st), func(t *testing.T) {
				r := rand.New(rand.NewSource(29))
				g := grid.NewUnit(64, 64)
				spans := randSpans(r, g, 300)
				b := NewBuilder(g)
				for _, s := range spans {
					b.AddSpan(s)
				}
				opts := PyramidOpts{MinGrid: 4}
				prevHist := b.Build()
				prev := NewPyramid(prevHist, opts)
				// Retired generation emulation: donate the previous pyramid
				// for in-place repair only once it is two generations old.
				var retired *Pyramid
				retiredStale := EmptyRegion()
				for step := 0; step < 6; step++ {
					// Balanced churn plus net growth, exercising both the
					// unchanged-count and changed-count repair paths.
					for m := 0; m < 10; m++ {
						k := r.Intn(len(spans))
						b.RemoveSpan(spans[k])
						ns := randSpans(r, g, 1)[0]
						b.AddSpan(ns)
						spans[k] = ns
					}
					if step%2 == 1 {
						ns := randSpans(r, g, 1)[0]
						b.AddSpan(ns)
						spans = append(spans, ns)
					}
					var bopts BuildFromOpts
					donor := prev
					if inPlace && retired != nil {
						bopts.Scratch, bopts.Stale = retired.Base(), retiredStale
						donor = retired
					}
					h, stats := st.publish(b, prevHist, bopts)
					p := PyramidFrom(h, PyramidFromOpts{
						Opts:    opts,
						Donor:   donor,
						Stale:   stats.Dirty,
						InPlace: inPlace && donor == retired,
					})
					if p.Levels() != prev.Levels() {
						t.Fatalf("step %d: %d levels, want %d", step, p.Levels(), prev.Levels())
					}
					for k := 1; k < p.Levels(); k++ {
						requireHistEqual(t, fmt.Sprintf("step %d level %d", step, k),
							p.Level(k), freshCoarse(g, spans, k))
					}
					retired, retiredStale = prev, stats.Dirty
					prevHist, prev = h, p
				}
			})
		}
	}
}

// TestPyramidFromNoChange covers the rewrap fast path: an empty stale
// region must share the donor's coarse buffers untouched.
func TestPyramidFromNoChange(t *testing.T) {
	g := grid.NewUnit(32, 32)
	r := rand.New(rand.NewSource(5))
	b := NewBuilder(g)
	for _, s := range randSpans(r, g, 100) {
		b.AddSpan(s)
	}
	base := b.Build()
	opts := PyramidOpts{MinGrid: 4}
	prev := NewPyramid(base, opts)
	p := PyramidFrom(base, PyramidFromOpts{Opts: opts, Donor: prev, Stale: EmptyRegion()})
	for k := 1; k < p.Levels(); k++ {
		if p.Level(k).hc != prev.Level(k).hc {
			t.Fatalf("level %d: rewrap did not share the donor's cumulative form", k)
		}
	}
}
