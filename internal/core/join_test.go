package core

import (
	"math/rand"
	"runtime"
	"testing"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/dataset"
	"spatialhist/internal/euler"
	"spatialhist/internal/exact"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

func TestJoinEstimatorMBR(t *testing.T) {
	r := rand.New(rand.NewSource(420))
	g := grid.NewUnit(20, 14)
	as, bs := randSpans(r, g.NX(), g.NY(), 50), randSpans(r, g.NX(), g.NY(), 30)
	j, err := NewJoin(NewSEuler(histFromSpans(g, as)), NewEuler(histFromSpans(g, bs)))
	if err != nil {
		t.Fatal(err)
	}
	est, err := j.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	want := exact.JoinSpans(g, as, bs)
	if est.Pairs != want {
		t.Fatalf("Pairs = %d, want exact %d", est.Pairs, want)
	}
	if est.CountA != 50 || est.CountB != 30 {
		t.Fatalf("counts = (%d, %d)", est.CountA, est.CountB)
	}
	if wantSel := float64(want) / (50.0 * 30.0); est.Selectivity != wantSel {
		t.Fatalf("Selectivity = %g, want %g", est.Selectivity, wantSel)
	}
	if est.Resampled || est.Certified {
		t.Fatalf("MBR join flags = (resampled %v, certified %v), want (false, false)", est.Resampled, est.Certified)
	}
}

func TestJoinEstimatorRasterCertified(t *testing.T) {
	r := rand.New(rand.NewSource(421))
	g := grid.NewUnit(16, 16)
	side := func(n int, o gen.PolyOpts) (*SEuler, [][]grid.Span) {
		b := euler.NewBuilder(g)
		var objs [][]grid.Span
		for len(objs) < n {
			for _, rst := range g.Rasterize(gen.Polygon(r, g, o)) {
				b.AddRaster(rst)
				objs = append(objs, grid.NormalizeRuns(rst.Spans))
			}
		}
		return NewSEuler(b.Build()), objs
	}

	// All cell-aligned rectangles: zero partial cells, so the estimate is
	// certified and — every pairwise intersection being a rectangle — the
	// product sum is the exact pair count.
	ea, objsA := side(8, gen.PolyOpts{Aligned: 1})
	eb, objsB := side(6, gen.PolyOpts{Aligned: 1})
	j, err := NewJoin(ea, eb)
	if err != nil {
		t.Fatal(err)
	}
	est, err := j.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.JoinRasters(g, objsA, objsB)
	if !truth.AllUnit || est.Pairs != truth.Pairs {
		t.Fatalf("aligned corpus: Pairs = %d, truth = %+v", est.Pairs, truth)
	}
	if !est.Certified {
		t.Fatal("aligned corpus not certified")
	}

	// A corpus with partial cells estimates Σχ and is not certified.
	ec, objsC := side(6, gen.PolyOpts{})
	j2, err := NewJoin(ea, ec)
	if err != nil {
		t.Fatal(err)
	}
	est2, err := j2.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	truth2 := exact.JoinRasters(g, objsA, objsC)
	if est2.Pairs != truth2.ChiSum {
		t.Fatalf("mixed corpus: Pairs = %d, want Σχ = %d", est2.Pairs, truth2.ChiSum)
	}
	if est2.Certified {
		t.Fatal("corpus with partial cells reported certified")
	}
}

func TestJoinEstimatorResample(t *testing.T) {
	r := rand.New(rand.NewSource(422))
	ext := grid.NewUnit(1, 1).Extent()
	gf, gc := grid.New(ext, 32, 16), grid.New(ext, 16, 8)
	as, bs := randSpans(r, gf.NX(), gf.NY(), 40), randSpans(r, gc.NX(), gc.NY(), 25)
	j, err := NewJoin(NewSEuler(histFromSpans(gf, as)), NewSEuler(histFromSpans(gc, bs)))
	if err != nil {
		t.Fatal(err)
	}
	est, err := j.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if !est.Resampled || est.Certified {
		t.Fatalf("flags = (resampled %v, certified %v), want (true, false)", est.Resampled, est.Certified)
	}
	// The resampled join equals the exact pair count of the floor-halved
	// fine spans against the coarse spans — the coarsening is bit-exact.
	coarse := make([]grid.Span, len(as))
	for i, s := range as {
		coarse[i] = euler.CoarseSpan(s, 1)
	}
	if want := exact.JoinSpans(gc, coarse, bs); est.Pairs != want {
		t.Fatalf("resampled Pairs = %d, want %d", est.Pairs, want)
	}
}

func TestJoinEstimatorMEulerAndZoom(t *testing.T) {
	r := rand.New(rand.NewSource(423))
	g := grid.NewUnit(16, 16)
	as, bs := randSpans(r, g.NX(), g.NY(), 40), randSpans(r, g.NX(), g.NY(), 20)
	hB := histFromSpans(g, bs)

	// M-EulerApprox: the per-group product sums must add up to the plain
	// single-histogram join (raw counts are additive across groups).
	rectsA := make([]geom.Rect, len(as))
	for i, s := range as {
		rectsA[i] = g.SpanRect(s)
	}
	me, err := NewMEuler(g, []float64{1, 9, 10000}, rectsA)
	if err != nil {
		t.Fatal(err)
	}
	jm, err := NewJoin(me, NewSEuler(hB))
	if err != nil {
		t.Fatal(err)
	}
	em, err := jm.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if want := exact.JoinSpans(g, as, bs); em.Pairs != want {
		t.Fatalf("MEuler join Pairs = %d, want %d", em.Pairs, want)
	}

	// Zoom joins at its base level.
	base := NewSEuler(histFromSpans(g, as))
	coarseHist, err := euler.CoarsenTo(histFromSpans(g, as), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	z, err := NewZoom([]Estimator{base, NewSEuler(coarseHist)})
	if err != nil {
		t.Fatal(err)
	}
	jz, err := NewJoin(z, NewSEuler(hB))
	if err != nil {
		t.Fatal(err)
	}
	ez, err := jz.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if want := exact.JoinSpans(g, as, bs); ez.Pairs != want {
		t.Fatalf("Zoom join Pairs = %d, want %d", ez.Pairs, want)
	}
}

// TestJoinEstimateAllocs bounds what one NewJoin plus Estimate allocates
// over the fixtures of the root BenchmarkJoinEstimate: 100k sz_skew objects
// on a 400×300 grid joined against 100k sp_skew objects on the same grid,
// and against the same objects at 200×150, which coarsens the fine side to
// the common grid. Measured: same-grid 3 allocations / 112 B (the estimator
// and its two side slices; the product sum stages nothing), resampled 11 /
// 489,592 B (the coarsened side's one plane, 399×299 lattice cells at 4 B =
// 477,204 B, plus descriptors).
func TestJoinEstimateAllocs(t *testing.T) {
	da := dataset.SzSkew(100_000, 3)
	db := dataset.SpSkew(100_000, 7)
	db.Extent = da.Extent // joins require a shared extent
	g := grid.New(da.Extent, 400, 300)
	ea := NewSEuler(euler.FromRects(g, da.Rects))
	eb := NewSEuler(euler.FromRects(g, db.Rects))
	coarse := euler.FromRects(grid.New(da.Extent, 200, 150), db.Rects)
	ec := NewSEuler(coarse)

	const runs = 5
	measure := func(t *testing.T, right Estimator) (allocs float64, bytes uint64) {
		join := func() {
			j, err := NewJoin(ea, right)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Estimate(); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(runs, join)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			join()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}

	t.Run("same-grid", func(t *testing.T) {
		if allocs, bytes := measure(t, eb); allocs > 3 || bytes > 256 {
			t.Errorf("%.0f allocations / %d B per estimate, want ≤ 3 / 256 B", allocs, bytes)
		}
	})
	t.Run("resampled", func(t *testing.T) {
		plane := uint64(coarse.LatticeBytes())
		if _, bytes := measure(t, ec); bytes > plane+plane/4 {
			t.Errorf("%d B per estimate, want ≤ 1.25 × one coarse plane of %d B", bytes, plane)
		}
	})
}

func TestJoinEstimatorErrors(t *testing.T) {
	g := grid.NewUnit(8, 8)
	a := NewSEuler(histFromSpans(g, []grid.Span{spanOf(1, 1, 2, 2)}))
	// Different extents: no common grid.
	other := grid.New(grid.NewUnit(2, 2).Extent(), 8, 8)
	b := NewSEuler(histFromSpans(other, []grid.Span{spanOf(0, 0, 1, 1)}))
	if _, err := NewJoin(a, b); err == nil {
		t.Fatal("NewJoin accepted mismatched extents")
	}
	// Non-power-of-two ratio.
	g3 := grid.New(g.Extent(), 24, 24)
	c := NewSEuler(histFromSpans(g3, []grid.Span{spanOf(0, 0, 1, 1)}))
	if _, err := NewJoin(a, c); err == nil {
		t.Fatal("NewJoin accepted a 3x resolution ratio")
	}
	// A rasterized fine side cannot be resampled.
	gf := grid.New(g.Extent(), 16, 16)
	rb := euler.NewBuilder(gf)
	rb.AddObject([]grid.Span{spanOf(0, 0, 1, 0)})
	fine := NewSEuler(rb.Build())
	if _, err := NewJoin(fine, a); err == nil {
		t.Fatal("NewJoin resampled a rasterized-object histogram")
	}
}
