// Join and rasterization checks. The two-histogram join product sum
// (euler.ProductSum, core.JoinEstimator) claims exact pair counts for MBR
// histograms and exact Σχ for rasterized objects; an oracle recomputes
// both against the dual-rtree exact joins of internal/exact, and through
// the resampling path (the transcript checks join across cell widths). A
// metamorphic companion pins the relationship between a dataset's
// rasterized join and the join of its MBR coarsening.
package check

import (
	"fmt"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/exact"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// rasterSide rasterizes polygons on g and returns the ingested histogram
// plus the exact-side object runs. Polygons that cover no cell are
// dropped on both sides alike.
func rasterSide(g *grid.Grid, polys []geom.Polygon) (*euler.Histogram, [][]grid.Span) {
	b := euler.NewBuilder(g)
	var objs [][]grid.Span
	for _, p := range polys {
		for _, rst := range g.Rasterize(p) {
			b.AddRaster(rst)
			objs = append(objs, grid.NormalizeRuns(rst.Spans))
		}
	}
	return b.Build(), objs
}

// mbrSide builds the MBR histogram of the same rasterized objects: one
// bounding span per component, through the ordinary AddSpan path.
func mbrSide(g *grid.Grid, polys []geom.Polygon) (*euler.Histogram, []grid.Span) {
	b := euler.NewBuilder(g)
	var spans []grid.Span
	for _, p := range polys {
		for _, rst := range g.Rasterize(p) {
			s := rst.Bounds()
			b.AddSpan(s)
			spans = append(spans, s)
		}
	}
	return b.Build(), spans
}

// productSum wraps euler.ProductSum, rendering errors into the result for
// string comparison (the oracle never expects one on matched grids).
func productSum(a, b *euler.Histogram) string {
	s, err := euler.ProductSum(a, b)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%d", s)
}

// shrinkPair minimizes both sides of a join while pred keeps failing.
func shrinkPair[T any](a, b []T, pred func(a, b []T) bool) ([]T, []T) {
	a = shrinkSlice(a, 200, func(cand []T) bool { return pred(cand, b) })
	b = shrinkSlice(b, 200, func(cand []T) bool { return pred(a, cand) })
	return a, b
}

// ---------------------------------------------------------------------------
// Oracle: two-histogram join vs exact dual-rtree joins.

func runJoinVsExact(seed int64) *Divergence {
	const name = "join-vs-exact"
	r := gen.Rand(seed)

	// Leg 1: MBR datasets. The product sum must equal the exact number of
	// span-intersecting pairs, bit-for-bit.
	g := gen.Grid(r, 28, 28)
	spansA := make([]grid.Span, 20+r.Intn(60))
	for i := range spansA {
		spansA[i] = gen.Span(r, g)
	}
	spansB := make([]grid.Span, 20+r.Intn(60))
	for i := range spansB {
		spansB[i] = gen.Span(r, g)
	}
	build := func(ss []grid.Span) *euler.Histogram {
		b := euler.NewBuilder(g)
		for _, s := range ss {
			b.AddSpan(s)
		}
		return b.Build()
	}
	mbrDiverges := func(a, b []grid.Span) bool {
		return productSum(build(a), build(b)) != fmt.Sprintf("%d", exact.JoinSpans(g, a, b))
	}
	if mbrDiverges(spansA, spansB) {
		// Shrink on the span level: spans are rect-shaped evidence.
		spansA, spansB = shrinkPair(spansA, spansB, mbrDiverges)
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: fmt.Sprintf("MBR product sum diverges from the exact join on %d vs %d spans", len(spansA), len(spansB)),
			Got:    productSum(build(spansA), build(spansB)),
			Want:   fmt.Sprintf("%d", exact.JoinSpans(g, spansA, spansB))}
	}

	// Leg 2: rasterized polygon datasets. The product sum must equal the
	// summed Euler characteristic of the pairwise run intersections.
	pg := gen.Grid(r, 22, 22)
	polysA := gen.Polygons(r, pg, 4+r.Intn(6), gen.PolyOpts{Aligned: 0.2})
	polysB := gen.Polygons(r, pg, 4+r.Intn(6), gen.PolyOpts{Aligned: 0.2})
	rasterDiverges := func(pa, pb []geom.Polygon) (got, want string, bad bool) {
		hra, objsA := rasterSide(pg, pa)
		hrb, objsB := rasterSide(pg, pb)
		truth := exact.JoinRasters(pg, objsA, objsB)
		got, want = productSum(hra, hrb), fmt.Sprintf("%d", truth.ChiSum)
		return got, want, got != want
	}
	if got, want, bad := rasterDiverges(polysA, polysB); bad {
		polysA, polysB = shrinkPair(polysA, polysB, func(a, b []geom.Polygon) bool {
			_, _, bad := rasterDiverges(a, b)
			return bad
		})
		got, want, _ = rasterDiverges(polysA, polysB)
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(pg), Polys: polysA, PolysB: polysB,
			Detail: "raster product sum diverges from the exact Σχ", Got: got, Want: want}
	}

	// Leg 3: the resampling path. A fine MBR side joined against a
	// coarser side through core.NewJoin must equal the exact join of the
	// floor-halved fine spans on the coarse grid.
	k := 1 + r.Intn(2) // halvings
	cnx, cny := 4+r.Intn(8), 4+r.Intn(8)
	ext := geom.NewRect(0, 0, float64(cnx), float64(cny))
	gc := grid.New(ext, cnx, cny)
	gf := grid.New(ext, cnx<<k, cny<<k)
	fineSpans := make([]grid.Span, 15+r.Intn(40))
	for i := range fineSpans {
		fineSpans[i] = gen.Span(r, gf)
	}
	coarseSpans := make([]grid.Span, 10+r.Intn(30))
	for i := range coarseSpans {
		coarseSpans[i] = gen.Span(r, gc)
	}
	bf, bc := euler.NewBuilder(gf), euler.NewBuilder(gc)
	for _, s := range fineSpans {
		bf.AddSpan(s)
	}
	for _, s := range coarseSpans {
		bc.AddSpan(s)
	}
	j, err := core.NewJoin(core.NewSEuler(bf.Build()), core.NewSEuler(bc.Build()))
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(gf),
			Detail: "NewJoin refused a power-of-two resampling pair: " + err.Error()}
	}
	est, err := j.Estimate()
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(gf),
			Detail: "resampled Estimate failed: " + err.Error()}
	}
	halved := make([]grid.Span, len(fineSpans))
	for i, s := range fineSpans {
		halved[i] = euler.CoarseSpan(s, k)
	}
	if wantPairs := exact.JoinSpans(gc, halved, coarseSpans); est.Pairs != wantPairs || !est.Resampled {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(gf),
			Detail: fmt.Sprintf("resampled join (ratio 2^%d) diverges from the coarse exact join", k),
			Got:    fmt.Sprintf("pairs=%d resampled=%v", est.Pairs, est.Resampled),
			Want:   fmt.Sprintf("pairs=%d resampled=true", wantPairs)}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Metamorphic: rasterized join vs the MBR coarsening of the same objects.

func runRasterVsMBR(seed int64) *Divergence {
	const name = "raster-vs-mbr-refinement"
	r := gen.Rand(seed)
	g := gen.Grid(r, 24, 24)
	polysA := gen.Polygons(r, g, 4+r.Intn(6), gen.PolyOpts{})
	polysB := gen.Polygons(r, g, 4+r.Intn(6), gen.PolyOpts{})

	type probe struct {
		jRaster, jMBR, mbrPairs int64
		truth                   exact.JoinTruth
		err                     string
	}
	measure := func(pa, pb []geom.Polygon) probe {
		hra, objsA := rasterSide(g, pa)
		hrb, objsB := rasterSide(g, pb)
		hma, spansA := mbrSide(g, pa)
		hmb, spansB := mbrSide(g, pb)
		jr, err := euler.ProductSum(hra, hrb)
		if err != nil {
			return probe{err: err.Error()}
		}
		jm, err := euler.ProductSum(hma, hmb)
		if err != nil {
			return probe{err: err.Error()}
		}
		return probe{
			jRaster:  jr,
			jMBR:     jm,
			mbrPairs: exact.JoinSpans(g, spansA, spansB),
			truth:    exact.JoinRasters(g, objsA, objsB),
		}
	}
	bad := func(p probe) (detail, got, want string, diverged bool) {
		switch {
		case p.err != "":
			return "product sum failed", p.err, "", true
		case p.jMBR != p.mbrPairs:
			return "MBR join diverges from the exact bounding-span pair count",
				fmt.Sprintf("%d", p.jMBR), fmt.Sprintf("%d", p.mbrPairs), true
		case p.jRaster != p.truth.ChiSum:
			return "raster join diverges from the exact Σχ",
				fmt.Sprintf("%d", p.jRaster), fmt.Sprintf("%d", p.truth.ChiSum), true
		case p.truth.AllUnit && p.jRaster > p.jMBR:
			// With every pairwise χ = 1 the raster join counts actual
			// cell-sharing pairs, a subset of the MBR-intersecting pairs;
			// thin diagonal slivers (χ = 2) void the comparison.
			return "raster join exceeds its MBR coarsening on an all-unit corpus",
				fmt.Sprintf("%d", p.jRaster), fmt.Sprintf("<= %d", p.jMBR), true
		}
		return "", "", "", false
	}
	if detail, got, want, diverged := bad(measure(polysA, polysB)); diverged {
		polysA, polysB = shrinkPair(polysA, polysB, func(a, b []geom.Polygon) bool {
			_, _, _, d := bad(measure(a, b))
			return d
		})
		detail2, got2, want2, _ := bad(measure(polysA, polysB))
		if detail2 != "" {
			detail, got, want = detail2, got2, want2
		}
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Polys: polysA, PolysB: polysB,
			Detail: detail, Got: got, Want: want}
	}

	// A cell-aligned corpus collapses the relaxation: the raster join is
	// certified, all-unit, and equals both the MBR join and the exact
	// pair count.
	alignedA := gen.Polygons(r, g, 3+r.Intn(5), gen.PolyOpts{Aligned: 1})
	alignedB := gen.Polygons(r, g, 3+r.Intn(5), gen.PolyOpts{Aligned: 1})
	alignedDiverges := func(pa, pb []geom.Polygon) (got, want string, diverged bool) {
		hra, objsA := rasterSide(g, pa)
		hrb, objsB := rasterSide(g, pb)
		je, err := core.NewJoin(core.NewSEuler(hra), core.NewSEuler(hrb))
		if err != nil {
			return err.Error(), "", true
		}
		est, err := je.Estimate()
		if err != nil {
			return err.Error(), "", true
		}
		truth := exact.JoinRasters(g, objsA, objsB)
		got = fmt.Sprintf("pairs=%d certified=%v", est.Pairs, est.Certified)
		want = fmt.Sprintf("pairs=%d certified=true", truth.Pairs)
		return got, want, got != want || !truth.AllUnit
	}
	if got, want, diverged := alignedDiverges(alignedA, alignedB); diverged {
		alignedA, alignedB = shrinkPair(alignedA, alignedB, func(a, b []geom.Polygon) bool {
			_, _, d := alignedDiverges(a, b)
			return d
		})
		got, want, _ = alignedDiverges(alignedA, alignedB)
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Polys: alignedA, PolysB: alignedB,
			Detail: "aligned-rectangle corpus is not certified-exact", Got: got, Want: want}
	}
	return nil
}
