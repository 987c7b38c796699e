package check

import (
	"fmt"
	"math/rand"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/exact"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/query"
)

// gridDesc renders a grid configuration for divergence reports.
func gridDesc(g *grid.Grid) string {
	ext := g.Extent()
	return fmt.Sprintf("%dx%d over [%g,%g]x[%g,%g]", g.NX(), g.NY(), ext.XMin, ext.XMax, ext.YMin, ext.YMax)
}

// randAreas draws a valid ascending M-EulerApprox area partitioning.
func randAreas(r *rand.Rand) []float64 {
	a2 := 2 + r.Float64()*8
	return []float64{1, a2, a2 + 1 + r.Float64()*40}
}

// mkEstimator is a named estimator constructor, so shrink predicates can
// rebuild the estimator over candidate datasets.
type mkEstimator struct {
	name string
	mk   func([]geom.Rect) core.Estimator
}

// paperEstimators returns constructors for all three §5 algorithms over g,
// with M-EulerApprox thresholds drawn from r.
func paperEstimators(r *rand.Rand, g *grid.Grid) []mkEstimator {
	areas := randAreas(r)
	return []mkEstimator{
		{"S-EulerApprox", func(rs []geom.Rect) core.Estimator { return core.SEulerFromRects(g, rs) }},
		{"EulerApprox", func(rs []geom.Rect) core.Estimator { return core.NewEuler(euler.FromRects(g, rs)) }},
		{"M-EulerApprox", func(rs []geom.Rect) core.Estimator {
			m, err := core.NewMEuler(g, areas, rs)
			if err != nil {
				panic(fmt.Sprintf("check: NewMEuler(%v): %v", areas, err))
			}
			return m
		}},
	}
}

// toCounts maps an Estimate onto the exact tally type for field-by-field
// comparison (Equals is always zero under the shrinking convention).
func toCounts(e core.Estimate) geom.Rel2Counts {
	return geom.Rel2Counts{Disjoint: e.Disjoint, Contains: e.Contains, Contained: e.Contained, Overlap: e.Overlap}
}

// randQueries draws n random spans plus the full-grid span.
func randQueries(r *rand.Rand, g *grid.Grid, n int) []grid.Span {
	qs := make([]grid.Span, 0, n+1)
	for i := 0; i < n; i++ {
		qs = append(qs, gen.Span(r, g))
	}
	return append(qs, grid.Span{I2: g.NX() - 1, J2: g.NY() - 1})
}

// divergeFn recomputes one comparison over a candidate dataset and query,
// reporting both sides and whether they disagree. It is the unit the
// shrinkers drive.
type divergeFn func(rects []geom.Rect, q grid.Span) (got, want string, bad bool)

// minimize shrinks a failing dataset+query pair and packages the result.
// diverges must report bad for (rects, q) as given.
func minimize(name, detail string, seed int64, g *grid.Grid, rects []geom.Rect, q grid.Span, diverges divergeFn) *Divergence {
	rects = shrinkSlice(rects, 400, func(rs []geom.Rect) bool {
		_, _, bad := diverges(rs, q)
		return bad
	})
	q = shrinkSpan(q, func(s grid.Span) bool {
		_, _, bad := diverges(rects, s)
		return bad
	})
	got, want, _ := diverges(rects, q)
	qq := q
	return &Divergence{
		Check: name, Seed: seed, Detail: detail, Grid: gridDesc(g),
		Rects: rects, Query: &qq, Got: got, Want: want,
	}
}

// ---------------------------------------------------------------------------
// Oracle 1: estimators vs internal/exact (and exact vs exact).

func runEstimatorVsExact(seed int64) *Divergence {
	const name = "estimator-vs-exact"
	r := gen.Rand(seed)
	// Grids stay small enough for the 4-d Oracle cube ((nx*ny)^2 cells).
	g := gen.Grid(r, 20, 20)
	rects := gen.Rects(r, g, 30+r.Intn(250), gen.RectOpts{PointFrac: 0.1})
	spans := exact.Spans(g, rects)
	queries := randQueries(r, g, 12)

	// Exact-vs-exact: the 4-d prefix-sum Oracle against brute force.
	oracle, err := exact.NewOracle(g, spans)
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: "exact.NewOracle failed on an in-budget grid: " + err.Error()}
	}
	for _, q := range queries {
		if oracle.Evaluate(q) != exact.EvaluateQuery(spans, q) {
			return minimize(name, "4-d prefix-sum Oracle disagrees with brute-force EvaluateQuery", seed, g, rects, q,
				func(rs []geom.Rect, q grid.Span) (string, string, bool) {
					sp := exact.Spans(g, rs)
					o, err := exact.NewOracle(g, sp)
					if err != nil {
						return "", "", false
					}
					got, want := o.Evaluate(q), exact.EvaluateQuery(sp, q)
					return fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want), got != want
				})
		}
	}

	// Exact-vs-exact: the one-pass set evaluator against brute force, tile
	// by tile over a random browsing interaction.
	region, cols, rows := gen.Tiling(r, g)
	qs, err := query.Browsing(region, cols, rows)
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: fmt.Sprintf("query.Browsing(%v,%d,%d) rejected a generated tiling: %v", region, cols, rows, err)}
	}
	set := exact.EvaluateSet(spans, qs)
	for k, tile := range qs.Tiles {
		if set[k] != exact.EvaluateQuery(spans, tile) {
			return minimize(name, fmt.Sprintf("EvaluateSet tile %d disagrees with brute-force EvaluateQuery", k), seed, g, rects, tile,
				func(rs []geom.Rect, q grid.Span) (string, string, bool) {
					// Tile identity must survive shrinking, so re-evaluate the
					// whole set and index the tile by span equality.
					sp := exact.Spans(g, rs)
					s := exact.EvaluateSet(sp, qs)
					for i, t := range qs.Tiles {
						if t == q {
							got, want := s[i], exact.EvaluateQuery(sp, t)
							return fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want), got != want
						}
					}
					return "", "", false
				})
		}
	}

	// Estimators vs exact on arbitrary data: conservation and the two
	// counts the paper proves exact for every algorithm (N_d, and with it
	// the intersect total).
	for _, me := range paperEstimators(r, g) {
		est := me.mk(rects)
		for _, q := range queries {
			e := est.Estimate(q)
			want := exact.EvaluateQuery(spans, q)
			switch {
			case e.Total() != est.Count():
				return minimize(name, me.name+" violates conservation (Total != |S|)", seed, g, rects, q,
					conservationDiverge(me))
			case e.Disjoint != want.Disjoint:
				return minimize(name, me.name+" N_d is not exact (Lemma: n_ii exact => N_d exact)", seed, g, rects, q,
					func(rs []geom.Rect, q grid.Span) (string, string, bool) {
						got := me.mk(rs).Estimate(q).Disjoint
						want := exact.EvaluateQuery(exact.Spans(g, rs), q).Disjoint
						return fmt.Sprintf("N_d=%d", got), fmt.Sprintf("N_d=%d", want), got != want
					})
			}
		}
	}

	// Assumption-clean configuration (§5.2): objects at most k x k cells
	// strictly inside the space, queries at least (k+1) x (k+1) cells — no
	// object can contain or cross such a query, so S-EulerApprox must match
	// the exact tally in all four counts.
	k := 1 + r.Intn(2)
	clean := gen.Rects(r, g, 30+r.Intn(150), gen.Small(k))
	for i := 0; i < 8; i++ {
		q, ok := gen.SpanMin(r, g, k+1, k+1)
		if !ok {
			break
		}
		got := toCounts(core.SEulerFromRects(g, clean).Estimate(q))
		want := exact.EvaluateQuery(exact.Spans(g, clean), q)
		if got != want {
			return minimize(name, fmt.Sprintf("S-EulerApprox not exact on a clean configuration (objects <= %dx%d cells, query >= %dx%d)", k, k, k+1, k+1),
				seed, g, clean, q,
				func(rs []geom.Rect, q grid.Span) (string, string, bool) {
					got := toCounts(core.SEulerFromRects(g, rs).Estimate(q))
					want := exact.EvaluateQuery(exact.Spans(g, rs), q)
					return fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want), got != want
				})
		}
	}
	return nil
}

// conservationDiverge is the shared Total-vs-Count predicate; the
// conservation metamorphic check reuses it.
func conservationDiverge(me mkEstimator) divergeFn {
	return func(rs []geom.Rect, q grid.Span) (string, string, bool) {
		est := me.mk(rs)
		e := est.Estimate(q)
		return fmt.Sprintf("%v Total=%d", e, e.Total()), fmt.Sprintf("|S|=%d", est.Count()), e.Total() != est.Count()
	}
}

// ---------------------------------------------------------------------------
// Oracle 2: batched tile maps vs the per-tile loop.

func runBatchVsPerTile(seed int64) *Divergence {
	const name = "batch-vs-per-tile"
	r := gen.Rand(seed)
	g := gen.Grid(r, 48, 48)
	rects := gen.Rects(r, g, 50+r.Intn(400), gen.RectOpts{PointFrac: 0.05})

	var region grid.Span
	var cols, rows int
	if r.Intn(4) == 0 {
		// Full-resolution map: one tile per cell, the densest browse the
		// server allows, large enough to cross the parallel fan-out floor
		// on big grids.
		region = grid.Span{I2: g.NX() - 1, J2: g.NY() - 1}
		cols, rows = g.NX(), g.NY()
	} else {
		region, cols, rows = gen.Tiling(r, g)
	}
	tiles := gen.Tiles(region, cols, rows)

	for _, me := range paperEstimators(r, g) {
		est := me.mk(rects)
		for _, variant := range []struct {
			label string
			run   func(core.Estimator) ([]core.Estimate, error)
		}{
			{"EstimateGrid", func(e core.Estimator) ([]core.Estimate, error) {
				return core.EstimateGrid(e, region, cols, rows)
			}},
			{"EstimateGridParallel", func(e core.Estimator) ([]core.Estimate, error) {
				return core.EstimateGridParallel(e, region, cols, rows, 2+r.Intn(3))
			}},
			{"EstimateGridInto", func(e core.Estimator) ([]core.Estimate, error) {
				// A dirty plane filled in random row bands: none of the
				// garbage may show through and the seams must not either.
				plane := make([]core.Estimate, cols*rows)
				for k := range plane {
					plane[k] = core.Estimate{Disjoint: r.Int63(), Contains: -r.Int63(), Contained: r.Int63(), Overlap: -r.Int63()}
				}
				th := region.Height() / rows
				for r0 := 0; r0 < rows; {
					r1 := r0 + 1 + r.Intn(rows-r0)
					err := core.EstimateGridInto(e, plane[r0*cols:r1*cols], query.RowBand(region, th, r0, r1-1), cols, r1-r0)
					if err != nil {
						return nil, err
					}
					r0 = r1
				}
				return plane, nil
			}},
		} {
			batch, err := variant.run(est)
			if err != nil {
				return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
					Detail: fmt.Sprintf("%s/%s rejected tiling %v %dx%d: %v", me.name, variant.label, region, cols, rows, err)}
			}
			per := core.EstimateSet(est, tiles)
			for k := range tiles {
				if batch[k] != per[k] {
					me, variant, k := me, variant, k
					return minimize(name,
						fmt.Sprintf("%s/%s tile %d differs from per-tile Estimate", me.name, variant.label, k),
						seed, g, rects, tiles[k],
						func(rs []geom.Rect, _ grid.Span) (string, string, bool) {
							// The tile index is fixed by the tiling; only the
							// dataset shrinks.
							e := me.mk(rs)
							b, err := variant.run(e)
							if err != nil {
								return "", "", false
							}
							w := e.Estimate(tiles[k])
							return b[k].String(), w.String(), b[k] != w
						})
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Oracle 3: incremental BuildFrom chains vs fresh builds.

// histDiff reports the first difference between two histograms that must be
// bit-identical, probing raw buckets, counts and the cumulative lattice.
func histDiff(got, want *euler.Histogram, probes []grid.Span) (string, string, bool) {
	if got.Count() != want.Count() {
		return fmt.Sprintf("Count=%d", got.Count()), fmt.Sprintf("Count=%d", want.Count()), true
	}
	glx, gly := got.Buckets()
	wlx, wly := want.Buckets()
	if glx != wlx || gly != wly {
		return fmt.Sprintf("lattice %dx%d", glx, gly), fmt.Sprintf("lattice %dx%d", wlx, wly), true
	}
	for u := 0; u < glx; u++ {
		for v := 0; v < gly; v++ {
			if got.Bucket(u, v) != want.Bucket(u, v) {
				return fmt.Sprintf("bucket(%d,%d)=%d", u, v, got.Bucket(u, v)),
					fmt.Sprintf("bucket(%d,%d)=%d", u, v, want.Bucket(u, v)), true
			}
		}
	}
	// Raw buckets equal; probe the cumulative form too, which repair
	// maintains separately and could corrupt independently.
	if got.Total() != want.Total() {
		return fmt.Sprintf("Total=%d", got.Total()), fmt.Sprintf("Total=%d", want.Total()), true
	}
	for _, q := range probes {
		if got.InsideSum(q) != want.InsideSum(q) {
			return fmt.Sprintf("InsideSum(%v)=%d", q, got.InsideSum(q)),
				fmt.Sprintf("InsideSum(%v)=%d", q, want.InsideSum(q)), true
		}
	}
	return "", "", false
}

func runIncrementalVsFresh(seed int64) *Divergence {
	const name = "incremental-vs-fresh"
	r := gen.Rand(seed)
	g := gen.Grid(r, 32, 32)
	b := euler.NewBuilder(g)

	var live []grid.Span
	addRandom := func() {
		if s, ok := g.Snap(gen.Rect(r, g, gen.RectOpts{PointFrac: 0.1})); ok {
			b.AddSpan(s)
			live = append(live, s)
		}
	}
	for i, n := 0, 20+r.Intn(150); i < n; i++ {
		addRandom()
	}
	h := b.Build()
	probes := randQueries(r, g, 8)

	// Arena emulation: the previous generation is a scratch donor whose
	// stale region is the dirty box that separated it from the current one.
	var retired *euler.Histogram
	var retiredStale euler.DirtyRegion

	steps := 3 + r.Intn(5)
	for step := 0; step < steps; step++ {
		for i, n := 0, 1+r.Intn(40); i < n; i++ {
			if len(live) > 0 && r.Intn(4) == 0 {
				k := r.Intn(len(live))
				if b.RemoveSpan(live[k]) {
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			} else {
				addRandom()
			}
		}
		d := b.Dirty()
		var opts euler.BuildFromOpts
		switch r.Intn(3) {
		case 0:
			opts.Crossover = -1 // always repair
		case 1:
			opts.Crossover = 1e-9 // always fall back to a full rebuild
			opts.Workers = 1 + r.Intn(3)
		}
		if retired != nil && r.Intn(2) == 0 {
			opts.Scratch, opts.Stale = retired, retiredStale
			retired = nil // donated arrays are consumed
		}
		prev := h
		next, _ := b.BuildFrom(h, opts)

		fb := euler.NewBuilder(g)
		for _, s := range live {
			fb.AddSpan(s)
		}
		want := fb.Build()
		if got, w, bad := histDiff(next, want, probes); bad {
			return &Divergence{
				Check: name, Seed: seed, Grid: gridDesc(g),
				Detail: fmt.Sprintf(
					"BuildFrom chain diverged from a fresh build at step %d/%d (opts crossover=%g scratch=%v, %d live spans)",
					step+1, steps, opts.Crossover, opts.Scratch != nil, len(live)),
				Got: got, Want: w,
			}
		}
		// prev differs from next only inside the dirty box captured before
		// the build, making it a valid donor for the next generation.
		retired, retiredStale = prev, d
		h = next
	}

	// Drain to empty: the histogram of zero objects must be bit-identical
	// to a freshly built empty one (no residual dirty-box damage).
	for len(live) > 0 {
		k := r.Intn(len(live))
		b.RemoveSpan(live[k])
		live[k] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	final, _ := b.BuildFrom(h, euler.BuildFromOpts{Crossover: -1})
	if got, w, bad := histDiff(final, euler.NewBuilder(g).Build(), probes); bad {
		return &Divergence{
			Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: "draining every object and repairing did not return the histogram to the empty state",
			Got:    got, Want: w,
		}
	}
	return nil
}
