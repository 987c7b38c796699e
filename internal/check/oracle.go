package check

import (
	"fmt"
	"math/rand"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
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

// randAreas draws a valid ascending M-EulerApprox partitioning of 1 to 5 groups.
func randAreas(r *rand.Rand) []float64 {
	areas := []float64{1}
	for k := r.Intn(5); k > 0; k-- {
		areas = append(areas, areas[len(areas)-1]+1+r.Float64()*20)
	}
	return areas
}

// paperSpecs returns the specs of the paper's three algorithms (§5), the
// M-EulerApprox thresholds drawn from r.
func paperSpecs(r *rand.Rand) []core.Spec {
	return []core.Spec{{Algo: core.AlgoSEuler}, {Algo: core.AlgoEuler}, {Algo: core.AlgoMEuler, Areas: randAreas(r)}}
}

// mkEstimator is a named estimator constructor, so shrink predicates can
// rebuild the estimator over candidate datasets.
type mkEstimator struct {
	name string
	mk   func([]geom.Rect) core.Estimator
}

// paperEstimators returns constructors for all three §5 algorithms over g.
func paperEstimators(r *rand.Rand, g *grid.Grid) []mkEstimator {
	var out []mkEstimator
	for _, spec := range paperSpecs(r) {
		out = append(out, mkEstimator{spec.Algo.String(), func(rs []geom.Rect) core.Estimator {
			est, err := spec.FromRects(g, rs)
			if err != nil {
				panic(fmt.Sprintf("check: %v over %d objects: %v", spec, len(rs), err))
			}
			return est
		}})
	}
	return out
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
// Oracle: estimators vs internal/exact (and exact vs exact).

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
