package spatialhist

// One benchmark per paper table/figure (BenchmarkFig*) driving the same
// runners as cmd/experiments, plus micro-benchmarks for the individual
// operations whose constant-time behavior §5 and §6.5 claim. Figure
// benches run at a reduced scale; use `go run ./cmd/experiments -scale
// paper` for paper-scale numbers (recorded in EXPERIMENTS.md).

import (
	"math/rand"
	"sync"
	"testing"

	"spatialhist/internal/baseline"
	"spatialhist/internal/core"
	"spatialhist/internal/dataset"
	"spatialhist/internal/exact"
	"spatialhist/internal/experiments"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/interval"
	"spatialhist/internal/rtree"
)

// benchEnv is shared by the figure benches so dataset generation and
// ground truth are paid once, not per benchmark.
var (
	benchEnvOnce sync.Once
	benchEnvVal  *experiments.Env
)

func benchEnv() *experiments.Env {
	benchEnvOnce.Do(func() {
		benchEnvVal = experiments.NewEnv(experiments.Scaled(20_000))
	})
	return benchEnvVal
}

func BenchmarkFig12DatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig12(benchEnv())
	}
}

func BenchmarkFig13SEulerScatter(b *testing.B) {
	e := benchEnv()
	e.Truth("sp_skew", 10) // warm the caches outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig13(e)
	}
}

func BenchmarkFig14SEulerError(b *testing.B) {
	e := benchEnv()
	_ = experiments.Fig14(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig14(e)
	}
}

func BenchmarkFig15EulerScatter(b *testing.B) {
	e := benchEnv()
	_ = experiments.Fig15(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig15(e)
	}
}

func BenchmarkFig16EulerError(b *testing.B) {
	e := benchEnv()
	_ = experiments.Fig16(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig16(e)
	}
}

func BenchmarkFig17MEuler2Hist(b *testing.B) {
	e := benchEnv()
	_ = experiments.Fig17(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig17(e)
	}
}

func BenchmarkFig18MEulerMoreHists(b *testing.B) {
	e := benchEnv()
	_ = experiments.Fig18(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig18(e)
	}
}

func BenchmarkFig19QueryTime(b *testing.B) {
	// Fig19 is itself a timing harness; benching it once per iteration
	// reports the cost of regenerating the whole figure.
	e := experiments.NewEnv(experiments.Scaled(5_000))
	_ = e.Dataset("adl")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig19(e)
	}
}

func BenchmarkTheorem31ExactStructure(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		_ = experiments.Theorem31(e)
	}
}

func BenchmarkIntersectBaselines(b *testing.B) {
	e := benchEnv()
	_ = experiments.IntersectBaselines(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.IntersectBaselines(e)
	}
}

func BenchmarkAblation(b *testing.B) {
	e := benchEnv()
	_ = experiments.Ablation(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Ablation(e)
	}
}

// --- micro-benchmarks ---

func benchQueries(g *grid.Grid, n int) []grid.Span {
	r := rand.New(rand.NewSource(9))
	out := make([]grid.Span, n)
	for i := range out {
		w := 1 + r.Intn(min(20, g.NX()))
		h := 1 + r.Intn(min(20, g.NY()))
		i1 := r.Intn(g.NX() - w + 1)
		j1 := r.Intn(g.NY() - h + 1)
		out[i] = grid.Span{I1: i1, J1: j1, I2: i1 + w - 1, J2: j1 + h - 1}
	}
	return out
}

// BenchmarkEstimate measures one constant-time estimate per algorithm —
// the §5 claim — grouped under one name so one -bench pattern runs all
// three.
func BenchmarkEstimate(b *testing.B) {
	e := benchEnv()
	for _, c := range []struct {
		name string
		est  core.Estimator
	}{
		{"seuler", e.SEuler("adl")},
		{"euler", e.Euler("adl")},
		{"meuler5", e.MEuler("adl", []float64{1, 9, 25, 100, 225})},
	} {
		qs := benchQueries(e.Grid(), 1024)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = c.est.Estimate(qs[i&1023])
			}
		})
	}
}

func BenchmarkHistogramBuild(b *testing.B) {
	e := benchEnv()
	d := e.Dataset("adl")
	g := e.Grid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSEuler(g, d.Rects)
		_ = s.Count()
	}
}

func BenchmarkRTreeCountRel2(b *testing.B) {
	e := benchEnv()
	d := e.Dataset("adl")
	tree := rtree.BulkDefault(d.Rects)
	g := e.Grid()
	qs := benchQueries(g, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tree.CountRel2(g.SpanRect(qs[i&255]))
	}
}

func BenchmarkCDIntersect(b *testing.B) {
	e := benchEnv()
	cd := baseline.NewCD(e.Grid(), e.Dataset("adl").Rects)
	qs := benchQueries(e.Grid(), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cd.Intersecting(qs[i&1023])
	}
}

func BenchmarkMinSkewIntersect(b *testing.B) {
	e := benchEnv()
	ms, err := baseline.NewMinSkew(e.Grid(), e.Dataset("adl").Rects, 200)
	if err != nil {
		b.Fatal(err)
	}
	qs := benchQueries(e.Grid(), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ms.Intersecting(qs[i&1023])
	}
}

func BenchmarkCumulativeVsNaiveSum(b *testing.B) {
	e := benchEnv()
	h := e.Histogram("adl")
	qs := benchQueries(e.Grid(), 1024)
	b.Run("cumulative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = h.InsideSum(qs[i&1023])
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = h.NaiveInsideSum(qs[i&1023])
		}
	})
}

func BenchmarkExactEvaluateSetQ10(b *testing.B) {
	e := benchEnv()
	spans := e.Spans("adl")
	qs := e.QuerySet(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = exact.EvaluateSet(spans, qs)
	}
}

func BenchmarkOracleEvaluate(b *testing.B) {
	g := grid.NewUnit(36, 18)
	d := dataset.SzSkew(10_000, 3)
	gg := grid.New(d.Extent, 36, 18)
	spans := exact.Spans(gg, d.Rects)
	o, err := exact.NewOracle(g, spans)
	if err != nil {
		b.Fatal(err)
	}
	qs := benchQueries(g, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Evaluate(qs[i&255])
	}
}

func BenchmarkTuneAreas(b *testing.B) {
	d := dataset.SzSkew(5_000, 5)
	g := grid.New(d.Extent, 72, 36)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Tune(g, d.Rects, []int{12, 6, 4}, core.TuneOptions{
			MaxQueryCells: 144, TargetError: 0.02, MaxHistograms: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// perTileOnly hides the batch path so core.EstimateGrid takes the generic
// per-tile fallback — the pre-batch serving path (query.Browsing +
// EstimateSet) behind the same entry point.
type perTileOnly struct{ core.Estimator }

// BenchmarkBrowseGrid measures a 100x100-tile browse map — the paper's
// GeoBrowsing interaction — answered through core.EstimateGrid: over the
// whole space, EulerApprox per tile over a query.Browsing tiling and in one
// sweep, and the served M-EulerApprox(1, 9, 100), whose groups share one
// fused pass with one group in the EulerApprox role; and, as
// batched-meuler-unit, the served estimator on the unaligned 1-cell tiles
// of a cold map, where every group is in the no-contains role.
func BenchmarkBrowseGrid(b *testing.B) {
	d := dataset.SzSkew(200_000, 3)
	g := grid.New(d.Extent, 400, 300)
	est := core.EulerFromRects(g, d.Rects)
	served, err := core.NewMEuler(g, []float64{1, 9, 100}, d.Rects)
	if err != nil {
		b.Fatal(err)
	}
	whole := grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
	unit := grid.Span{I1: 151, J1: 101, I2: 250, J2: 200}
	const cols, rows = 100, 100
	for _, run := range []struct {
		name   string
		est    core.Estimator
		region grid.Span
	}{
		{"per-tile", perTileOnly{est}, whole},
		{"batched", est, whole},
		{"batched-meuler", served, whole},
		{"batched-meuler-unit", served, unit},
	} {
		b.Run(run.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.EstimateGrid(run.est, run.region, cols, rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkIntervalEstimate(b *testing.B) {
	r := rand.New(rand.NewSource(13))
	d := interval.NewDomain(0, 1000, 1000)
	ib := interval.NewBuilder(d)
	segs := make([]interval.Seg, 0, 100_000)
	for len(segs) < 100_000 {
		i1 := r.Intn(1000)
		s := interval.Seg{I1: i1, I2: min(999, i1+r.Intn(50))}
		ib.AddSeg(s)
		segs = append(segs, s)
	}
	lp, err := interval.NewLengthPartitioned(d, []int{1, 5, 11, 26}, segs)
	if err != nil {
		b.Fatal(err)
	}
	h := ib.Build()
	qs := make([]interval.Seg, 256)
	for i := range qs {
		i1 := r.Intn(990)
		qs[i] = interval.Seg{I1: i1, I2: i1 + 9}
	}
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = h.Estimate(qs[i&255])
		}
	})
	b.Run("partitioned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = lp.Estimate(qs[i&255])
		}
	})
}

func BenchmarkDrilldown(b *testing.B) {
	e := benchEnv()
	est := e.SEuler("adl")
	region := grid.Span{I1: 0, J1: 0, I2: e.Grid().NX() - 1, J2: e.Grid().NY() - 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Drilldown(est, region, core.DrillOptions{
			Relation:     geom.Rel2Contains,
			HotThreshold: 50,
			MaxDepth:     8,
			MaxTiles:     100000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
