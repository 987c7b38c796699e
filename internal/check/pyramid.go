package check

import (
	"fmt"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// pyramidFresh is the definitional coarse build: a new builder over the
// 2^k-coarsened grid fed the floor-halved base spans.
func pyramidFresh(g *grid.Grid, spans []grid.Span, k int) *euler.Histogram {
	cg := grid.New(g.Extent(), g.NX()>>k, g.NY()>>k)
	b := euler.NewBuilder(cg)
	for _, s := range spans {
		b.AddSpan(euler.CoarseSpan(s, k))
	}
	return b.Build()
}

// ---------------------------------------------------------------------------
// Metamorphic: drill-down through pyramid levels.

// runPyramidDrill asserts, for all three algorithms, that a drill-down
// through the zoom stack — whose recursion descends the pyramid one level
// per halving — preserves the Eq. 11 conservation N_d + N_o + N_cs + N_cd
// = N at every leaf. That the stack estimates as its base level does is
// the transcript checks' to hold: they hold every zoom stack they read to
// a fresh build.
func runPyramidDrill(seed int64) *Divergence {
	const name = "pyramid-drill-conservation"
	r := gen.Rand(seed)
	g := gen.EvenGrid(r, 62)
	rects := gen.Rects(r, g, 30+r.Intn(200), gen.RectOpts{PointFrac: 0.1})
	for _, spec := range paperSpecs(r) {
		base, err := spec.FromRects(g, rects)
		if err != nil {
			panic(fmt.Sprintf("check: building %v: %v", spec, err))
		}
		s, pyrs, _ := core.Pyramids(base, popts)
		zoom, err := s.FromPyramids(pyrs)
		if err != nil {
			return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "assembling the zoom stack: " + err.Error()}
		}
		n := base.Count()

		// Drill from the full region: every leaf of the adaptive
		// refinement must conserve Eq. 11 against the stack's count.
		full := grid.Span{I2: g.NX() - 1, J2: g.NY() - 1}
		tiles, err := core.Drilldown(zoom, full, core.DrillOptions{
			Relation:     geom.Rel2Overlap,
			HotThreshold: 1 + int64(r.Intn(5)),
			MaxDepth:     6,
		})
		if err != nil {
			return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
				Detail: base.Name() + ": Drilldown over the zoom stack failed: " + err.Error()}
		}
		for _, tile := range tiles {
			e := tile.Estimate
			if sum := e.Disjoint + e.Contains + e.Contained + e.Overlap; sum != n {
				qq := tile.Span
				return &Divergence{
					Check: name, Seed: seed, Grid: gridDesc(g), Query: &qq,
					Detail: fmt.Sprintf("%s: drill leaf at depth %d violates Eq. 11 conservation", base.Name(), tile.Depth),
					Got:    fmt.Sprintf("sum=%d (%+v)", sum, e),
					Want:   fmt.Sprintf("sum=%d", n),
				}
			}
		}
	}
	return nil
}
