package check

import (
	"fmt"
	"math/rand"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// pyramidGrid draws an even-dimensioned grid that supports at least one
// coarse level under the check's small floor, occasionally with a
// non-unit extent.
func pyramidGrid(r *rand.Rand) *grid.Grid {
	nx := 2 * (4 + r.Intn(28))
	ny := 2 * (4 + r.Intn(28))
	if r.Intn(4) == 0 {
		x0 := (r.Float64() - 0.5) * 100
		y0 := (r.Float64() - 0.5) * 100
		w := (0.5 + r.Float64()*4) * float64(nx)
		h := (0.5 + r.Float64()*4) * float64(ny)
		return grid.New(geom.NewRect(x0, y0, x0+w, y0+h), nx, ny)
	}
	return grid.NewUnit(nx, ny)
}

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

// checkPyramidLevels compares every coarse level of p against a fresh
// direct build at that resolution.
func checkPyramidLevels(name string, seed int64, g *grid.Grid, p *euler.Pyramid, live []grid.Span, ctx string) *Divergence {
	r := gen.Rand(seed + 1)
	for k := 1; k < p.Levels(); k++ {
		want := pyramidFresh(g, live, k)
		probes := randQueries(r, want.Grid(), 6)
		if got, w, bad := histDiff(p.Level(k), want, probes); bad {
			return &Divergence{
				Check: name, Seed: seed, Grid: gridDesc(g),
				Detail: fmt.Sprintf("pyramid level %d diverged from a fresh coarse build (%s, %d live spans)", k, ctx, len(live)),
				Got:    got, Want: w,
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Oracle 5: pyramid levels vs fresh coarse builds.

// runPyramidVsFresh proves the coarsening stencil and the dirty-box
// repair propagation: every level of a cold pyramid, and of every
// generation of an incrementally maintained one (clone-repair and
// in-place arena donor paths, across crossover settings), is bit-identical
// to building that coarse histogram directly from the coarsened spans.
func runPyramidVsFresh(seed int64) *Divergence {
	const name = "pyramid-vs-fresh"
	r := gen.Rand(seed)
	g := pyramidGrid(r)
	popts := euler.PyramidOpts{MinGrid: 4, Workers: 1 + r.Intn(3)}

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
	p := euler.NewPyramid(h, popts)
	if d := checkPyramidLevels(name, seed, g, p, live, "cold build"); d != nil {
		return d
	}

	// Generational chain mirroring the live store: the previous base is
	// the BuildFrom donor every step; the retired generation (two back)
	// donates its buffers — base as scratch, pyramid for in-place repair —
	// exactly when the arena would.
	var retired *euler.Pyramid
	retiredStale := euler.EmptyRegion()
	steps := 3 + r.Intn(4)
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
		var crossover float64
		switch r.Intn(3) {
		case 0:
			crossover = -1 // always repair
		case 1:
			crossover = 1e-9 // always rebuild the base in full
		}
		var bopts euler.BuildFromOpts
		bopts.Crossover = crossover
		donor, inPlace := p, false
		if retired != nil && r.Intn(2) == 0 {
			bopts.Scratch, bopts.Stale = retired.Base(), retiredStale
			donor, inPlace = retired, true
			retired = nil // donated arrays are consumed
		}
		next, stats := b.BuildFrom(h, bopts)
		np := euler.PyramidFrom(next, euler.PyramidFromOpts{
			Opts:    popts,
			Donor:   donor,
			Stale:   stats.Dirty,
			InPlace: inPlace,
		})
		ctx := fmt.Sprintf("step %d/%d crossover=%g inPlace=%v", step+1, steps, crossover, inPlace)
		if d := checkPyramidLevels(name, seed, g, np, live, ctx); d != nil {
			return d
		}
		if retired == nil {
			retired, retiredStale = p, stats.Dirty
		} else {
			retiredStale = retiredStale.Union(stats.Dirty)
		}
		h, p = next, np
	}
	return nil
}

// ---------------------------------------------------------------------------
// Metamorphic: drill-down through pyramid levels.

// runPyramidDrill asserts the zoom stack's serving contract for all three
// algorithms: Zoom estimates equal the base estimator's everywhere (the
// routed level is invisible), and a drill-down through the stack — whose
// recursion descends the pyramid one level per halving — preserves the
// Eq. 11 conservation N_d + N_o + N_cs + N_cd = N at every leaf.
func runPyramidDrill(seed int64) *Divergence {
	const name = "pyramid-drill-conservation"
	r := gen.Rand(seed)
	g := pyramidGrid(r)
	rects := gen.Rects(r, g, 30+r.Intn(200), gen.RectOpts{PointFrac: 0.1})
	popts := euler.PyramidOpts{MinGrid: 4}
	areas := randAreas(r)

	meuler, err := core.NewMEuler(g, areas, rects)
	if err != nil {
		panic(fmt.Sprintf("check: NewMEuler(%v): %v", areas, err))
	}
	mh := meuler.Histograms()
	pyrs := make([]*euler.Pyramid, len(mh))
	for i, h := range mh {
		pyrs[i] = euler.NewPyramid(h, popts)
	}
	zm, err := core.ZoomMEuler(areas, pyrs)
	if err != nil {
		panic(fmt.Sprintf("check: ZoomMEuler: %v", err))
	}
	seuler := core.SEulerFromRects(g, rects)
	eapx := core.EulerFromRects(g, rects)
	stacks := []struct {
		name string
		base core.Estimator
		zoom *core.Zoom
	}{
		{"S-EulerApprox", seuler, core.ZoomSEuler(euler.NewPyramid(seuler.Histogram(), popts))},
		{"EulerApprox", eapx, core.ZoomEuler(euler.NewPyramid(eapx.Histogram(), popts))},
		{"M-EulerApprox", meuler, zm},
	}

	queries := randQueries(r, g, 16)
	for _, st := range stacks {
		n := st.base.Count()
		for _, q := range queries {
			got, want := st.zoom.Estimate(q), st.base.Estimate(q)
			if got != want {
				return minimize(name, st.name+": zoom estimate diverged from the base level", seed, g, rects, q,
					func(rs []geom.Rect, q grid.Span) (string, string, bool) {
						// Rebuild both paths over the candidate dataset.
						var base core.Estimator
						var zoom *core.Zoom
						switch st.name {
						case "S-EulerApprox":
							e := core.SEulerFromRects(g, rs)
							base, zoom = e, core.ZoomSEuler(euler.NewPyramid(e.Histogram(), popts))
						case "EulerApprox":
							e := core.EulerFromRects(g, rs)
							base, zoom = e, core.ZoomEuler(euler.NewPyramid(e.Histogram(), popts))
						default:
							m, err := core.NewMEuler(g, areas, rs)
							if err != nil {
								return "", "", false
							}
							hs := m.Histograms()
							ps := make([]*euler.Pyramid, len(hs))
							for i, h := range hs {
								ps[i] = euler.NewPyramid(h, popts)
							}
							z, err := core.ZoomMEuler(areas, ps)
							if err != nil {
								return "", "", false
							}
							base, zoom = m, z
						}
						got, want := zoom.Estimate(q), base.Estimate(q)
						return fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want), got != want
					})
			}
		}

		// Drill from the full region: every leaf of the adaptive
		// refinement must conserve Eq. 11 against the stack's count.
		full := grid.Span{I2: g.NX() - 1, J2: g.NY() - 1}
		tiles, err := core.Drilldown(st.zoom, full, core.DrillOptions{
			Relation:     geom.Rel2Overlap,
			HotThreshold: 1 + int64(r.Intn(5)),
			MaxDepth:     6,
		})
		if err != nil {
			return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
				Detail: st.name + ": Drilldown over the zoom stack failed: " + err.Error()}
		}
		for _, tile := range tiles {
			e := tile.Estimate
			if sum := e.Disjoint + e.Contains + e.Contained + e.Overlap; sum != n {
				qq := tile.Span
				return &Divergence{
					Check: name, Seed: seed, Grid: gridDesc(g), Query: &qq,
					Detail: fmt.Sprintf("%s: drill leaf at depth %d violates Eq. 11 conservation", st.name, tile.Depth),
					Got:    fmt.Sprintf("sum=%d (%+v)", sum, e),
					Want:   fmt.Sprintf("sum=%d", n),
				}
			}
		}
	}
	return nil
}
