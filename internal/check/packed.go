// Compressed-lattice checks. The packed int32 tier claims bit-identity
// with the full int64 representation at half the lattice bytes —
// a differential oracle recomputes every query family over both. The
// reduced overview tier claims a certified additive error: every bound
// it reports must actually contain the exact answer — a metamorphic
// property checked against the base lattice.
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

// ---------------------------------------------------------------------------
// Oracle: packed lattice vs full lattice.

// packedProbe renders every scalar query family of a lattice at q, the
// comparison unit of the packed-vs-full oracle.
func packedProbe(l euler.Lattice, q grid.Span) string {
	return fmt.Sprintf("inside=%d closed=%d outside=%d containedIn=%d latticeSum=%d seuler=%v euler=%v",
		l.InsideSum(q), l.ClosedSum(q), l.OutsideSum(q), l.ContainedIn(q),
		l.LatticeSum(2*q.I1, 2*q.J1, 2*q.I2, 2*q.J2),
		core.NewSEuler(l).Estimate(q), core.NewEuler(l).Estimate(q))
}

// divisorTiling draws a tiling whose tile counts divide the full-grid
// region evenly.
func divisorTiling(r *rand.Rand, n int) int {
	divs := []int{1}
	for d := 2; d <= n; d++ {
		if n%d == 0 {
			divs = append(divs, d)
		}
	}
	return divs[r.Intn(len(divs))]
}

func runPackedVsFull(seed int64) *Divergence {
	const name = "packed-vs-full"
	r := gen.Rand(seed)
	g := gen.Grid(r, 40, 40)
	rects := gen.Rects(r, g, 30+r.Intn(220), gen.RectOpts{PointFrac: 0.1})
	h := euler.FromRects(g, rects)
	p, ok := h.Pack()
	if !ok {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: fmt.Sprintf("Pack refused a count (%d) far inside the int32 range", h.Count())}
	}

	// The compression claim is structural: packing narrows the cumulative
	// plane from int64 to int32 and carries a class plane as it is, so it
	// saves exactly 4 bytes per bucket — half the lattice without a class
	// plane, less with one, which is why this compares computed bytes and
	// not a percentage.
	wrongBytes := func(h *euler.Histogram, p *euler.PackedHistogram, g *grid.Grid) *Divergence {
		want := h.LatticeBytes() - 4*h.StorageBuckets()
		if p.LatticeBytes() == want {
			return nil
		}
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: "packed lattice is not the full lattice less 4 bytes per bucket",
			Got:    fmt.Sprintf("%d bytes packed", p.LatticeBytes()),
			Want:   fmt.Sprintf("%d bytes (full %d, %d buckets)", want, h.LatticeBytes(), h.StorageBuckets())}
	}
	if d := wrongBytes(h, p, g); d != nil {
		return d
	}

	// Every scalar query family must be bit-identical.
	diverges := func(rs []geom.Rect, q grid.Span) (got, want string, bad bool) {
		hh := euler.FromRects(g, rs)
		pp, ok := hh.Pack()
		if !ok {
			return "", "", false
		}
		got, want = packedProbe(pp, q), packedProbe(hh, q)
		return got, want, got != want
	}
	for _, q := range randQueries(r, g, 16) {
		if _, _, bad := diverges(rects, q); bad {
			return minimize(name, "packed lattice diverges from the full lattice", seed, g, rects, q, diverges)
		}
	}

	// And so must the fused batch sweeps, across both estimator forms.
	region := grid.Span{I2: g.NX() - 1, J2: g.NY() - 1}
	cols, rows := divisorTiling(r, g.NX()), divisorTiling(r, g.NY())
	for _, pair := range [][2]core.BatchEstimator{
		{core.NewSEuler(h), core.NewSEuler(p)},
		{core.NewEuler(h), core.NewEuler(p)},
	} {
		want, err := pair[0].EstimateGrid(region, cols, rows)
		if err != nil {
			return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
				Detail: "full-tier sweep failed on a dividing tiling: " + err.Error()}
		}
		got, err := pair[1].EstimateGrid(region, cols, rows)
		if err != nil {
			return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
				Detail: "packed-tier sweep failed on a dividing tiling: " + err.Error()}
		}
		for k := range want {
			if got[k] != want[k] {
				return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Rects: rects,
					Detail: fmt.Sprintf("%s %dx%d sweep tile %d diverges on the packed lattice", pair[0].Name(), cols, rows, k),
					Got:    got[k].String(), Want: want[k].String()}
			}
		}
	}

	// Multi-span objects: a raster-built histogram carries the partial-cell
	// class plane through Pack, answers every query family identically, and
	// joins bit-identically in every tier combination.
	rg := gen.Grid(r, 24, 24)
	polys := gen.Polygons(r, rg, 5+r.Intn(6), gen.PolyOpts{Aligned: 0.2})
	hr, _ := rasterSide(rg, polys)
	pr, ok := hr.Pack()
	if !ok {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(rg),
			Detail: fmt.Sprintf("Pack refused a raster-built count (%d) far inside the int32 range", hr.Count())}
	}
	if pr.HasClassPlane() != hr.HasClassPlane() {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(rg), Polys: polys,
			Detail: "Pack dropped the partial-cell class plane"}
	}
	if d := wrongBytes(hr, pr, rg); d != nil {
		return d
	}
	rasterDiverges := func(ps []geom.Polygon, q grid.Span) (got, want string, bad bool) {
		hh, _ := rasterSide(rg, ps)
		pp, ok := hh.Pack()
		if !ok {
			return "", "", false
		}
		probe := func(l euler.Lattice) string {
			np, nok := l.(interface {
				PartialIn(grid.Span) (int64, bool)
			})
			partial, has := int64(-1), false
			if nok {
				partial, has = np.PartialIn(q)
			}
			return fmt.Sprintf("%s partial=%d,%v", packedProbe(l, q), partial, has)
		}
		got, want = probe(pp), probe(hh)
		return got, want, got != want
	}
	for _, q := range randQueries(r, rg, 12) {
		if got, want, bad := rasterDiverges(polys, q); bad {
			min := shrinkSlice(polys, 200, func(cand []geom.Polygon) bool {
				_, _, b := rasterDiverges(cand, q)
				return b
			})
			got, want, _ = rasterDiverges(min, q)
			return &Divergence{Check: name, Seed: seed, Grid: gridDesc(rg), Polys: min, Query: &q,
				Detail: "packed raster lattice diverges from the full lattice", Got: got, Want: want}
		}
	}
	polysB := gen.Polygons(r, rg, 5+r.Intn(6), gen.PolyOpts{Aligned: 0.2})
	hrB, _ := rasterSide(rg, polysB)
	prB, okB := hrB.Pack()
	if okB {
		wantJoin := productSum(hr, hrB)
		for tier, pair := range map[string][2]euler.Lattice{
			"packed+full":   {pr, hrB},
			"full+packed":   {hr, prB},
			"packed+packed": {pr, prB},
		} {
			if got := productSum(pair[0], pair[1]); got != wantJoin {
				return &Divergence{Check: name, Seed: seed, Grid: gridDesc(rg), Polys: polys, PolysB: polysB,
					Detail: fmt.Sprintf("raster %s join diverges from full+full", tier),
					Got:    got, Want: wantJoin}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Metamorphic: certified ε bounds of the reduced tier.

func runEpsilonBound(seed int64) *Divergence {
	const name = "epsilon-bound"
	r := gen.Rand(seed)
	g := pyramidGrid(r)
	rects := gen.Rects(r, g, 30+r.Intn(300), gen.RectOpts{PointFrac: 0.1})
	h := euler.FromRects(g, rects)
	p := euler.NewPyramid(h, euler.PyramidOpts{MinGrid: 4})
	if p.Levels() < 2 {
		return nil // grid too small to coarsen under the floor
	}
	shift := 1 + r.Intn(p.Levels()-1)
	red, err := euler.NewReduced(p, shift)
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: "NewReduced refused an in-range shift: " + err.Error()}
	}

	// Per-span certificates: the sandwich and the anchored slack must
	// contain the exact sums for every query.
	for _, q := range randQueries(r, g, 24) {
		b := red.SpanBounds(q)
		inside, closed := h.InsideSum(q), h.ClosedSum(q)
		if inside < b.InsideLo || inside > b.InsideHi {
			return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Rects: rects, Query: &q,
				Detail: fmt.Sprintf("InsideSum escapes the reduced sandwich at shift %d", shift),
				Got:    fmt.Sprintf("[%d, %d]", b.InsideLo, b.InsideHi), Want: fmt.Sprintf("%d", inside)}
		}
		if d := closed - b.Closed; d > b.ClosedSlack || -d > b.ClosedSlack {
			return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Rects: rects, Query: &q,
				Detail: fmt.Sprintf("ClosedSum escapes the anchored slack at shift %d", shift),
				Got:    fmt.Sprintf("%d±%d", b.Closed, b.ClosedSlack), Want: fmt.Sprintf("%d", closed)}
		}
	}

	// Served overview maps: a reported bound must be within budget and
	// must contain the exact per-tile S-EulerApprox answer.
	o, ok := core.OverviewFromPyramids([]*euler.Pyramid{p}, shift)
	if !ok {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: "overview derivation refused a valid pyramid/shift"}
	}
	se := core.NewSEuler(h)
	for trial := 0; trial < 12; trial++ {
		cols, rows := 1+r.Intn(3), 1+r.Intn(3)
		tw, th := 1+r.Intn(g.NX()/cols), 1+r.Intn(g.NY()/rows)
		i1 := r.Intn(g.NX() - cols*tw + 1)
		j1 := r.Intn(g.NY() - rows*th + 1)
		region := grid.Span{I1: i1, J1: j1, I2: i1 + cols*tw - 1, J2: j1 + rows*th - 1}
		eps := r.Float64() * 3
		approx, bound, served := o.EstimateGrid(region, cols, rows, eps)
		if !served {
			continue // decline is always allowed; the exact path serves
		}
		if bound > eps*float64(tw)*float64(th) {
			return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Rects: rects,
				Detail: fmt.Sprintf("served bound %g exceeds ε·|tile| = %g", bound, eps*float64(tw)*float64(th))}
		}
		exactEsts, err := se.EstimateGrid(region, cols, rows)
		if err != nil {
			return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
				Detail: "exact sweep failed on a served tiling: " + err.Error()}
		}
		lim := int64(bound)
		for k := range exactEsts {
			a, e := approx[k], exactEsts[k]
			if a.Disjoint+a.Contains+a.Contained+a.Overlap != h.Count() {
				return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Rects: rects,
					Detail: fmt.Sprintf("overview tile %d counts do not sum to N", k), Got: a.String()}
			}
			if abs(a.Disjoint-e.Disjoint) > lim || abs(a.Contains-e.Contains) > lim ||
				abs(a.Overlap-e.Overlap) > 2*lim {
				return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Rects: rects,
					Detail: fmt.Sprintf("overview tile %d drifts past its certified bound %g (ε=%g)", k, bound, eps),
					Got:    a.String(), Want: e.String()}
			}
		}
	}
	return nil
}

// abs is int64 absolute value.
func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
