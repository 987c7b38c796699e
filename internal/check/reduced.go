// The reduced overview tier claims a certified additive error: every
// bound it reports must actually contain the exact answer — a metamorphic
// property checked against the base lattice.
package check

import (
	"fmt"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/grid"
)

// ---------------------------------------------------------------------------
// Metamorphic: certified ε bounds of the reduced tier.

func runEpsilonBound(seed int64) *Divergence {
	const name = "epsilon-bound"
	r := gen.Rand(seed)
	g := gen.EvenGrid(r, 62)
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
		exactEsts, err := core.EstimateGrid(se, region, cols, rows)
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
