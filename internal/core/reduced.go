// The ε-approximate overview tier: browse maps served from euler.Reduced
// lattices with a per-request proof that every returned count is within
// ε·|tile| of what the exact S-EulerApprox identities would return over the
// base lattice. Overview zoom levels are where tiles span hundreds of base
// cells, so a certified additive slack of a few objects per tile is
// invisible in a heat map — but unlike a sampled or cached answer, the
// bound is checked per tile and the whole map falls back to the exact path
// the moment one tile cannot be certified.
package core

import (
	"fmt"

	"spatialhist/internal/euler"
	"spatialhist/internal/grid"
	"spatialhist/internal/query"
	"spatialhist/internal/telemetry"
)

// DefaultOverviewShift is the pyramid level backing the reduced tier: two
// halvings (1/16 the base lattice memory), or as deep as a shallower
// pyramid goes.
const DefaultOverviewShift = 2

// Overview serves certified approximate browse maps from one reduced
// lattice per area group (a single group for S-Euler/Euler stacks). The
// served estimates are in S-EulerApprox form — Contained is 0 and Contains
// carries the N_cs identity — summed across groups, which telescopes to
// exactly the S-EulerApprox answer over the whole object set.
type Overview struct {
	groups []*euler.Reduced
	n      int64
	served *telemetry.Counter
}

// NewOverview assembles the overview tier from per-group reduced lattices,
// which must share one base grid.
func NewOverview(groups []*euler.Reduced) (*Overview, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: an Overview needs at least one reduced lattice")
	}
	base := groups[0].Grid()
	o := &Overview{
		groups: groups,
		served: telemetry.Default().Counter("core_reduced_estimates_total",
			"Browse maps served from the ε-approximate reduced tier."),
	}
	for _, r := range groups {
		if r.Grid() != base {
			return nil, fmt.Errorf("core: reduced lattices disagree on the base grid")
		}
		o.n += r.Count()
	}
	return o, nil
}

// OverviewFromPyramids derives the overview tier at the given shift from
// one pyramid per area group. ok is false when any pyramid is too shallow
// for the shift (or shift < 1): the caller then serves exact tiers only.
func OverviewFromPyramids(pyrs []*euler.Pyramid, shift int) (*Overview, bool) {
	if len(pyrs) == 0 || shift < 1 {
		return nil, false
	}
	groups := make([]*euler.Reduced, len(pyrs))
	for i, p := range pyrs {
		r, err := euler.NewReduced(p, shift)
		if err != nil {
			return nil, false
		}
		groups[i] = r
	}
	o, err := NewOverview(groups)
	if err != nil {
		return nil, false
	}
	return o, true
}

// Shift returns the base→coarse halvings of the tier.
func (o *Overview) Shift() int { return o.groups[0].Shift() }

// EstimateGrid answers the cols×rows tiling of region from the reduced
// tier when every tile's certified error is at most eps·|tile| (in base
// cells). On success it returns the estimates, the largest certified
// per-tile error bound, and ok=true; each tile's Disjoint, Contains and
// Overlap then differ from the exact S-EulerApprox values by at most its
// certificate, and the four counts still sum exactly to |S|. ok=false
// means at least one tile could not be certified under eps and the caller
// must serve the exact path — the reduced tier never returns an uncertified
// answer.
func (o *Overview) EstimateGrid(region grid.Span, cols, rows int, eps float64) ([]Estimate, float64, bool) {
	tw, th, err := query.Tiling(region, cols, rows)
	if err != nil {
		return nil, 0, false
	}
	budget := eps * float64(tw) * float64(th)
	nTiles := cols * rows
	insideLo := make([]int64, nTiles)
	insideHi := make([]int64, nTiles)
	closed := make([]int64, nTiles)
	slack := make([]int64, nTiles)
	for _, rd := range o.groups {
		bs, err := rd.GridBounds(region, cols, rows)
		if err != nil {
			return nil, 0, false
		}
		for k := 0; k < nTiles; k++ {
			insideLo[k] += bs.InsideLo[k]
			insideHi[k] += bs.InsideHi[k]
			closed[k] += bs.Closed[k]
			slack[k] += bs.ClosedSlack[k]
		}
	}
	out := make([]Estimate, nTiles)
	var maxErr float64
	for k := 0; k < nTiles; k++ {
		niiMid := insideLo[k] + (insideHi[k]-insideLo[k])/2
		errNii := insideHi[k] - niiMid // ≥ the deviation either way
		cert := float64(errNii + slack[k])
		if cert > budget {
			return nil, 0, false
		}
		maxErr = max(maxErr, cert)
		nei := o.n - closed[k]
		nd := o.n - niiMid
		out[k] = Estimate{
			Disjoint:  nd,
			Contains:  o.n - nei,
			Contained: 0,
			Overlap:   nei - nd,
		}
	}
	o.served.Inc()
	return out, maxErr, true
}

// Overview returns the stack's reduced tier, or nil.
func (z *Zoom) Overview() *Overview { return z.overview }
