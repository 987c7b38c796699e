package core

import (
	"fmt"
	"sort"

	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// MEuler is the Multi-resolution Euler Approximation algorithm
// (M-EulerApprox, §5.4). Objects are partitioned by area into m groups,
// one Euler histogram per group, with group i holding the objects whose
// area (in unit cells) lies in [area_i, area_{i+1}) — except group 0,
// which also takes everything smaller than area_0 = 1, and group m−1,
// which takes everything at or above area_{m−1}.
//
// A query of area a(q) is answered per group with whichever algorithm is
// sound for that (query size, object size) combination:
//
//   - a(q) ≤ area_i: no group-i object fits inside the query, so N_cs^i = 0
//     and S-EulerApprox supplies N_o^i.
//   - a(q) ≥ area_{i+1}: no group-i object can contain the query, so
//     S-EulerApprox supplies both N_o^i and N_cs^i.
//   - otherwise (including i = m−1): group-i objects may contain the
//     query; EulerApprox supplies N_o^i and N_cs^i.
//
// The partials are summed; N_d comes from the exact per-group intersect
// counts, and N_cd closes the system: N_cd = |S| − N_d − N_o − N_cs.
// (§5.4 writes N_cd = |S| − N_o − N_cs, an apparent typo that would leave
// the four counts summing to |S| + N_d; we keep the books balanced.)
type MEuler struct {
	g      *grid.Grid
	areas  []float64 // ascending thresholds in unit cells, areas[0] == 1
	hists  []*euler.Histogram
	seuler []*SEuler
	eapx   []*Euler
	n      int64
	name   string // Name, formatted as each group is added
	// unit is the area of one cell of g measured in base-resolution cells:
	// 1 for a base-level estimator, 4^k for the level-k member of a zoom
	// stack. Query areas are compared against the thresholds in base cells,
	// so the per-group algorithm choice is identical at every level.
	unit float64
}

// NewMEuler builds the m histograms of M-EulerApprox over g. areas lists
// the area attributes area(H_i) in unit cells, under the rules of
// Spec.Validate. Objects are assigned by their geometric area clipped to the
// data space.
//
// The groups are built one after another through a single euler.Builder, so
// construction holds one difference array beside the m planes it returns,
// not m: each object's group is worked out once up front (4 bytes per
// object while building), then one pass per group inserts its members.
func NewMEuler(g *grid.Grid, areas []float64, rects []geom.Rect) (*MEuler, error) {
	if err := (Spec{Algo: AlgoMEuler, Areas: areas}).Validate(); err != nil {
		return nil, err
	}
	m := &MEuler{g: g, areas: append([]float64(nil), areas...), unit: 1}
	group := make([]int32, len(rects)) // -1: outside the data space
	for i, r := range rects {
		group[i] = -1
		if gi, ok := ObjectAreaGroup(g, areas, r); ok {
			group[i] = int32(gi)
		}
	}
	b := euler.NewBuilder(g)
	for gi := range areas {
		if gi > 0 {
			b.Reset()
		}
		for i, r := range rects {
			if group[i] == int32(gi) {
				b.Add(r)
			}
		}
		m.addGroup(b.Build())
	}
	return m, nil
}

// addGroup appends the next area group's histogram.
func (m *MEuler) addGroup(h *euler.Histogram) {
	m.hists = append(m.hists, h)
	m.seuler = append(m.seuler, NewSEuler(h))
	m.eapx = append(m.eapx, NewEuler(h))
	m.n += h.Count()
	m.name = fmt.Sprintf("M-EulerApprox(%d)", len(m.hists))
}

// MEulerFromHistograms reassembles an M-EulerApprox estimator from
// prebuilt per-group histograms (e.g. loaded from disk). The thresholds
// follow the Spec.Validate rules and must pair one-to-one with the histograms,
// which must all share one grid. Group membership is taken as-is: the
// histograms are trusted to have been built with the same thresholds.
func MEulerFromHistograms(areas []float64, hists []*euler.Histogram) (*MEuler, error) {
	if len(hists) == 0 || len(hists) != len(areas) {
		return nil, fmt.Errorf("core: %d histograms for %d thresholds", len(hists), len(areas))
	}
	if err := (Spec{Algo: AlgoMEuler, Areas: areas}).Validate(); err != nil {
		return nil, err
	}
	g := hists[0].Grid()
	m := &MEuler{g: g, areas: append([]float64(nil), areas...), unit: 1}
	for _, h := range hists {
		hg := h.Grid()
		if hg.Extent() != g.Extent() || hg.NX() != g.NX() || hg.NY() != g.NY() {
			return nil, fmt.Errorf("core: histogram grids differ (%v vs %v)", hg, g)
		}
		m.addGroup(h)
	}
	return m, nil
}

// groupOf returns the histogram index for an object of the given area (in
// unit cells).
func (m *MEuler) groupOf(a float64) int { return AreaGroup(m.areas, a) }

// AreaGroup returns the M-EulerApprox partition index for an object of
// area a (in unit cells) under ascending thresholds areas: the largest i
// with areas[i] <= a, and 0 for sub-cell objects. It is the single routing
// rule shared by NewMEuler and by mutable stores that must insert and
// later delete an object into the same partition — and that must re-route
// an object whose area class changes on update.
func AreaGroup(areas []float64, a float64) int {
	// sort.SearchFloat64s returns the first index with areas[i] >= a.
	i := sort.SearchFloat64s(areas, a)
	if i < len(areas) && areas[i] == a {
		return i
	}
	if i == 0 {
		return 0
	}
	return i - 1
}

// ObjectAreaGroup routes one object MBR to its M-EulerApprox partition
// over g: the object is clipped to the data space and its area expressed
// in unit cells, exactly as NewMEuler assigns objects at construction. ok
// is false for objects entirely outside the space, which belong to no
// partition.
func ObjectAreaGroup(g *grid.Grid, areas []float64, r geom.Rect) (group int, ok bool) {
	clipped, ok := r.Clip(g.Extent())
	if !ok {
		return 0, false
	}
	return AreaGroup(areas, clipped.Area()/g.CellArea()), true
}

// Name implements Estimator.
func (m *MEuler) Name() string { return m.name }

// Grid implements Estimator.
func (m *MEuler) Grid() *grid.Grid { return m.g }

// Count implements Estimator.
func (m *MEuler) Count() int64 { return m.n }

// StorageBuckets implements Estimator: m histograms' worth of buckets.
func (m *MEuler) StorageBuckets() int {
	total := 0
	for _, h := range m.hists {
		total += h.StorageBuckets()
	}
	return total
}

// LatticeBytes implements LatticeSizer: every group's lattice.
func (m *MEuler) LatticeBytes() int {
	total := 0
	for _, h := range m.hists {
		total += h.LatticeBytes()
	}
	return total
}

// Areas returns a copy of the area thresholds.
func (m *MEuler) Areas() []float64 { return append([]float64(nil), m.areas...) }

// Histograms returns the per-group histograms, smallest area group first.
func (m *MEuler) Histograms() []*euler.Histogram {
	return append([]*euler.Histogram(nil), m.hists...)
}

// Estimate implements Estimator. Constant time: a constant number of
// lookups per histogram.
func (m *MEuler) Estimate(q grid.Span) Estimate {
	e, _ := m.estimate(q, false)
	return e
}

// GroupRole records which algorithm answered for one area group.
type GroupRole uint8

// The three per-group cases of §5.4.
const (
	// GroupNoContains: the query is no larger than the group's objects, so
	// N_cs^i = 0 by construction and only N_o^i is estimated.
	GroupNoContains GroupRole = iota
	// GroupSEuler: the group's objects cannot contain the query, so the
	// sound S-EulerApprox identities were used (exact up to crossovers).
	GroupSEuler
	// GroupEulerApprox: the group straddles the query size and the
	// EulerApprox heuristic was needed — the only source of estimation
	// error beyond crossover objects.
	GroupEulerApprox
)

// String implements fmt.Stringer.
func (r GroupRole) String() string {
	switch r {
	case GroupNoContains:
		return "no-contains"
	case GroupSEuler:
		return "s-euler"
	case GroupEulerApprox:
		return "euler-approx"
	}
	return "role(invalid)"
}

// GroupDetail is the per-group breakdown of one M-EulerApprox estimate.
type GroupDetail struct {
	Area     float64 // area(H_i)
	Count    int64   // objects in the group
	Role     GroupRole
	Estimate Estimate // the group's partial counts
}

// EstimateDetail returns the estimate together with the per-group
// breakdown — which groups were answered by a sound algorithm and which
// needed the EulerApprox heuristic. A query whose every group avoided
// GroupEulerApprox is exact up to crossover objects; clients can surface
// that as a confidence signal.
func (m *MEuler) EstimateDetail(q grid.Span) (Estimate, []GroupDetail) {
	return m.estimate(q, true)
}

// role picks the §5.4 case of area group i for a query of aq base cells.
func (m *MEuler) role(i int, aq float64) GroupRole {
	switch {
	case aq <= m.areas[i]:
		return GroupNoContains // no group-i object fits inside the query
	case i < len(m.hists)-1 && aq >= m.areas[i+1]:
		return GroupSEuler // no group-i object can contain the query
	}
	return GroupEulerApprox
}

// estimate is the one-tile case of addGrid: every group adds its four
// counts for q — each of its lattice sums read once — under the mask rule
// of its role, and by the linearity argument in batch.go's header the sums
// are N_d = |S| − Σ n_ii, N_o, N_cs and N_cd = |S| − N_d − N_o − N_cs. A
// group's own counts, summed apart, are its line of the breakdown.
func (m *MEuler) estimate(q grid.Span, detail bool) (Estimate, []GroupDetail) {
	// The query's area in base-resolution cells, computed in exact integer
	// arithmetic (cell counts are small enough for float64 to hold exactly)
	// so a level-k zoom member makes the same per-group choice as level 0.
	aq := float64(q.Cells()) * m.unit
	var sum Estimate
	var details []GroupDetail
	if detail {
		details = make([]GroupDetail, 0, len(m.hists))
	}
	for i := range m.hists {
		d := &sum
		var group Estimate
		if detail {
			d = &group
		}
		role := m.role(i, aq)
		switch role {
		case GroupNoContains:
			m.seuler[i].addMasked(d, q, 0)
		case GroupSEuler:
			m.seuler[i].addMasked(d, q, -1)
		default:
			m.eapx[i].add(d, q)
		}
		if detail {
			sum.Disjoint += group.Disjoint
			sum.Contains += group.Contains
			sum.Contained += group.Contained
			sum.Overlap += group.Overlap
			details = append(details, GroupDetail{Area: m.areas[i], Count: m.hists[i].Count(), Role: role, Estimate: group})
		}
	}
	return sum, details
}
