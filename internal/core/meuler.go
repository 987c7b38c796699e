package core

import (
	"fmt"
	"slices"
	"sort"

	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/query"
)

// MEuler is the Multi-resolution Euler Approximation algorithm
// (M-EulerApprox, §5.4). Objects are partitioned by area into m groups,
// with group i holding the objects whose area (in unit cells) lies in
// [area_i, area_{i+1}) — except group 0, which also takes everything
// smaller than area_0 = 1, and group m−1, which takes everything at or
// above area_{m−1}.
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
//
// The histograms are held nested, plane k holding groups 0..k: the roles
// are monotone in the group index, so a query reads at most three planes.
type MEuler struct {
	g      *grid.Grid
	areas  []float64          // ascending thresholds in unit cells, areas[0] == 1
	planes []*euler.Histogram // planes[k] holds groups 0..k: C_{k+1}
	name   string
	// unit is the area of one cell of g measured in base-resolution cells:
	// 1 for a base-level estimator, 4^k for the level-k member of a zoom
	// stack. Query areas are compared against the thresholds in base cells,
	// so the per-group algorithm choice is identical at every level.
	unit float64
}

// NewMEuler builds the nested planes of M-EulerApprox over g. areas lists
// the area attributes area(H_i) in unit cells, under the rules of
// Spec.Validate. Objects are assigned by their geometric area clipped to the
// data space.
//
// One euler.Builder takes the groups in order, smallest area first, and
// each plane is its Build after the group's objects: the last is its
// Finish, the difference array become the plane, so construction allocates
// the m planes it returns and no lattice beside them. Each object's group
// is worked out once up front (4 bytes per object while building).
func NewMEuler(g *grid.Grid, areas []float64, rects []geom.Rect) (*MEuler, error) {
	if err := (Spec{Algo: AlgoMEuler, Areas: areas}).Validate(); err != nil {
		return nil, err
	}
	group := make([]int32, len(rects)) // -1: outside the data space
	for i, r := range rects {
		group[i] = -1
		if gi, ok := ObjectAreaGroup(g, areas, r); ok {
			group[i] = int32(gi)
		}
	}
	b := euler.NewBuilder(g)
	planes := make([]*euler.Histogram, len(areas))
	for gi := range planes {
		for i, r := range rects {
			if group[i] == int32(gi) {
				b.Add(r)
			}
		}
		if gi < len(planes)-1 {
			planes[gi] = b.Build()
		}
	}
	planes[len(planes)-1] = b.Finish()
	return MEulerFromHistograms(areas, planes)
}

// MEulerFromHistograms reassembles an M-EulerApprox estimator from
// prebuilt nested planes (euler.ReadAbove forms them from group files).
// The thresholds follow the Spec.Validate rules and must pair one-to-one
// with the planes, which must all share one grid. Group membership is taken
// as-is: the planes are trusted to have been built with the same
// thresholds. The planes are held at one cell width, the widest any needs,
// so one kernel instantiation sweeps every plane a query reads.
func MEulerFromHistograms(areas []float64, planes []*euler.Histogram) (*MEuler, error) {
	if len(planes) == 0 || len(planes) != len(areas) {
		return nil, fmt.Errorf("core: %d histograms for %d thresholds", len(planes), len(areas))
	}
	if err := (Spec{Algo: AlgoMEuler, Areas: areas}).Validate(); err != nil {
		return nil, err
	}
	g := planes[0].Grid()
	for _, h := range planes {
		hg := h.Grid()
		if hg.Extent() != g.Extent() || hg.NX() != g.NX() || hg.NY() != g.NY() {
			return nil, fmt.Errorf("core: histogram grids differ (%v vs %v)", hg, g)
		}
	}
	planes = slices.Clone(planes)
	if slices.ContainsFunc(planes, func(h *euler.Histogram) bool { return h.CellWidth() == 8 }) {
		for i, h := range planes {
			planes[i] = h.Unpack()
		}
	}
	return &MEuler{g: g, areas: slices.Clone(areas), planes: planes,
		name: fmt.Sprintf("M-EulerApprox(%d)", len(planes)), unit: 1}, nil
}

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

// Count implements Estimator: the last plane holds every object.
func (m *MEuler) Count() int64 { return m.planes[len(m.planes)-1].Count() }

// StorageBuckets implements Estimator: m histograms' worth of buckets.
func (m *MEuler) StorageBuckets() int {
	total := 0
	for _, h := range m.planes {
		total += h.StorageBuckets()
	}
	return total
}

// LatticeBytes implements LatticeSizer: every plane's lattice.
func (m *MEuler) LatticeBytes() int {
	total := 0
	for _, h := range m.planes {
		total += h.LatticeBytes()
	}
	return total
}

// Areas returns a copy of the area thresholds.
func (m *MEuler) Areas() []float64 { return append([]float64(nil), m.areas...) }

// Histograms returns the nested planes, smallest area group's first and
// every object's last.
func (m *MEuler) Histograms() []*euler.Histogram { return slices.Clone(m.planes) }

// Estimate implements Estimator. Constant time: a constant number of
// lookups into at most three planes.
func (m *MEuler) Estimate(q grid.Span) Estimate {
	var d Estimate
	m.prefixStack(len(m.planes), m.queryArea(q.Cells())).add(&d, q)
	return d
}

func (m *MEuler) addGrid(dst []Estimate, region grid.Span, cols, rows int) error {
	tw, th, err := query.Tiling(region, cols, rows)
	if err != nil {
		return err
	}
	return m.prefixStack(len(m.planes), m.queryArea(tw*th)).addGrid(dst, region, cols, rows)
}

// queryArea is a query of the given cells' area in base-resolution cells,
// computed in exact integer arithmetic (cell counts are small enough for
// float64 to hold exactly) so a level-k zoom member makes the same
// per-group choice as level 0.
func (m *MEuler) queryArea(cells int) float64 { return float64(cells) * m.unit }

// plane returns C_k: groups 0..k−1, nil for C_0.
func (m *MEuler) plane(k int) *euler.Histogram {
	if k == 0 {
		return nil
	}
	return m.planes[k-1]
}

// prefixStack is the stack of groups 0..k−1 alone for a query of aq base
// cells: its S-EulerApprox groups are a prefix 0..s−1 (the last group
// never is one), group s may be its one EulerApprox group, and the rest
// are no-contains.
func (m *MEuler) prefixStack(k int, aq float64) stack {
	s := 0
	for s < k && m.role(s, aq) == GroupSEuler {
		s++
	}
	hi := s
	if s < k && m.role(s, aq) == GroupEulerApprox {
		hi++
	}
	return newStack(m.plane(k), m.plane(hi), m.plane(s))
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
// that as a confidence signal. Group i's line is the estimate of groups
// 0..i less that of groups 0..i−1, each a prefix stack.
func (m *MEuler) EstimateDetail(q grid.Span) (Estimate, []GroupDetail) {
	aq := m.queryArea(q.Cells())
	var below Estimate
	details := make([]GroupDetail, len(m.planes))
	for i := range m.planes {
		var upTo Estimate
		m.prefixStack(i+1, aq).add(&upTo, q)
		line := Estimate{upTo.Disjoint - below.Disjoint, upTo.Contains - below.Contains,
			upTo.Contained - below.Contained, upTo.Overlap - below.Overlap}
		details[i] = GroupDetail{Area: m.areas[i], Count: m.planes[i].Count() - count(m.plane(i)), Role: m.role(i, aq), Estimate: line}
		below = upTo
	}
	return below, details
}

// role picks the §5.4 case of area group i for a query of aq base cells.
func (m *MEuler) role(i int, aq float64) GroupRole {
	switch {
	case aq <= m.areas[i]:
		return GroupNoContains // no group-i object fits inside the query
	case i < len(m.planes)-1 && aq >= m.areas[i+1]:
		return GroupSEuler // no group-i object can contain the query
	}
	return GroupEulerApprox
}
