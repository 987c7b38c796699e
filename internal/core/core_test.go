package core

import (
	"math"
	"math/rand"
	"testing"

	"spatialhist/internal/dataset"
	"spatialhist/internal/euler"
	"spatialhist/internal/exact"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/metrics"
	"spatialhist/internal/query"
)

func spanOf(i1, j1, i2, j2 int) grid.Span { return grid.Span{I1: i1, J1: j1, I2: i2, J2: j2} }

// histFromSpans builds a histogram from explicit spans.
func histFromSpans(g *grid.Grid, spans []grid.Span) *euler.Histogram {
	b := euler.NewBuilder(g)
	for _, s := range spans {
		b.AddSpan(s)
	}
	return b.Build()
}

func TestEstimateAccessors(t *testing.T) {
	e := Estimate{Disjoint: 1, Contains: -2, Contained: 3, Overlap: 4}
	if e.Total() != 6 {
		t.Errorf("Total = %d", e.Total())
	}
	if e.Get(geom.Rel2Contains) != -2 || e.Get(geom.Rel2Disjoint) != 1 ||
		e.Get(geom.Rel2Contained) != 3 || e.Get(geom.Rel2Overlap) != 4 ||
		e.Get(geom.Rel2Equals) != 0 {
		t.Errorf("Get broken")
	}
	c := e.Clamped()
	if c.Contains != 0 || c.Disjoint != 1 {
		t.Errorf("Clamped = %v", c)
	}
	if e.String() == "" {
		t.Errorf("String empty")
	}
}

func TestSEulerExactOnCleanData(t *testing.T) {
	// With no containing and no crossover objects S-EulerApprox is exact on
	// every count.
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		nx, ny := 6+r.Intn(12), 6+r.Intn(12)
		g := grid.NewUnit(nx, ny)
		// Small objects only: at most 2x2 cells.
		spans := make([]grid.Span, 60)
		for k := range spans {
			i1, j1 := r.Intn(nx-1), r.Intn(ny-1)
			spans[k] = spanOf(i1, j1, i1+r.Intn(2), j1+r.Intn(2))
		}
		est := NewSEuler(histFromSpans(g, spans))
		// Queries at least 3x3 so no 2x2 object can contain or cross them.
		for qt := 0; qt < 20; qt++ {
			i1, j1 := r.Intn(nx-2), r.Intn(ny-2)
			q := spanOf(i1, j1, i1+2+r.Intn(nx-i1-2), j1+2+r.Intn(ny-j1-2))
			want := exact.EvaluateQuery(spans, q)
			got := est.Estimate(q)
			if got.Disjoint != want.Disjoint || got.Contains != want.Contains ||
				got.Contained != want.Contained || got.Overlap != want.Overlap {
				t.Fatalf("S-Euler not exact: got %v, want %+v (q=%v)", got, want, q)
			}
		}
	}
}

func TestSEulerBreaksOnContainingObjects(t *testing.T) {
	// One object containing the query: the loophole effect makes S-Euler
	// report it inside N_cs instead of N_cd — the failure Figure 14(b)
	// documents.
	g := grid.NewUnit(10, 10)
	est := NewSEuler(histFromSpans(g, []grid.Span{spanOf(1, 1, 8, 8)}))
	q := spanOf(4, 4, 5, 5)
	got := est.Estimate(q)
	if got.Contains != 1 || got.Contained != 0 {
		t.Fatalf("expected the containing object misattributed to N_cs: %v", got)
	}
	// The exact answer is of course N_cd = 1.
	want := exact.EvaluateQuery([]grid.Span{spanOf(1, 1, 8, 8)}, q)
	if want.Contained != 1 || want.Contains != 0 {
		t.Fatalf("exact sanity failed: %+v", want)
	}
}

func TestEulerHandlesContainingObjects(t *testing.T) {
	g := grid.NewUnit(12, 12)
	cases := []struct {
		name  string
		spans []grid.Span
		q     grid.Span
	}{
		{"single containing", []grid.Span{spanOf(1, 1, 10, 10)}, spanOf(4, 4, 6, 6)},
		{"three containing", []grid.Span{
			spanOf(1, 1, 10, 10), spanOf(2, 2, 9, 9), spanOf(3, 3, 8, 8),
		}, spanOf(4, 4, 6, 6)},
		{"containing + contained + disjoint", []grid.Span{
			spanOf(1, 1, 10, 10), spanOf(5, 5, 5, 5), spanOf(0, 0, 0, 0),
		}, spanOf(4, 4, 6, 6)},
		{"query at bottom edge", []grid.Span{spanOf(1, 0, 10, 10)}, spanOf(4, 0, 6, 2)},
		{"query at left edge", []grid.Span{spanOf(0, 1, 10, 10)}, spanOf(0, 4, 2, 6)},
	}
	for _, c := range cases {
		est := NewEuler(histFromSpans(g, c.spans))
		got := est.Estimate(c.q)
		want := exact.EvaluateQuery(c.spans, c.q)
		if got.Contained != want.Contained || got.Contains != want.Contains ||
			got.Overlap != want.Overlap || got.Disjoint != want.Disjoint {
			t.Errorf("%s: EulerApprox = %v, want %+v", c.name, got, want)
		}
	}
}

func TestEulerO1O2ErrorStructure(t *testing.T) {
	g := grid.NewUnit(12, 12)
	q := spanOf(4, 4, 7, 7)
	// O2: object poking from below into the query within its column range —
	// missed by N_i(A)+N_cs(B), so N_cd is underestimated by 1.
	o2 := []grid.Span{spanOf(5, 2, 6, 5)}
	got := NewEuler(histFromSpans(g, o2)).Estimate(q)
	if got.Contained != -1 {
		t.Errorf("O2 object: N_cd = %d, want -1 (systematic miss)", got.Contained)
	}
	// O1: object under the query spanning past both its columns —
	// double-counted in N_i(A), so N_cd is overestimated by 1.
	o1 := []grid.Span{spanOf(2, 2, 9, 5)}
	got = NewEuler(histFromSpans(g, o1)).Estimate(q)
	if got.Contained != 1 {
		t.Errorf("O1 object: N_cd = %d, want +1 (systematic double count)", got.Contained)
	}
	// Together they cancel — the assumption EulerApprox rides on.
	got = NewEuler(histFromSpans(g, append(o1, o2...))).Estimate(q)
	if got.Contained != 0 {
		t.Errorf("O1+O2: N_cd = %d, want 0 (cancellation)", got.Contained)
	}
}

func TestEstimatesSumToCount(t *testing.T) {
	// All estimators keep the four counts summing to |S| for any query.
	r := rand.New(rand.NewSource(43))
	d := dataset.SzSkew(2000, 9)
	g := grid.New(d.Extent, 36, 18) // 10x10-unit cells
	me, err := NewMEuler(g, []float64{1, 9, 100}, d.Rects)
	if err != nil {
		t.Fatal(err)
	}
	ests := []Estimator{
		SEulerFromRects(g, d.Rects),
		EulerFromRects(g, d.Rects),
		me,
	}
	for _, est := range ests {
		if est.Count() != 2000 {
			t.Fatalf("%s: Count = %d", est.Name(), est.Count())
		}
		for trial := 0; trial < 300; trial++ {
			i1, j1 := r.Intn(36), r.Intn(18)
			q := spanOf(i1, j1, i1+r.Intn(36-i1), j1+r.Intn(18-j1))
			if got := est.Estimate(q); got.Total() != 2000 {
				t.Fatalf("%s: estimate %v sums to %d for q=%v", est.Name(), got, got.Total(), q)
			}
		}
	}
}

func TestDisjointAlwaysExact(t *testing.T) {
	// N_d = |S| − n_ii is exact for every algorithm because n_ii is exact.
	r := rand.New(rand.NewSource(44))
	d := dataset.ADLLike(1500, 10)
	g := grid.New(d.Extent, 36, 18) // 10x10-unit cells
	spans := exact.Spans(g, d.Rects)
	me, err := NewMEuler(g, []float64{1, 25}, d.Rects)
	if err != nil {
		t.Fatal(err)
	}
	for _, est := range []Estimator{SEulerFromRects(g, d.Rects), EulerFromRects(g, d.Rects), me} {
		for trial := 0; trial < 200; trial++ {
			i1, j1 := r.Intn(36), r.Intn(18)
			q := spanOf(i1, j1, i1+r.Intn(36-i1), j1+r.Intn(18-j1))
			want := exact.EvaluateQuery(spans, q)
			if got := est.Estimate(q); got.Disjoint != want.Disjoint {
				t.Fatalf("%s: N_d = %d, want %d", est.Name(), got.Disjoint, want.Disjoint)
			}
		}
	}
}

func TestMEulerValidation(t *testing.T) {
	g := grid.NewUnit(10, 10)
	cases := map[string][]float64{
		"empty":      {},
		"not unit":   {2, 4},
		"not sorted": {1, 9, 4},
		"duplicate":  {1, 4, 4},
	}
	for name, areas := range cases {
		if _, err := NewMEuler(g, areas, nil); err == nil {
			t.Errorf("%s: NewMEuler(%v) must error", name, areas)
		}
	}
	if _, err := NewMEuler(g, []float64{1}, nil); err != nil {
		t.Errorf("single histogram is legal: %v", err)
	}
}

func TestMEulerGrouping(t *testing.T) {
	g := grid.NewUnit(20, 20)
	rects := []geom.Rect{
		geom.NewRect(0.1, 0.1, 0.5, 0.5), // area 0.16 -> group 0
		geom.NewRect(1, 1, 3, 2),         // area 2    -> group 0
		geom.NewRect(5, 5, 8, 8),         // area 9    -> group 1
		geom.NewRect(0, 0, 10, 10),       // area 100  -> group 2
		geom.NewRect(0, 0, 20, 20),       // area 400  -> group 2
	}
	m, err := NewMEuler(g, []float64{1, 9, 100}, rects)
	if err != nil {
		t.Fatal(err)
	}
	hists := m.Histograms()
	if len(hists) != 3 {
		t.Fatalf("got %d hists", len(hists))
	}
	wantCounts := []int64{2, 3, 5} // nested: plane k holds groups 0..k
	for i, h := range hists {
		if h.Count() != wantCounts[i] {
			t.Errorf("plane %d count = %d, want %d", i, h.Count(), wantCounts[i])
		}
	}
	if m.Count() != 5 {
		t.Errorf("Count = %d", m.Count())
	}
	if got, want := m.StorageBuckets(), 3*39*39; got != want {
		t.Errorf("StorageBuckets = %d, want %d", got, want)
	}
	if m.Name() != "M-EulerApprox(3)" {
		t.Errorf("Name = %q", m.Name())
	}
	a := m.Areas()
	a[0] = 99
	if m.Areas()[0] != 1 {
		t.Errorf("Areas leaked internal state")
	}
}

func TestAreaGroupRouting(t *testing.T) {
	areas := []float64{1, 9, 100}
	cases := []struct {
		a    float64
		want int
	}{
		{0.2, 0}, {1, 0}, {2, 0}, {8.99, 0},
		{9, 1}, {50, 1}, {99.99, 1},
		{100, 2}, {1e6, 2},
	}
	for _, c := range cases {
		if got := AreaGroup(areas, c.a); got != c.want {
			t.Errorf("AreaGroup(%v, %g) = %d, want %d", areas, c.a, got, c.want)
		}
	}

	// ObjectAreaGroup must agree with how NewMEuler assigned the objects of
	// TestMEulerGrouping, and reject objects outside the space.
	g := grid.NewUnit(20, 20)
	rects := []struct {
		r    geom.Rect
		want int
	}{
		{geom.NewRect(0.1, 0.1, 0.5, 0.5), 0},
		{geom.NewRect(1, 1, 3, 2), 0},
		{geom.NewRect(5, 5, 8, 8), 1},
		{geom.NewRect(0, 0, 10, 10), 2},
		{geom.NewRect(0, 0, 20, 20), 2},
	}
	for _, c := range rects {
		got, ok := ObjectAreaGroup(g, areas, c.r)
		if !ok || got != c.want {
			t.Errorf("ObjectAreaGroup(%v) = %d,%v, want %d,true", c.r, got, ok, c.want)
		}
	}
	if _, ok := ObjectAreaGroup(g, areas, geom.NewRect(30, 30, 40, 40)); ok {
		t.Error("object outside the space must route nowhere")
	}
}

func TestMEulerBeatsSEulerOnLargeObjects(t *testing.T) {
	// The headline M-EulerApprox result (Fig 17/18): on size-skewed data the
	// multi-histogram contains-estimate is far more accurate than the
	// single-histogram algorithms for mid-size queries.
	d := dataset.SzSkew(20000, 123)
	g := grid.NewUnit(360, 180)
	spans := exact.Spans(g, d.Rects)
	qs, err := query.QN(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.EvaluateSet(spans, qs)
	exactCs := make([]int64, len(truth))
	for i, c := range truth {
		exactCs[i] = c.Contains
	}

	se := SEulerFromRects(g, d.Rects)
	me, err := NewMEuler(g, []float64{1, 9, 25, 100, 225}, d.Rects)
	if err != nil {
		t.Fatal(err)
	}
	errOf := func(e Estimator) float64 {
		est := make([]int64, len(qs.Tiles))
		for i, q := range qs.Tiles {
			est[i] = e.Estimate(q).Contains
		}
		return metrics.AvgRelativeError(exactCs, est)
	}
	seErr, meErr := errOf(se), errOf(me)
	if math.IsNaN(seErr) || math.IsNaN(meErr) {
		t.Fatalf("NaN errors: %g %g", seErr, meErr)
	}
	if meErr > seErr/3 {
		t.Fatalf("M-Euler contains error %.4f not clearly better than S-Euler %.4f", meErr, seErr)
	}
	if meErr > 0.10 {
		t.Fatalf("M-Euler(5) contains error %.4f, want under 10%% (paper: <0.5%% at paper scale)", meErr)
	}
}

func TestEstimateSet(t *testing.T) {
	g := grid.NewUnit(12, 12)
	est := NewSEuler(histFromSpans(g, []grid.Span{spanOf(2, 2, 3, 3)}))
	qs, err := query.QN(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	out := EstimateSet(est, qs.Tiles)
	if len(out) != 4 {
		t.Fatalf("got %d estimates", len(out))
	}
	if out[0].Contains != 1 { // SW tile contains the object
		t.Errorf("SW tile = %v", out[0])
	}
	if out[3].Contains != 0 || out[3].Disjoint != 1 {
		t.Errorf("NE tile = %v", out[3])
	}
}

func TestTuneAreas(t *testing.T) {
	d := dataset.SzSkew(5000, 55)
	g := grid.New(d.Extent, 72, 36) // 5x5-unit cells
	sets := make([]*query.Set, 0, 3)
	for _, n := range []int{12, 6, 4} {
		qs, err := query.QN(g, n)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, qs)
	}
	res, err := TuneAreas(g, d.Rects, sets, TuneOptions{
		MaxQueryCells: 144,
		TargetError:   0.02,
		MaxHistograms: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Areas) < 2 || res.Areas[0] != 1 {
		t.Fatalf("TuneAreas = %+v", res)
	}
	if len(res.Errors) != 3 {
		t.Fatalf("per-set errors missing: %+v", res)
	}
	// The tuned configuration must beat the 2-histogram starting point
	// or already meet the target.
	start, err := NewMEuler(g, []float64{1, 36}, d.Rects)
	if err != nil {
		t.Fatal(err)
	}
	spans := exact.Spans(g, d.Rects)
	worstOf := func(e Estimator) float64 {
		worst := 0.0
		for _, qs := range sets {
			truth := exact.EvaluateSet(spans, qs)
			ex := make([]int64, len(truth))
			es := make([]int64, len(truth))
			for i := range truth {
				ex[i] = truth[i].Contains
				es[i] = e.Estimate(qs.Tiles[i]).Contains
			}
			if v := metrics.AvgRelativeError(ex, es); v > worst {
				worst = v
			}
		}
		return worst
	}
	if res.WorstErr > opts2Err(worstOf(start)) && res.WorstErr > 0.02 {
		t.Fatalf("tuning did not help: tuned %.4f vs start %.4f", res.WorstErr, worstOf(start))
	}
}

// opts2Err adds a tiny tolerance to a baseline error.
func opts2Err(v float64) float64 { return v * 1.0001 }

func TestTuneAreasValidation(t *testing.T) {
	g := grid.NewUnit(8, 8)
	qs, _ := query.QN(g, 4)
	sets := []*query.Set{qs}
	bad := []TuneOptions{
		{MaxQueryCells: 1, TargetError: 0.1, MaxHistograms: 3},
		{MaxQueryCells: 16, TargetError: 0, MaxHistograms: 3},
		{MaxQueryCells: 16, TargetError: 0.1, MaxHistograms: 1},
	}
	for i, o := range bad {
		if _, err := TuneAreas(g, nil, sets, o); err == nil {
			t.Errorf("case %d: must error", i)
		}
	}
	if _, err := TuneAreas(g, nil, nil, TuneOptions{MaxQueryCells: 16, TargetError: 0.1, MaxHistograms: 3}); err == nil {
		t.Error("no sets: must error")
	}
}

func TestMEulerEstimateDetail(t *testing.T) {
	d := dataset.SzSkew(3000, 17)
	g := grid.New(d.Extent, 72, 36) // 5x5-unit cells
	m, err := NewMEuler(g, []float64{1, 4, 16}, d.Rects)
	if err != nil {
		t.Fatal(err)
	}
	q := spanOf(10, 10, 14, 14) // 25-cell query: above every threshold
	est, details := m.EstimateDetail(q)
	if est != m.Estimate(q) {
		t.Fatal("EstimateDetail diverges from Estimate")
	}
	if len(details) != 3 {
		t.Fatalf("got %d group details", len(details))
	}
	// aq=25: H_0 (>=1) and H_1 (>=4) use sound S-Euler; H_2 (>=16, open
	// ended) must fall to EulerApprox.
	if details[0].Role != GroupSEuler || details[1].Role != GroupSEuler {
		t.Fatalf("small groups = %v/%v, want s-euler", details[0].Role, details[1].Role)
	}
	if details[2].Role != GroupEulerApprox {
		t.Fatalf("open group = %v, want euler-approx", details[2].Role)
	}
	// Small query: every group too big to fit -> no-contains everywhere
	// except H_0 which straddles.
	_, details = m.EstimateDetail(spanOf(0, 0, 0, 0)) // 1-cell query, aq=1
	if details[0].Role != GroupNoContains || details[2].Role != GroupNoContains {
		t.Fatalf("unit query roles = %v", details)
	}
	// Partials reconcile with the totals.
	est, details = m.EstimateDetail(q)
	var sum Estimate
	for _, gd := range details {
		if gd.Count <= 0 {
			t.Fatalf("empty group recorded: %+v", gd)
		}
		sum.Disjoint += gd.Estimate.Disjoint
		sum.Contains += gd.Estimate.Contains
		sum.Contained += gd.Estimate.Contained
		sum.Overlap += gd.Estimate.Overlap
	}
	if sum.Disjoint != est.Disjoint || sum.Contains != est.Contains ||
		sum.Overlap != est.Overlap || sum.Contained != est.Contained {
		t.Fatalf("group partials %v do not reconcile with %v", sum, est)
	}
	for r, want := range map[GroupRole]string{
		GroupNoContains: "no-contains", GroupSEuler: "s-euler",
		GroupEulerApprox: "euler-approx", GroupRole(9): "role(invalid)",
	} {
		if r.String() != want {
			t.Errorf("GroupRole(%d).String() = %q", r, r.String())
		}
	}
}

func TestMEulerFromHistograms(t *testing.T) {
	g := grid.NewUnit(12, 12)
	small := histFromSpans(g, []grid.Span{spanOf(1, 1, 1, 1), spanOf(2, 2, 2, 2)})
	big := histFromSpans(g, []grid.Span{spanOf(1, 1, 1, 1), spanOf(2, 2, 2, 2), spanOf(0, 0, 9, 9)})
	m, err := MEulerFromHistograms([]float64{1, 25}, []*euler.Histogram{small, big})
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 3 || len(m.Histograms()) != 2 {
		t.Fatalf("reassembled MEuler: count %d", m.Count())
	}
	// A mid-size query: the big object contains it, the small ones inside.
	est := m.Estimate(spanOf(1, 1, 4, 4))
	if est.Contains != 2 || est.Contained != 1 {
		t.Fatalf("estimate = %v", est)
	}

	bad := []struct {
		name  string
		areas []float64
		hists []*euler.Histogram
	}{
		{"count mismatch", []float64{1}, []*euler.Histogram{small, big}},
		{"empty", nil, nil},
		{"not unit", []float64{2, 4}, []*euler.Histogram{small, big}},
		{"not sorted", []float64{1, 9, 4}, []*euler.Histogram{small, big, big}},
		{"duplicate", []float64{1, 9, 9}, []*euler.Histogram{small, big, big}},
		{"grid mismatch", []float64{1, 9},
			[]*euler.Histogram{small, histFromSpans(grid.NewUnit(5, 5), nil)}},
	}
	for _, c := range bad {
		if _, err := MEulerFromHistograms(c.areas, c.hists); err == nil {
			t.Errorf("%s: must error", c.name)
		}
	}
}

// TestTranslationInvariance is a metamorphic check over the whole stack:
// shifting every object and the query by the same whole-cell offset must
// leave every estimator's output unchanged (away from the space boundary,
// which EulerApprox's Region B decomposition legitimately depends on).
func TestTranslationInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	g := grid.NewUnit(40, 40)
	for trial := 0; trial < 40; trial++ {
		// Objects confined to [5,15)x[5,15) cells so a shift of up to 10
		// keeps everything interior.
		var base []geom.Rect
		for k := 0; k < 30; k++ {
			x := 5 + r.Float64()*8
			y := 5 + r.Float64()*8
			base = append(base, geom.NewRect(x, y, x+r.Float64()*2, y+r.Float64()*2))
		}
		dx := float64(1 + r.Intn(10))
		dy := float64(1 + r.Intn(10))
		shifted := make([]geom.Rect, len(base))
		for i, rc := range base {
			shifted[i] = rc.Translate(dx, dy)
		}
		q := spanOf(6+r.Intn(4), 6+r.Intn(4), 10+r.Intn(4), 10+r.Intn(4))
		qShift := spanOf(q.I1+int(dx), q.J1+int(dy), q.I2+int(dx), q.J2+int(dy))

		mBase, err := NewMEuler(g, []float64{1, 4}, base)
		if err != nil {
			t.Fatal(err)
		}
		mShift, err := NewMEuler(g, []float64{1, 4}, shifted)
		if err != nil {
			t.Fatal(err)
		}
		pairs := []struct {
			name string
			a, b Estimate
		}{
			{"S-Euler", SEulerFromRects(g, base).Estimate(q), SEulerFromRects(g, shifted).Estimate(qShift)},
			{"Euler", EulerFromRects(g, base).Estimate(q), EulerFromRects(g, shifted).Estimate(qShift)},
			{"M-Euler", mBase.Estimate(q), mShift.Estimate(qShift)},
		}
		for _, p := range pairs {
			if p.a != p.b {
				t.Fatalf("trial %d %s: %v vs %v after shift (%g,%g)", trial, p.name, p.a, p.b, dx, dy)
			}
		}
	}
}
