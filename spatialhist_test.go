package spatialhist

import (
	"testing"

	"spatialhist/internal/dataset"
)

func TestQuickstartFlow(t *testing.T) {
	g := NewUnitGrid(36, 18)
	rects := []Rect{
		NewRect(2, 2, 4, 4),     // small object
		NewRect(10, 5, 30, 15),  // big object
		NewRect(2.5, 2.5, 3, 3), // tiny object inside the first
	}
	s := NewSEuler(g, rects)
	if s.Count() != 3 || s.Algorithm() != "S-EulerApprox" || s.Grid() != g {
		t.Fatalf("summary accessors broken: %s %d", s.Algorithm(), s.Count())
	}
	if s.StorageBuckets() != 71*35 {
		t.Fatalf("StorageBuckets = %d", s.StorageBuckets())
	}
	est, err := s.Query(NewRect(0, 0, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	if est.Contains != 2 || est.Disjoint != 1 || est.Overlap != 0 {
		t.Fatalf("Query = %v", est)
	}
	if _, err := s.Query(NewRect(0.5, 0, 6, 6)); err == nil {
		t.Fatal("non-aligned query must error")
	}
}

func TestEulerAndExactAgreeOnContained(t *testing.T) {
	g := NewUnitGrid(20, 20)
	rects := []Rect{NewRect(2, 2, 18, 18)}
	s := NewEuler(g, rects)
	q := NewRect(8, 8, 12, 12)
	est, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Exact(g, rects, q)
	if err != nil {
		t.Fatal(err)
	}
	if est.Contained != want.Contained || want.Contained != 1 {
		t.Fatalf("Contained: est %d, exact %d, want 1", est.Contained, want.Contained)
	}
}

func TestBrowse(t *testing.T) {
	g := NewUnitGrid(40, 20)
	d := dataset.SpSkew(2000, 3)
	// SpSkew lives in 360x180; rescale the grid to it.
	g = NewGrid(d.Extent, 40, 20)
	s := NewSEuler(g, d.Rects)
	ests, err := s.Browse(d.Extent, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 32 {
		t.Fatalf("Browse returned %d tiles", len(ests))
	}
	var total int64
	for _, e := range ests {
		total += e.Contains + e.Overlap
	}
	if total == 0 {
		t.Fatal("browsing a populated dataset found nothing")
	}
	if _, err := s.Browse(d.Extent, 7, 4); err == nil {
		t.Fatal("non-dividing tiling must error")
	}
	if _, err := s.Browse(NewRect(0.3, 0, 9, 9), 3, 3); err == nil {
		t.Fatal("non-aligned region must error")
	}
}

// TestBrowseMatchesQuerySpan: a façade map of 120×60 = 7200 tiles is, for
// all three algorithms, the per-tile QuerySpan answers in row-major order
// from the south-west, tile for tile.
func TestBrowseMatchesQuerySpan(t *testing.T) {
	d := dataset.SzSkew(5000, 11)
	g := NewGrid(d.Extent, 360, 180)
	m, err := NewMEuler(g, []float64{1, 9, 100}, d.Rects)
	if err != nil {
		t.Fatal(err)
	}
	const cols, rows = 120, 60
	for _, s := range []*Summary{NewSEuler(g, d.Rects), NewEuler(g, d.Rects), m} {
		got, err := s.Browse(d.Extent, cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != cols*rows {
			t.Fatalf("%s: %d tiles, want %d", s.Algorithm(), len(got), cols*rows)
		}
		for k := range got {
			i1, j1 := k%cols*3, k/cols*3
			if want := s.QuerySpan(Span{I1: i1, J1: j1, I2: i1 + 2, J2: j1 + 2}); got[k] != want {
				t.Fatalf("%s tile %d: Browse %v, QuerySpan %v", s.Algorithm(), k, got[k], want)
			}
		}
	}
}

func TestMEulerAndTune(t *testing.T) {
	d := dataset.SzSkew(4000, 5)
	g := NewGrid(d.Extent, 72, 36)
	if _, err := NewMEuler(g, []float64{2, 4}, d.Rects); err == nil {
		t.Fatal("bad thresholds must error")
	}
	areas, err := Tune(g, d.Rects, []int{12, 6, 4}, TuneOptions{
		MaxQueryCells: 144,
		TargetError:   0.05,
		MaxHistograms: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMEuler(g, areas, d.Rects)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 4000 {
		t.Fatalf("Count = %d", m.Count())
	}
	if _, err := Tune(g, d.Rects, []int{7}, TuneOptions{MaxQueryCells: 144, TargetError: 0.05, MaxHistograms: 3}); err == nil {
		t.Fatal("non-dividing tile size must error")
	}
}

func TestBuilderFromHistogram(t *testing.T) {
	g := NewUnitGrid(10, 10)
	b := NewBuilder(g)
	b.Add(NewRect(1, 1, 9, 9))
	s := FromHistogram(b.Build())
	est, err := s.Query(NewRect(4, 4, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	if est.Contained != 1 {
		t.Fatalf("Contained = %d, want 1", est.Contained)
	}
}

func TestLevel2Reexport(t *testing.T) {
	q := NewRect(0, 0, 10, 10)
	if Level2(q, NewRect(2, 2, 3, 3)) != RelationContains {
		t.Fatal("Level2 re-export broken")
	}
	if Level2(q, NewRect(5, 5, 5, 5)) != RelationContains {
		t.Fatal("degenerate objects must use browsing semantics")
	}
	if Level2(q, NewRect(20, 20, 30, 30)) != RelationDisjoint {
		t.Fatal("disjoint broken")
	}
}

func TestQueryDetail(t *testing.T) {
	d := dataset.SzSkew(2000, 21)
	g := NewGrid(d.Extent, 72, 36)
	m, err := NewMEuler(g, []float64{1, 9}, d.Rects)
	if err != nil {
		t.Fatal(err)
	}
	est, details, err := m.QueryDetail(NewRect(50, 50, 100, 100))
	if err != nil || len(details) != 2 {
		t.Fatalf("QueryDetail: %d details, %v", len(details), err)
	}
	if est.Total() != 2000 {
		t.Fatalf("estimate total %d", est.Total())
	}
	// Single-histogram summaries return no details.
	s := NewSEuler(g, d.Rects)
	_, details, err = s.QueryDetail(NewRect(50, 50, 100, 100))
	if err != nil || details != nil {
		t.Fatalf("SEuler details = %v, %v", details, err)
	}
	if _, _, err := m.QueryDetail(NewRect(0.3, 0, 5, 5)); err == nil {
		t.Fatal("misaligned query must error")
	}
}

func TestQueryNearest(t *testing.T) {
	g := NewUnitGrid(20, 10)
	rects := []Rect{
		NewRect(2.1, 2.1, 2.9, 2.9), // inside cell (2,2)
		NewRect(10, 5, 12, 7),
	}
	s := NewSEuler(g, rects)

	// An aligned query: coverage 1, span matches exactly.
	est, span, cov, err := s.QueryNearest(NewRect(2, 2, 3, 3))
	if err != nil || cov != 1 || span != (Span{I1: 2, J1: 2, I2: 2, J2: 2}) {
		t.Fatalf("aligned: %v %v %g %v", est, span, cov, err)
	}
	if est.Contains != 1 {
		t.Fatalf("aligned estimate = %v", est)
	}

	// An unaligned query answered at the covering span.
	est, span, cov, err = s.QueryNearest(NewRect(1.5, 1.5, 3.5, 3.5))
	if err != nil || span != (Span{I1: 1, J1: 1, I2: 3, J2: 3}) {
		t.Fatalf("unaligned: %v %g %v", span, cov, err)
	}
	if want := 4.0 / 9.0; cov < want-1e-9 || cov > want+1e-9 {
		t.Fatalf("coverage = %g, want %g", cov, want)
	}
	if est.Contains != 1 {
		t.Fatalf("unaligned estimate = %v", est)
	}

	// Clipped to the space.
	_, span, _, err = s.QueryNearest(NewRect(-5, -5, 1.5, 1.5))
	if err != nil || span != (Span{I1: 0, J1: 0, I2: 1, J2: 1}) {
		t.Fatalf("clipped: %v %v", span, err)
	}

	// Rejections.
	if _, _, _, err := s.QueryNearest(NewRect(50, 50, 60, 60)); err == nil {
		t.Error("outside query must error")
	}
	if _, _, _, err := s.QueryNearest(NewRect(1, 1, 1, 1)); err == nil {
		t.Error("degenerate query must error")
	}
}
