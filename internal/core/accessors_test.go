package core

import (
	"testing"

	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

func TestEstimatorAccessors(t *testing.T) {
	g := grid.NewUnit(8, 8)
	h := euler.FromRects(g, []geom.Rect{geom.NewRect(1, 1, 3, 3)})

	se := NewSEuler(h)
	if se.Name() != "S-EulerApprox" || se.Grid() != g || se.Count() != 1 ||
		se.StorageBuckets() != 15*15 || se.Histogram() != h {
		t.Fatalf("SEuler accessors broken: %s %d %d", se.Name(), se.Count(), se.StorageBuckets())
	}
	ea := NewEuler(h)
	if ea.Name() != "EulerApprox" || ea.Grid() != g || ea.Count() != 1 ||
		ea.StorageBuckets() != 15*15 || ea.Histogram() != h {
		t.Fatalf("Euler accessors broken: %s %d %d", ea.Name(), ea.Count(), ea.StorageBuckets())
	}
	m, err := NewMEuler(g, []float64{1, 4}, []geom.Rect{geom.NewRect(1, 1, 3, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if m.Grid() != g {
		t.Fatal("MEuler.Grid broken")
	}
}

func TestClampedAllNegative(t *testing.T) {
	e := Estimate{Disjoint: -1, Contains: -2, Contained: -3, Overlap: -4}
	if c := e.Clamped(); c != (Estimate{}) {
		t.Fatalf("Clamped = %v, want all zeros", c)
	}
}

func TestInsertThreshold(t *testing.T) {
	// New peak area inserted in order.
	got := insertThreshold([]float64{1, 100}, 25)
	if len(got) != 3 || got[0] != 1 || got[1] != 25 || got[2] != 100 {
		t.Fatalf("insertThreshold = %v", got)
	}
	// Existing threshold: quarter the next one up.
	got = insertThreshold([]float64{1, 100}, 1)
	if len(got) != 3 || got[1] != 25 {
		t.Fatalf("insertThreshold fallback = %v", got)
	}
	// Existing top threshold: extend the range upward.
	got = insertThreshold([]float64{1, 100}, 100)
	if len(got) != 3 || got[2] != 200 {
		t.Fatalf("insertThreshold extend = %v", got)
	}
	// Quartering that lands on an existing threshold yields nil.
	if got = insertThreshold([]float64{1, 4, 16}, 4); got != nil {
		t.Fatalf("insertThreshold dead end = %v, want nil", got)
	}
	// A candidate at or below 1 yields nil.
	if got = insertThreshold([]float64{1, 4}, 1); got != nil {
		t.Fatalf("insertThreshold sub-unit = %v, want nil", got)
	}
}

// TestZoomAccessors: a zoom stack exposes one estimator per pyramid level,
// each over the grid halved once more, and charges the whole pyramid's
// buckets and lattice bytes; anything else routes across one level.
func TestZoomAccessors(t *testing.T) {
	g := grid.NewUnit(64, 32)
	p := euler.NewPyramid(euler.FromRects(g, []geom.Rect{geom.NewRect(1, 1, 30, 9)}), euler.PyramidOpts{MinGrid: 4})
	z := zoomOver(t, AlgoEuler, p)
	if NumLevels(z) != p.Levels() || p.Levels() != 4 { // 64×32 → 32×16 → 16×8 → 8×4
		t.Fatalf("%d zoom levels over a pyramid of %d, want 4", NumLevels(z), p.Levels())
	}
	lattice := 0
	for k := 0; k < NumLevels(z); k++ {
		lg := z.Level(k).Grid()
		if lg.NX() != 64>>k || lg.NY() != 32>>k || lg.Extent() != g.Extent() {
			t.Fatalf("level %d grid %v, want %d×%d over %v", k, lg, 64>>k, 32>>k, g.Extent())
		}
		lattice += z.Level(k).(LatticeSizer).LatticeBytes()
	}
	if z.StorageBuckets() != p.StorageBuckets() || 3*z.StorageBuckets() > 4*p.Base().StorageBuckets() {
		t.Fatalf("zoom charges %d buckets, pyramid holds %d over a base of %d", z.StorageBuckets(), p.StorageBuckets(), p.Base().StorageBuckets())
	}
	if z.LatticeBytes() != lattice {
		t.Fatalf("zoom charges %d lattice bytes, its levels hold %d", z.LatticeBytes(), lattice)
	}
	if z.Grid() != g || z.Count() != 1 {
		t.Fatalf("zoom grid %v count %d, want the base's", z.Grid(), z.Count())
	}
	if n := NumLevels(NewEuler(p.Base())); n != 1 {
		t.Fatalf("a plain estimator routes across %d levels, want 1", n)
	}
}
