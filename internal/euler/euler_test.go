package euler

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// spanOf is a test helper constructing spans tersely.
func spanOf(i1, j1, i2, j2 int) grid.Span { return grid.Span{I1: i1, J1: j1, I2: i2, J2: j2} }

func TestFigure6BigVsSmallObjects(t *testing.T) {
	// Figure 6 of the paper: one object spanning two cells vs two objects in
	// individual cells yield different histograms.
	g := grid.NewUnit(2, 1)

	big := NewBuilder(g)
	big.AddSpan(spanOf(0, 0, 1, 0)) // one object covering both cells
	hBig := big.Build()

	small := NewBuilder(g)
	small.AddSpan(spanOf(0, 0, 0, 0))
	small.AddSpan(spanOf(1, 0, 1, 0))
	hSmall := small.Build()

	// Lattice is 3x1: face, vertical edge, face.
	if got := []int64{hBig.Bucket(0, 0), hBig.Bucket(1, 0), hBig.Bucket(2, 0)}; got[0] != 1 || got[1] != -1 || got[2] != 1 {
		t.Errorf("big-object histogram = %v, want [1 -1 1]", got)
	}
	if got := []int64{hSmall.Bucket(0, 0), hSmall.Bucket(1, 0), hSmall.Bucket(2, 0)}; got[0] != 1 || got[1] != 0 || got[2] != 1 {
		t.Errorf("small-objects histogram = %v, want [1 0 1]", got)
	}
	// Both sum to the object count (Corollary 4.1).
	if hBig.Total() != 1 || hSmall.Total() != 2 {
		t.Errorf("totals = %d, %d; want 1, 2", hBig.Total(), hSmall.Total())
	}
}

func TestSingleObjectBucketSigns(t *testing.T) {
	// A 2x2-cell object: 4 faces (+1), 4 edges (-1), 1 vertex (+1) → sum 1.
	g := grid.NewUnit(4, 4)
	b := NewBuilder(g)
	b.AddSpan(spanOf(1, 1, 2, 2))
	h := b.Build()
	wantAt := func(u, v int, want int64) {
		t.Helper()
		if got := h.Bucket(u, v); got != want {
			t.Errorf("Bucket(%d,%d) = %d, want %d", u, v, got, want)
		}
	}
	wantAt(2, 2, 1)  // face of cell (1,1)
	wantAt(4, 4, 1)  // face of cell (2,2)
	wantAt(3, 2, -1) // vertical edge between the two columns
	wantAt(2, 3, -1) // horizontal edge
	wantAt(3, 3, 1)  // interior vertex
	wantAt(0, 0, 0)  // untouched bucket
	if h.Total() != 1 {
		t.Errorf("Total = %d, want 1", h.Total())
	}
}

func TestTotalsEqualsCountProperty(t *testing.T) {
	// Structural invariant: sum of all buckets == number of objects, for any
	// object mix (Corollary 4.1 applied to the full space).
	r := rand.New(rand.NewSource(20))
	f := func() bool {
		g := grid.NewUnit(1+r.Intn(12), 1+r.Intn(12))
		b := NewBuilder(g)
		n := r.Intn(50)
		for k := 0; k < n; k++ {
			i1, j1 := r.Intn(g.NX()), r.Intn(g.NY())
			b.AddSpan(spanOf(i1, j1, i1+r.Intn(g.NX()-i1), j1+r.Intn(g.NY()-j1)))
		}
		h := b.Build()
		return h.Total() == int64(n) && h.Count() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// buildRandom creates a histogram plus the underlying spans for
// brute-force cross-checks.
func buildRandom(r *rand.Rand, nx, ny, n int) (*Histogram, []grid.Span) {
	g := grid.NewUnit(nx, ny)
	b := NewBuilder(g)
	spans := make([]grid.Span, 0, n)
	for k := 0; k < n; k++ {
		i1, j1 := r.Intn(nx), r.Intn(ny)
		s := spanOf(i1, j1, i1+r.Intn(nx-i1), j1+r.Intn(ny-j1))
		spans = append(spans, s)
		b.AddSpan(s)
	}
	return b.Build(), spans
}

func randQuery(r *rand.Rand, nx, ny int) grid.Span {
	i1, j1 := r.Intn(nx), r.Intn(ny)
	return spanOf(i1, j1, i1+r.Intn(nx-i1), j1+r.Intn(ny-j1))
}

func TestInsideSumIsExactIntersectCount(t *testing.T) {
	// Equation 12: n_ii from the histogram equals the exact number of
	// intersecting objects, for arbitrary rectangles and arbitrary queries.
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		h, spans := buildRandom(r, 3+r.Intn(14), 3+r.Intn(14), r.Intn(80))
		g := h.Grid()
		for qt := 0; qt < 20; qt++ {
			q := randQuery(r, g.NX(), g.NY())
			var want int64
			for _, s := range spans {
				if q.Intersects(s) {
					want++
				}
			}
			if got := h.InsideSum(q); got != want {
				t.Fatalf("InsideSum(%v) = %d, want %d (trial %d)", q, got, want, trial)
			}
			if got := h.Intersecting(q); got != want {
				t.Fatalf("Intersecting mismatch")
			}
			if got := h.NaiveInsideSum(q); got != want {
				t.Fatalf("NaiveInsideSum(%v) = %d, want %d", q, got, want)
			}
		}
	}
}

func TestOutsideSumLoopholeAndCrossover(t *testing.T) {
	g := grid.NewUnit(10, 10)
	q := spanOf(4, 4, 5, 5)

	// An object containing the query contributes 0 to the outside sum
	// (Figure 10, the loophole effect: its exterior intersection region has
	// a hole, Corollary 4.2 with k=2 gives 0).
	b := NewBuilder(g)
	b.AddSpan(spanOf(2, 2, 7, 7))
	h := b.Build()
	if got := h.OutsideSum(q); got != 0 {
		t.Errorf("containing object OutsideSum = %d, want 0 (loophole)", got)
	}

	// A crossover object contributes 2 (Figure 9(b)).
	b = NewBuilder(g)
	b.AddSpan(spanOf(0, 4, 9, 5)) // horizontal band crossing the query
	h = b.Build()
	if got := h.OutsideSum(q); got != 2 {
		t.Errorf("crossover object OutsideSum = %d, want 2", got)
	}

	// An ordinary overlapping object contributes 1 (Figure 9(a)).
	b = NewBuilder(g)
	b.AddSpan(spanOf(3, 3, 4, 4))
	h = b.Build()
	if got := h.OutsideSum(q); got != 1 {
		t.Errorf("overlap object OutsideSum = %d, want 1", got)
	}

	// A disjoint object contributes 1; an object inside the query 0.
	b = NewBuilder(g)
	b.AddSpan(spanOf(0, 0, 1, 1)) // disjoint
	b.AddSpan(spanOf(4, 4, 4, 4)) // inside q
	h = b.Build()
	if got := h.OutsideSum(q); got != 1 {
		t.Errorf("disjoint+inside OutsideSum = %d, want 1", got)
	}
}

func TestOutsideSumDecomposition(t *testing.T) {
	// For datasets with no containing and no crossover objects w.r.t. q,
	// OutsideSum must equal the exact n_ei = N_d + N_o.
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		nx, ny := 4+r.Intn(10), 4+r.Intn(10)
		g := grid.NewUnit(nx, ny)
		q := randQuery(r, nx, ny)
		b := NewBuilder(g)
		var want int64
		for k := 0; k < 40; k++ {
			i1, j1 := r.Intn(nx), r.Intn(ny)
			s := spanOf(i1, j1, i1+r.Intn(nx-i1), j1+r.Intn(ny-j1))
			if q.ContainsStrict(s) { // object contains query: skip
				continue
			}
			crossX := s.I1 < q.I1 && s.I2 > q.I2 && s.J1 >= q.J1 && s.J2 <= q.J2
			crossY := s.J1 < q.J1 && s.J2 > q.J2 && s.I1 >= q.I1 && s.I2 <= q.I2
			if crossX || crossY {
				continue
			}
			b.AddSpan(s)
			if !q.Contains(s) { // interior escapes the query
				want++
			}
		}
		h := b.Build()
		if got := h.OutsideSum(q); got != want {
			t.Fatalf("OutsideSum = %d, want %d (trial %d, q=%v)", got, want, trial, q)
		}
	}
}

func TestContainedInExactForStrips(t *testing.T) {
	// Full-width strips anchored at the space boundary cannot be contained
	// or crossed (horizontally they span the space, vertically they touch
	// the boundary), so ContainedIn is exact on them — the Region B property
	// used by EulerApprox.
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		nx, ny := 4+r.Intn(10), 4+r.Intn(10)
		g := grid.NewUnit(nx, ny)
		var strip grid.Span
		if r.Intn(2) == 0 {
			strip = spanOf(0, 0, nx-1, r.Intn(ny)) // bottom strip
		} else {
			strip = spanOf(0, r.Intn(ny), nx-1, ny-1) // top strip
		}
		b := NewBuilder(g)
		var want int64
		for k := 0; k < 60; k++ {
			i1, j := r.Intn(nx), r.Intn(ny)
			s := spanOf(i1, j, i1+r.Intn(nx-i1), j+r.Intn(ny-j))
			b.AddSpan(s)
			if strip.Contains(s) {
				want++
			}
		}
		h := b.Build()
		if got := h.ContainedIn(strip); got != want {
			t.Fatalf("ContainedIn(strip %v) = %d, want %d", strip, got, want)
		}
	}
}

func TestBuilderAddSnapsAndSkips(t *testing.T) {
	g := grid.NewUnit(10, 10)
	b := NewBuilder(g)
	if !b.Add(geom.NewRect(1.2, 1.2, 3.7, 2.1)) {
		t.Errorf("in-space object must be added")
	}
	if b.Add(geom.NewRect(50, 50, 60, 60)) {
		t.Errorf("outside object must be skipped")
	}
	if b.Count() != 1 {
		t.Errorf("Count = %d, want 1", b.Count())
	}
	n := b.AddAll([]geom.Rect{
		geom.NewRect(0, 0, 1, 1),
		geom.NewRect(-10, -10, -5, -5),
	})
	if n != 1 || b.Count() != 2 {
		t.Errorf("AddAll added %d (count %d), want 1 (2)", n, b.Count())
	}
	h := b.Build()
	if h.Total() != 2 {
		t.Errorf("Total = %d, want 2", h.Total())
	}
}

func TestBuilderReusableAfterBuild(t *testing.T) {
	g := grid.NewUnit(5, 5)
	b := NewBuilder(g)
	b.AddSpan(spanOf(0, 0, 1, 1))
	h1 := b.Build()
	b.AddSpan(spanOf(2, 2, 4, 4))
	h2 := b.Build()
	if h1.Total() != 1 || h2.Total() != 2 {
		t.Fatalf("totals = %d, %d; want 1, 2", h1.Total(), h2.Total())
	}
	// h1 must be unaffected by the later insertion.
	if h1.InsideSum(spanOf(2, 2, 4, 4)) != 0 {
		t.Fatalf("h1 sees objects inserted after its Build")
	}
}

func TestFromRectsAndAccessors(t *testing.T) {
	g := grid.NewUnit(6, 4)
	h := FromRects(g, []geom.Rect{
		geom.NewRect(0.5, 0.5, 2.5, 1.5),
		geom.NewRect(3, 1, 5, 3),
	})
	if h.Count() != 2 || h.Grid() != g {
		t.Fatalf("accessors broken")
	}
	lx, ly := h.Buckets()
	if lx != 11 || ly != 7 || h.StorageBuckets() != 77 {
		t.Fatalf("lattice dims = %dx%d (%d), want 11x7 (77)", lx, ly, h.StorageBuckets())
	}
}

func TestPanics(t *testing.T) {
	g := grid.NewUnit(4, 4)
	b := NewBuilder(g)
	for name, f := range map[string]func(){
		"span outside": func() { b.AddSpan(spanOf(0, 0, 4, 0)) },
		"span invalid": func() { b.AddSpan(spanOf(2, 0, 1, 0)) },
		"bucket range": func() { b.Build().Bucket(99, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: must panic", name)
				}
			}()
			f()
		}()
	}
}
