package grid

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"spatialhist/internal/geom"
)

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero nx":     func() { New(geom.NewRect(0, 0, 1, 1), 0, 5) },
		"neg ny":      func() { New(geom.NewRect(0, 0, 1, 1), 5, -1) },
		"degenerate":  func() { New(geom.NewRect(0, 0, 0, 1), 5, 5) },
		"invalid ext": func() { New(geom.Rect{XMin: 2, XMax: 1, YMax: 1}, 5, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New must panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNewUnit(t *testing.T) {
	g := NewUnit(360, 180)
	if g.NX() != 360 || g.NY() != 180 || g.Cells() != 360*180 {
		t.Fatalf("NewUnit dims wrong: %v", g)
	}
	if g.CellWidth() != 1 || g.CellHeight() != 1 || g.CellArea() != 1 {
		t.Fatalf("NewUnit cell size wrong: %g x %g", g.CellWidth(), g.CellHeight())
	}
	if g.Extent() != geom.NewRect(0, 0, 360, 180) {
		t.Fatalf("NewUnit extent wrong: %v", g.Extent())
	}
}

func TestSnapBasic(t *testing.T) {
	g := NewUnit(10, 10)
	cases := []struct {
		name string
		r    geom.Rect
		want Span
	}{
		{"interior of one cell", geom.NewRect(0.2, 0.3, 0.8, 0.9), Span{0, 0, 0, 0}},
		{"aligned object shrinks", geom.NewRect(1, 1, 3, 3), Span{1, 1, 2, 2}},
		{"spans cells", geom.NewRect(0.5, 0.5, 2.5, 1.5), Span{0, 0, 2, 1}},
		{"touches right line", geom.NewRect(1.5, 1.5, 3.0, 2.0), Span{1, 1, 2, 1}},
		{"starts on a line", geom.NewRect(2.0, 2.0, 2.5, 2.5), Span{2, 2, 2, 2}},
		{"whole space", geom.NewRect(0, 0, 10, 10), Span{0, 0, 9, 9}},
	}
	for _, c := range cases {
		got, ok := g.Snap(c.r)
		if !ok || got != c.want {
			t.Errorf("%s: Snap(%v) = %v/%t, want %v/true", c.name, c.r, got, ok, c.want)
		}
	}
}

func TestSnapDegenerate(t *testing.T) {
	g := NewUnit(10, 10)
	cases := []struct {
		name string
		r    geom.Rect
		want Span
	}{
		{"point inside a cell", geom.NewRect(2.5, 3.5, 2.5, 3.5), Span{2, 3, 2, 3}},
		{"point on a line", geom.NewRect(2.0, 3.5, 2.0, 3.5), Span{1, 3, 1, 3}},
		{"point at origin", geom.NewRect(0, 0, 0, 0), Span{0, 0, 0, 0}},
		{"point at far corner", geom.NewRect(10, 10, 10, 10), Span{9, 9, 9, 9}},
		{"horizontal segment", geom.NewRect(1.5, 2.5, 4.5, 2.5), Span{1, 2, 4, 2}},
		{"vertical segment on line", geom.NewRect(3.0, 1.2, 3.0, 2.8), Span{2, 1, 2, 2}},
	}
	for _, c := range cases {
		got, ok := g.Snap(c.r)
		if !ok || got != c.want {
			t.Errorf("%s: Snap(%v) = %v/%t, want %v/true", c.name, c.r, got, ok, c.want)
		}
	}
}

func TestSnapOutsideAndClamping(t *testing.T) {
	g := NewUnit(10, 10)
	if _, ok := g.Snap(geom.NewRect(20, 20, 30, 30)); ok {
		t.Errorf("Snap outside must report !ok")
	}
	if _, ok := g.Snap(geom.Rect{XMin: 2, XMax: 1, YMin: 0, YMax: 1}); ok {
		t.Errorf("Snap of invalid rect must report !ok")
	}
	got, ok := g.Snap(geom.NewRect(-5, -5, 15, 2.5))
	if !ok || got != (Span{0, 0, 9, 2}) {
		t.Errorf("Snap overflowing rect = %v/%t, want clamped span/true", got, ok)
	}
}

func TestAlignedSpan(t *testing.T) {
	g := NewUnit(360, 180)
	s, err := g.AlignedSpan(geom.NewRect(10, 20, 20, 30), 1e-9)
	if err != nil || s != (Span{10, 20, 19, 29}) {
		t.Fatalf("AlignedSpan = %v/%v, want cells[10..19]x[20..29]", s, err)
	}
	if _, err := g.AlignedSpan(geom.NewRect(10.5, 20, 20, 30), 1e-9); !errors.Is(err, ErrNotAligned) {
		t.Errorf("non-aligned query error = %v, want ErrNotAligned", err)
	}
	if _, err := g.AlignedSpan(geom.NewRect(-10, 0, 10, 10), 1e-9); err == nil {
		t.Errorf("query outside the space must error")
	}
	if _, err := g.AlignedSpan(geom.NewRect(5, 5, 5, 5), 1e-9); err == nil {
		t.Errorf("degenerate query must error")
	}
	// A tiny float perturbation within tolerance still aligns.
	s, err = g.AlignedSpan(geom.NewRect(10+1e-12, 20, 20, 30-1e-12), 1e-9)
	if err != nil || s != (Span{10, 20, 19, 29}) {
		t.Errorf("AlignedSpan with jitter = %v/%v", s, err)
	}
}

func TestSpanRectAndArea(t *testing.T) {
	g := New(geom.NewRect(100, 200, 110, 220), 10, 10) // 1x2 cells
	if got, want := g.SpanRect(Span{0, 0, 0, 0}), geom.NewRect(100, 200, 101, 202); got != want {
		t.Errorf("SpanRect of cell (0,0) = %v, want %v", got, want)
	}
	if got, want := g.SpanRect(Span{2, 3, 4, 5}), geom.NewRect(102, 206, 105, 212); got != want {
		t.Errorf("SpanRect = %v, want %v", got, want)
	}
	if got := g.SpanArea(Span{2, 3, 4, 5}); got != 3*3*2 {
		t.Errorf("SpanArea = %g, want 18", got)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("SpanRect out of range must panic")
		}
	}()
	g.SpanRect(Span{9, 0, 10, 0})
}

func TestSpanRelations(t *testing.T) {
	q := Span{I1: 5, J1: 5, I2: 9, J2: 9}
	cases := []struct {
		name string
		o    Span
		want geom.Rel2
	}{
		{"disjoint", Span{0, 0, 2, 2}, geom.Rel2Disjoint},
		{"adjacent cells still intersect? no - share no cell", Span{0, 5, 4, 9}, geom.Rel2Disjoint},
		{"inside", Span{6, 6, 8, 8}, geom.Rel2Contains},
		{"exact same span is contains (object shrunk)", Span{5, 5, 9, 9}, geom.Rel2Contains},
		{"object strictly covers query", Span{4, 4, 10, 10}, geom.Rel2Contained},
		{"object covers but touches query edge", Span{5, 4, 10, 10}, geom.Rel2Overlap},
		{"partial", Span{8, 8, 12, 12}, geom.Rel2Overlap},
		{"crossover", Span{0, 6, 14, 8}, geom.Rel2Overlap},
	}
	for _, c := range cases {
		if got := q.Rel2(c.o); got != c.want {
			t.Errorf("%s: Rel2(%v) = %v, want %v", c.name, c.o, got, c.want)
		}
	}
}

func TestSpanProps(t *testing.T) {
	s := Span{I1: 2, J1: 3, I2: 4, J2: 3}
	if s.Width() != 3 || s.Height() != 1 || s.Cells() != 3 {
		t.Errorf("span props wrong for %v", s)
	}
	if !s.Valid() || (Span{I1: 3, I2: 2, J2: 5}).Valid() {
		t.Errorf("Valid broken")
	}
	if s.String() == "" {
		t.Errorf("String empty")
	}
}

// TestSpanRel2MatchesGeom cross-validates span-level Level 2 classification
// against the geometric classifier applied to shrunk objects: an object span
// is geometrically the open rect of its cells, slightly shrunk; a query span
// is the closed rect.
func TestSpanRel2MatchesGeom(t *testing.T) {
	g := NewUnit(16, 16)
	r := rand.New(rand.NewSource(42))
	randSpan := func() Span {
		i1, j1 := r.Intn(16), r.Intn(16)
		return Span{I1: i1, J1: j1, I2: i1 + r.Intn(16-i1), J2: j1 + r.Intn(16-j1)}
	}
	const eps = 1e-7
	f := func() bool {
		q, o := randSpan(), randSpan()
		qr := g.SpanRect(q)
		or := g.SpanRect(o).Expand(-eps) // shrunk object
		return q.Rel2(o) == geom.Level2(qr, or)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapRoundTrip checks that snapping the rect of a span returns the span
// itself (idempotence of snapping at grid alignment).
func TestSnapRoundTrip(t *testing.T) {
	g := NewUnit(20, 20)
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		i1, j1 := r.Intn(20), r.Intn(20)
		s := Span{I1: i1, J1: j1, I2: i1 + r.Intn(20-i1), J2: j1 + r.Intn(20-j1)}
		got, ok := g.Snap(g.SpanRect(s))
		return ok && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
