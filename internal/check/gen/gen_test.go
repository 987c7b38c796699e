package gen

import (
	"slices"
	"testing"

	"spatialhist/internal/geom"
)

func TestDeterminism(t *testing.T) {
	mk := func() ([]geom.Rect, []Mutation) {
		r := Rand(7)
		g := Grid(r, 32, 32)
		rects := Rects(r, g, 50, RectOpts{PointFrac: 0.2})
		muts := Mutations(r, g, rects, 40, RectOpts{})
		return rects, muts
	}
	r1, m1 := mk()
	r2, m2 := mk()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("rect %d differs across identically seeded runs: %v vs %v", i, r1[i], r2[i])
		}
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("mutation %d differs across identically seeded runs", i)
		}
	}
}

func TestRectProfiles(t *testing.T) {
	r := Rand(11)
	for trial := 0; trial < 200; trial++ {
		g := Grid(r, 24, 24)
		ext := g.Extent()

		in := Rect(r, g, RectOpts{Inside: true})
		if in.XMin < ext.XMin || in.YMin < ext.YMin || in.XMax > ext.XMax+1e-9 || in.YMax > ext.YMax+1e-9 {
			t.Fatalf("Inside rect %v escapes extent %v", in, ext)
		}

		k := 1 + r.Intn(3)
		small := Rect(r, g, Small(k))
		if w := small.Width() / g.CellWidth(); w > float64(k)+1e-9 {
			t.Fatalf("Small(%d) rect spans %.3f cells wide", k, w)
		}
		if h := small.Height() / g.CellHeight(); h > float64(k)+1e-9 {
			t.Fatalf("Small(%d) rect spans %.3f cells tall", k, h)
		}

		// MaxCells wider than the grid must clamp, not escape the space.
		big := Rect(r, g, RectOpts{MaxCellsX: 10 * g.NX(), MaxCellsY: 10 * g.NY(), Inside: true})
		if big.XMax > ext.XMax+1e-9 || big.YMax > ext.YMax+1e-9 {
			t.Fatalf("oversized MaxCells rect %v escapes extent %v", big, ext)
		}
	}
}

func TestSpanGenerators(t *testing.T) {
	r := Rand(13)
	for trial := 0; trial < 200; trial++ {
		g := Grid(r, 20, 20)
		s := Span(r, g)
		if s.I1 < 0 || s.J1 < 0 || s.I2 >= g.NX() || s.J2 >= g.NY() || s.I1 > s.I2 || s.J1 > s.J2 {
			t.Fatalf("Span %v invalid for %dx%d grid", s, g.NX(), g.NY())
		}
		minW, minH := 1+r.Intn(4), 1+r.Intn(4)
		if sm, ok := SpanMin(r, g, minW, minH); ok {
			if sm.Width() < minW || sm.Height() < minH {
				t.Fatalf("SpanMin(%d,%d) returned %v", minW, minH, sm)
			}
			if sm.I2 >= g.NX() || sm.J2 >= g.NY() {
				t.Fatalf("SpanMin %v escapes %dx%d grid", sm, g.NX(), g.NY())
			}
		}
	}
	if _, ok := SpanMin(r, Grid(Rand(1), 4, 4), 100, 100); ok {
		t.Fatal("SpanMin accepted an impossible request")
	}
}

func TestTilingDividesExactly(t *testing.T) {
	r := Rand(17)
	for trial := 0; trial < 200; trial++ {
		g := Grid(r, 30, 30)
		region, cols, rows := Tiling(r, g)
		if region.Width()%cols != 0 || region.Height()%rows != 0 {
			t.Fatalf("tiling %dx%d does not divide region %v", cols, rows, region)
		}
		if region.I1 < 0 || region.J1 < 0 || region.I2 >= g.NX() || region.J2 >= g.NY() {
			t.Fatalf("region %v escapes %dx%d grid", region, g.NX(), g.NY())
		}
		tiles := Tiles(region, cols, rows)
		if len(tiles) != cols*rows {
			t.Fatalf("Tiles returned %d spans for %dx%d", len(tiles), cols, rows)
		}
		// Row-major from the south-west, wall to wall.
		tw, th := region.Width()/cols, region.Height()/rows
		for k, tile := range tiles {
			col, row := k%cols, k/cols
			if tile.I1 != region.I1+col*tw || tile.J1 != region.J1+row*th ||
				tile.Width() != tw || tile.Height() != th {
				t.Fatalf("tile %d = %v, wrong placement for %dx%d tiling of %v", k, tile, cols, rows, region)
			}
		}
	}
}

// TestMutationsNameLiveObjects verifies the generator's core contract:
// every delete and every update pre-image refers to an object that is live
// at that point of the stream.
func TestMutationsNameLiveObjects(t *testing.T) {
	r := Rand(19)
	for trial := 0; trial < 50; trial++ {
		g := Grid(r, 24, 24)
		seed := Rects(r, g, 10, RectOpts{})
		muts := Mutations(r, g, seed, 120, RectOpts{PointFrac: 0.1})
		if len(muts) != 120 {
			t.Fatalf("got %d mutations, want 120", len(muts))
		}
		live := map[geom.Rect]int{}
		for _, s := range seed {
			live[s]++
		}
		for i, m := range muts {
			switch m.Op {
			case OpInsert:
				live[m.R]++
			case OpDelete:
				if live[m.R] == 0 {
					t.Fatalf("mutation %d deletes an object that is not live: %v", i, m.R)
				}
				live[m.R]--
			case OpUpdate:
				if live[m.Old] == 0 {
					t.Fatalf("mutation %d updates an object that is not live: %v", i, m.Old)
				}
				live[m.Old]--
				live[m.R]++
			default:
				t.Fatalf("mutation %d has unknown op %v", i, m.Op)
			}
		}
	}
}

func TestApplyFoldsStream(t *testing.T) {
	r := Rand(23)
	g := Grid(r, 16, 16)
	seed := Rects(r, g, 8, RectOpts{})
	muts := Mutations(r, g, seed, 60, RectOpts{})
	objects := append([]geom.Rect(nil), seed...)
	count := len(objects)
	for _, m := range muts {
		objects = Apply(objects, m)
		switch m.Op {
		case OpInsert:
			count++
		case OpDelete:
			count--
		}
	}
	if len(objects) != count {
		t.Fatalf("Apply tracked %d objects, bookkeeping says %d", len(objects), count)
	}
}

func TestMutOpString(t *testing.T) {
	for op, want := range map[MutOp]string{OpInsert: "insert", OpDelete: "delete", OpUpdate: "update", MutOp(9): "op(?)"} {
		if got := op.String(); got != want {
			t.Fatalf("MutOp(%d).String() = %q, want %q", op, got, want)
		}
	}
}

// TestScriptWithStaysFeedable drops every insert of a script and expects
// With to drop the deletes and updates that named the objects they
// inserted, and to keep a script that needs nothing dropped as it is.
func TestScriptWithStaysFeedable(t *testing.T) {
	r := Rand(3)
	s := NewScript(r, Grid(r, 16, 16))
	if got := len(s.With(s.Steps).Steps); got != len(s.Steps) {
		t.Fatalf("With dropped %d steps of a script that needs none dropped", len(s.Steps)-got)
	}
	var kept []Step
	for _, st := range s.Steps {
		if st.Kind != StepMutate || st.Mut.Op != OpInsert {
			kept = append(kept, st)
		}
	}
	live := slices.Clone(s.Seed)
	for _, st := range s.With(kept).Steps {
		if st.Kind == StepMutate {
			if old, ok := st.Mut.Removed(); ok && !slices.Contains(live, old) {
				t.Fatalf("%v names an object that is not live", st)
			}
			live = Apply(live, st.Mut)
		}
	}
}
