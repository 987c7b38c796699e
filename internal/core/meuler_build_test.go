package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// TestNewMEulerAllocatesOnePlanePerGroup is the allocation gate of the
// nested build: one builder's difference array, each plane below the last
// a Build of it and the last its Finish, so m groups cost m lattice
// arrays, plus four bytes per object of group numbers — not a difference
// array beside the planes, which at three groups is a third as much again.
func TestNewMEulerAllocatesOnePlanePerGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on a 1024×512 grid")
	}
	g := grid.NewUnit(1024, 512)
	areas := []float64{1, 9, 100}
	rects := gen.Rects(gen.Rand(31), g, 20_000, gen.RectOpts{MaxCellsX: 24, MaxCellsY: 24})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := NewMEuler(g, areas, rects)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	lx, ly := 2*g.NX()-1, 2*g.NY()-1
	lattices := uint64(len(areas) * 4 * (lx + 1) * (ly + 1))
	if got, limit := after.TotalAlloc-before.TotalAlloc, lattices+lattices/10+uint64(4*len(rects)); got > limit {
		t.Errorf("NewMEuler allocated %d bytes, want < 1.1 × %d difference arrays that become the planes (%d) + %d of group numbers",
			got, len(areas), lattices, 4*len(rects))
	}
	if m.LatticeBytes() != len(areas)*4*lx*ly {
		t.Errorf("LatticeBytes = %d, want %d planes of %d", m.LatticeBytes(), len(areas), 4*lx*ly)
	}
	var below int64
	for i, h := range m.Histograms() {
		if h.Count() == below {
			t.Errorf("group %d is empty; the dataset exercises nothing", i)
		}
		below = h.Count()
	}
}

// TestNestedPlanesFromNewMEuler: plane k of what NewMEuler builds is, bucket
// for bucket, the histogram euler.FromRects builds over the objects of
// groups 0..k — same bytes written, same count — and every plane of the
// stack has one cell width, past a lowered narrow limit the wide one the
// last plane needs even where a lower plane alone would be narrow.
// Objects outside the extent join no group, and the number of thresholds
// is bounded by nothing but memory.
func TestNestedPlanesFromNewMEuler(t *testing.T) {
	many := make([]float64, 300) // more groups than a byte could number
	for i := range many {
		many[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		nx, ny int
		areas  []float64
		limit  int64 // lowered narrow limit; 0 leaves the default
		width  int   // the stack's cell width
	}{
		{48, 40, []float64{1}, 0, 4},
		{48, 40, []float64{1, 9, 100}, 0, 4},
		{48, 40, []float64{1, 9, 100}, 200, 8},
		{48, 40, []float64{1, 100, 380}, 200, 8},
		{40, 40, many, 0, 4},
	} {
		t.Run(fmt.Sprintf("%dx%d/%d groups/limit %d", tc.nx, tc.ny, len(tc.areas), tc.limit), func(t *testing.T) {
			if tc.limit > 0 {
				defer euler.LowerNarrowLimit(tc.limit)()
			}
			g := grid.New(geom.NewRect(-10, 5, 86, 85), tc.nx, tc.ny)
			rects := gen.Rects(gen.Rand(int64(32+len(tc.areas))), g, 900, gen.RectOpts{MaxCellsX: 20, MaxCellsY: 20, PointFrac: 0.05})
			// Two objects outside the extent, which join no group.
			rects = append(rects, geom.NewRect(-50, -50, -40, -40), geom.NewRect(200, 200, 210, 210))
			m, err := NewMEuler(g, tc.areas, rects)
			if err != nil {
				t.Fatal(err)
			}
			planes := m.Histograms()
			if len(planes) != len(tc.areas) {
				t.Fatalf("%d planes for %d thresholds", len(planes), len(tc.areas))
			}
			checkNested(t, g, tc.areas, rects, planes)
			for k, h := range planes {
				if h.CellWidth() != tc.width {
					t.Fatalf("plane %d: %d B/bucket in a stack of %d", k, h.CellWidth(), tc.width)
				}
			}
			if tc.limit > 0 && euler.FromRects(g, rects[:tc.limit/2]).CellWidth() != 4 {
				t.Fatal("no lower plane would be narrow alone: the case does not exercise what it names")
			}
			if m.Count() != planes[len(planes)-1].Count() {
				t.Fatalf("Count = %d, the last plane holds %d", m.Count(), planes[len(planes)-1].Count())
			}
		})
	}
}

// checkNested holds planes to the nested invariant: plane k writes the
// bytes euler.FromRects writes over the objects of area groups 0..k (and
// so holds the same count and buckets).
func checkNested(t *testing.T, g *grid.Grid, areas []float64, rects []geom.Rect, planes []*euler.Histogram) {
	t.Helper()
	var members []geom.Rect
	for k, h := range planes {
		for _, r := range rects {
			if gi, ok := ObjectAreaGroup(g, areas, r); ok && gi == k {
				members = append(members, r)
			}
		}
		var got, want bytes.Buffer
		if err := h.Write(&got); err != nil {
			t.Fatal(err)
		}
		if err := euler.FromRects(g, members).Write(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("plane %d: Write bytes differ from FromRects over groups 0..%d (%d objects, plane holds %d)", k, k, len(members), h.Count())
		}
	}
}
