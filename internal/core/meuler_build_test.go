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
// group-by-group build: each group's difference array becomes its plane, so
// m groups cost m lattice arrays, plus four bytes per object of group
// numbers — not a difference array beside the planes, which at three
// groups is a third as much again.
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
	for i, h := range m.Histograms() {
		if h.Count() == 0 {
			t.Errorf("group %d is empty; the dataset exercises nothing", i)
		}
	}
}

// TestNewMEulerGroupsMatchFromRectsAtBothWidths: every group NewMEuler
// builds in its own builder is, bit for bit, the histogram
// euler.FromRects builds over that group's objects alone — same bytes
// written, same count, same cell width, including past a lowered narrow
// limit where a crowded group goes wide and the next starts narrow again.
// Objects outside the extent join no group, and the number of thresholds is
// bounded by nothing but memory.
func TestNewMEulerGroupsMatchFromRectsAtBothWidths(t *testing.T) {
	many := make([]float64, 300) // more groups than a byte could number
	for i := range many {
		many[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		nx, ny int
		areas  []float64
		limit  int64 // lowered narrow limit; 0 leaves the default
		widths []int // cell width expected of each group; nil: all narrow
	}{
		{48, 40, []float64{1}, 0, nil},
		{48, 40, []float64{1, 9, 100}, 0, nil},
		{48, 40, []float64{1, 9, 100}, 200, []int{4, 8, 8}},
		{48, 40, []float64{1, 100, 380}, 200, []int{8, 8, 4}}, // a narrow group after wide ones
		{40, 40, many, 0, nil},
	} {
		t.Run(fmt.Sprintf("%dx%d/%d groups/limit %d", tc.nx, tc.ny, len(tc.areas), tc.limit), func(t *testing.T) {
			if tc.limit > 0 {
				defer euler.LowerNarrowLimit(tc.limit)()
			}
			g := grid.New(geom.NewRect(-10, 5, 86, 85), tc.nx, tc.ny)
			rects := gen.Rects(gen.Rand(int64(32+len(tc.areas))), g, 900, gen.RectOpts{MaxCellsX: 20, MaxCellsY: 20, PointFrac: 0.05})
			rects = append(rects, geom.NewRect(-50, -50, -40, -40), geom.NewRect(200, 200, 210, 210))
			m, err := NewMEuler(g, tc.areas, rects)
			if err != nil {
				t.Fatal(err)
			}
			members := make([][]geom.Rect, len(tc.areas))
			outside := 0
			for _, r := range rects {
				if gi, ok := ObjectAreaGroup(g, tc.areas, r); ok {
					members[gi] = append(members[gi], r)
				} else {
					outside++
				}
			}
			if outside < 2 {
				t.Fatalf("%d objects outside the extent; the skip path is not exercised", outside)
			}
			hists := m.Histograms()
			if len(hists) != len(tc.areas) {
				t.Fatalf("%d histograms for %d thresholds", len(hists), len(tc.areas))
			}
			var total int64
			for gi, h := range hists {
				want := euler.FromRects(g, members[gi])
				if h.Count() != want.Count() || h.CellWidth() != want.CellWidth() {
					t.Fatalf("group %d: %d objects at %d B/bucket, FromRects has %d at %d",
						gi, h.Count(), h.CellWidth(), want.Count(), want.CellWidth())
				}
				var gb, wb bytes.Buffer
				if err := h.Write(&gb); err != nil {
					t.Fatal(err)
				}
				if err := want.Write(&wb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
					t.Fatalf("group %d: Write bytes differ from FromRects over the group's %d objects", gi, len(members[gi]))
				}
				wantWidth := 4
				if tc.widths != nil {
					wantWidth = tc.widths[gi]
				}
				if h.CellWidth() != wantWidth {
					t.Fatalf("group %d: %d B/bucket, want %d: the case does not exercise what it names", gi, h.CellWidth(), wantWidth)
				}
				total += h.Count()
			}
			if m.Count() != total {
				t.Fatalf("Count = %d, groups hold %d", m.Count(), total)
			}
		})
	}
}
