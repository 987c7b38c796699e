package euler

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// FuzzHistogramRead drives the histogram parser with arbitrary bytes: no
// panics, and anything accepted must satisfy the structural invariant and
// answer queries consistently with a round trip.
func FuzzHistogramRead(f *testing.F) {
	for _, seed := range histogramReadSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(fuzzHistogramRead)
}

// FuzzLowLimitHistogramRead is FuzzHistogramRead with the narrow limit
// lowered to a fuzzed handful: planes that widen part-way through the
// payload, and wide planes written back out and resumed.
func FuzzLowLimitHistogramRead(f *testing.F) {
	for i, seed := range histogramReadSeeds(f) {
		f.Add(uint8(i), seed)
	}
	f.Fuzz(func(t *testing.T, limit uint8, data []byte) {
		defer LowerNarrowLimit(int64(limit))()
		fuzzHistogramRead(t, data)
	})
}

func histogramReadSeeds(f *testing.F) [][]byte {
	g := grid.NewUnit(7, 5)
	b := NewBuilder(g)
	b.AddSpan(grid.Span{I1: 1, J1: 1, I2: 4, J2: 3})
	b.AddSpan(grid.Span{I1: 0, J1: 0, I2: 6, J2: 4})
	var buf bytes.Buffer
	if err := b.Build().Write(&buf); err != nil {
		f.Fatal(err)
	}
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[len(corrupt)-1] ^= 0x80
	seeds := [][]byte{buf.Bytes(), {}, []byte("SPHEUL01"), bytes.Repeat([]byte{0x01}, 100), corrupt}
	// The golden files carry the formats Write no longer emits.
	golden, _ := filepath.Glob(filepath.Join("testdata", "golden_*.bin"))
	for _, path := range golden {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

func fuzzHistogramRead(t *testing.T, data []byte) {
	h, err := Read(bytes.NewReader(data))
	if err != nil {
		return
	}
	if h.Total() != h.Count() {
		t.Fatalf("accepted histogram violating Σ buckets == count: %d vs %d", h.Total(), h.Count())
	}
	gg := h.Grid()
	q := grid.Span{I1: 0, J1: 0, I2: gg.NX() - 1, J2: gg.NY() - 1}
	if got := h.InsideSum(q); got != h.Count() {
		t.Fatalf("whole-space inside sum %d != count %d", got, h.Count())
	}
	if reach := h.hc.MaxMagnitude(); (h.CellWidth() == 4) != (reach <= narrowLimit.Load()) {
		t.Fatalf("plane reaching %d read back at %d-byte cells under a limit of %d", reach, h.CellWidth(), narrowLimit.Load())
	}
	var out bytes.Buffer
	if err := h.Write(&out); err != nil {
		t.Fatalf("re-writing accepted histogram: %v", err)
	}
	h2, err := Read(&out)
	if err != nil {
		t.Fatalf("re-reading: %v", err)
	}
	if h2.Count() != h.Count() || h2.Total() != h.Total() {
		t.Fatalf("round trip changed the histogram")
	}
	// A builder resumed from whatever was accepted rebuilds it, at the
	// width its values and difference entries need.
	if lx, ly := h.Buckets(); lx*ly <= 1<<12 {
		assertIdentical(t, h, BuilderFromHistogram(h).Build())
	}
}

// FuzzRasterize drives polygon rasterization plus Euler ingestion with
// arbitrary vertex coordinates: every returned component must be per-row
// disjoint sorted runs with matching classes and χ = 1 topology, every cell
// whose center the polygon contains must be covered, and adding then
// removing all components must drain a builder back to the empty histogram
// bit-identically.
func FuzzRasterize(f *testing.F) {
	f.Add(1.0, 1.0, 5.0, 1.0, 1.0, 5.0, 0.0, 0.0)
	f.Add(0.5, 0.5, 6.5, 0.5, 6.5, 6.5, 0.5, 6.5)
	f.Add(0.0, 0.0, 7.0, 7.0, 7.0, 0.0, 0.0, 7.0) // bowtie
	f.Add(-3.0, -3.0, 12.0, -1.0, 4.0, 9.0, -2.0, 5.0)
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, x2, y2, x3, y3 float64) {
		g := grid.NewUnit(8, 7)
		p := geom.Polygon{{X: x0, Y: y0}, {X: x1, Y: y1}, {X: x2, Y: y2}, {X: x3, Y: y3}}
		rasters := g.Rasterize(p)

		covered := map[[2]int]bool{}
		for _, rst := range rasters {
			if len(rst.Classes) != len(rst.Spans) {
				t.Fatalf("classes/spans length mismatch: %d vs %d", len(rst.Classes), len(rst.Spans))
			}
			last := grid.Span{J1: -1}
			for _, s := range rst.Spans {
				if s.J1 != s.J2 || !s.Valid() || s.I1 < 0 || s.J1 < 0 || s.I2 >= g.NX() || s.J2 >= g.NY() {
					t.Fatalf("span %v is not a valid in-grid row run", s)
				}
				if s.J1 < last.J1 || (s.J1 == last.J1 && s.I1 <= last.I2) {
					t.Fatalf("spans not sorted/disjoint: %v after %v", s, last)
				}
				last = s
				for x := s.I1; x <= s.I2; x++ {
					if covered[[2]int{x, s.J1}] {
						t.Fatalf("cell (%d,%d) covered by two components", x, s.J1)
					}
					covered[[2]int{x, s.J1}] = true
				}
			}
			if comps, chi := grid.RunsTopology(grid.NormalizeRuns(rst.Spans)); comps != 1 || chi != 1 {
				t.Fatalf("component topology = (%d, %d), want (1, 1)", comps, chi)
			}
		}

		// Center-inside cells must be covered (as full or partial).
		if p.Valid() {
			for i := 0; i < g.NX(); i++ {
				for j := 0; j < g.NY(); j++ {
					cr := g.CellRect(i, j)
					c := geom.Point{X: (cr.XMin + cr.XMax) / 2, Y: (cr.YMin + cr.YMax) / 2}
					if p.ContainsPoint(c) && !covered[[2]int{i, j}] {
						t.Fatalf("cell (%d,%d) center inside polygon but uncovered", i, j)
					}
				}
			}
		}

		// Ingest + drain must be bit-identical to the empty histogram.
		if len(rasters) == 0 {
			return
		}
		b := NewBuilder(g)
		for _, rst := range rasters {
			b.AddRaster(rst)
		}
		mid := b.Build()
		if mid.Count() != int64(len(rasters)) || mid.Total() != mid.Count() {
			t.Fatalf("ingest: count %d, total %d, components %d", mid.Count(), mid.Total(), len(rasters))
		}
		for _, rst := range rasters {
			if !b.RemoveRaster(rst) {
				t.Fatal("RemoveRaster rejected an added component")
			}
		}
		drained, empty := b.Build(), NewBuilder(g).Build()
		if drained.Count() != 0 || drained.Total() != 0 {
			t.Fatalf("drain left count %d, total %d", drained.Count(), drained.Total())
		}
		lx, ly := empty.Buckets()
		for u := 0; u < lx; u++ {
			for v := 0; v < ly; v++ {
				if drained.Bucket(u, v) != 0 {
					t.Fatalf("drain left bucket (%d,%d) = %d", u, v, drained.Bucket(u, v))
				}
			}
		}
		full := grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
		if pc, ok := drained.PartialIn(full); !ok || pc != 0 {
			t.Fatalf("drained class plane = (%d, %v), want (0, true)", pc, ok)
		}
	})
}
