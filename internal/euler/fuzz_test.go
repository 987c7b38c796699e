package euler

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

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
