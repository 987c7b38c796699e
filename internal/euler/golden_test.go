package euler

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// The golden files pin the three on-disk formats byte for byte. They were
// written by the two-plane implementation (the commit before the raw plane
// was dropped), so they prove both directions at once: today's writer emits
// the same bytes from the cumulative plane alone, and files written before
// still load. Regenerate only when a format changes on purpose.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*.bin from this build's writer")

type goldenCase struct {
	name  string
	h     *Histogram
	write func(*Histogram, *bytes.Buffer) error
}

// goldenCases builds one deterministic histogram per format.
func goldenCases() []goldenCase {
	g := grid.New(geom.NewRect(-10, 5, 50, 35), 24, 16)
	r := rand.New(rand.NewSource(2002))
	mbr := NewBuilder(g)
	for k := 0; k < 400; k++ {
		mbr.AddSpan(randSpan(r, g))
	}
	// A second generation on the same builder, so the histogram also carries
	// removals and a repaired cumulative plane.
	prev := mbr.Build()
	for k := 0; k < 40; k++ {
		s := randSpan(r, g)
		mbr.AddSpan(s)
		if k%4 == 0 {
			mbr.RemoveSpan(s)
		}
	}
	spans, _ := mbr.BuildFrom(prev, BuildFromOpts{})

	rb := NewBuilder(g)
	rasters, _ := rasterObjects(rand.New(rand.NewSource(2003)), g, 60, gen.PolyOpts{})
	for _, rst := range rasters {
		rb.AddRaster(rst)
	}
	classed := rb.Build()

	full := func(h *Histogram, b *bytes.Buffer) error { return h.Write(b) }
	compact := func(h *Histogram, b *bytes.Buffer) error { return h.WriteCompact(b) }
	return []goldenCase{
		{"golden_spheul01.bin", spans, full},
		{"golden_spheul02.bin", spans, compact},
		{"golden_spheul03.bin", classed, compact},
		{"golden_spheul03_wide.bin", classed, full},
	}
}

func TestGoldenFormats(t *testing.T) {
	for _, c := range goldenCases() {
		path := filepath.Join("testdata", c.name)
		var buf bytes.Buffer
		if err := c.write(c.h, &buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: writer output (%d bytes) differs from the golden file (%d bytes)", c.name, buf.Len(), len(want))
		}
		got, err := Read(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: reading golden file: %v", c.name, err)
		}
		requireHistEqual(t, c.name, got, c.h)
		whole := grid.Span{I2: c.h.g.NX() - 1, J2: c.h.g.NY() - 1}
		gp, gok := got.PartialIn(whole)
		wp, wok := c.h.PartialIn(whole)
		if gp != wp || gok != wok {
			t.Errorf("%s: PartialIn = %d,%v after Read, want %d,%v", c.name, gp, gok, wp, wok)
		}
		var again bytes.Buffer
		if err := c.write(got, &again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), want) {
			t.Errorf("%s: Read then write is not byte-identical", c.name)
		}
	}
}
