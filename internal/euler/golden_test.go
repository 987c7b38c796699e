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

// The golden files pin the on-disk formats byte for byte. They were
// written by the two-plane implementation (the commit before the raw plane
// was dropped), so they prove both directions at once: today's writer emits
// the same bytes from the cumulative plane alone, and files written before
// still load. Two of them are the 8-byte forms Write no longer emits —
// SPHEUL01, and SPHEUL03 at 8 bytes per bucket — kept as the files the
// compatibility reader must keep reading. Regenerate only when a format
// changes on purpose.
var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/golden_*.bin files Write emits from this build's writer")

type goldenCase struct {
	name string
	h    *Histogram
	// current names the file Write emits for h: name itself, or the file of
	// the current form an older file re-saves to.
	current string
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
	spans, _ := repairOnly.publish(mbr, prev, BuildFromOpts{})

	rb := NewBuilder(g)
	rasters, _ := rasterObjects(rand.New(rand.NewSource(2003)), g, 60, gen.PolyOpts{})
	for _, rst := range rasters {
		rb.AddRaster(rst)
	}
	classed := rb.Build()

	return []goldenCase{
		{"golden_spheul01.bin", spans, "golden_spheul02.bin"},
		{"golden_spheul02.bin", spans, "golden_spheul02.bin"},
		{"golden_spheul03.bin", classed, "golden_spheul03.bin"},
		{"golden_spheul03_wide.bin", classed, "golden_spheul03.bin"},
	}
}

// TestGoldenFormats: Write emits the current files byte for byte, every
// file reads back to its histogram, and writing what was read gives the
// file of the current form.
func TestGoldenFormats(t *testing.T) {
	for _, c := range goldenCases() {
		var buf bytes.Buffer
		if err := c.h.Write(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if *updateGolden {
			if c.name == c.current {
				if err := os.WriteFile(filepath.Join("testdata", c.name), buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.current))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: writer output (%d bytes) differs from %s (%d bytes)", c.name, buf.Len(), c.current, len(want))
		}
		file, err := os.ReadFile(filepath.Join("testdata", c.name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(file))
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
		if err := got.Write(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), want) {
			t.Errorf("%s: Read then Write is not %s byte for byte", c.name, c.current)
		}
	}
}
