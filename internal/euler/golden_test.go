package euler

import (
	"bytes"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// The golden files pin the on-disk formats byte for byte. They were
// written by the two-plane implementation (the commit before the raw plane
// was dropped), so they prove both directions at once: today's writer emits
// the same bytes from the cumulative plane alone, and files written before
// still load. golden_spheul01.bin is the 8-byte form Write no longer emits,
// kept as the file the compatibility reader must keep reading. The two
// golden_spheul03 files carry a partial-cell class plane (flag 1), which
// Read refuses. Regenerate only when a format changes on purpose.
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
	return []goldenCase{
		{"golden_spheul01.bin", spans, "golden_spheul02.bin"},
		{"golden_spheul02.bin", spans, "golden_spheul02.bin"},
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
		var again bytes.Buffer
		if err := got.Write(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), want) {
			t.Errorf("%s: Read then Write is not %s byte for byte", c.name, c.current)
		}
	}
}

// TestReadSPHEUL03ByClassFlag: a SPHEUL03 file loads when its class flag
// says no plane follows, and is refused by name when it says one does (the
// golden files at both bucket widths); any other flag, or none, is an error.
func TestReadSPHEUL03ByClassFlag(t *testing.T) {
	packed, err := os.ReadFile(filepath.Join("testdata", "golden_spheul02.bin"))
	if err != nil {
		t.Fatal(err)
	}
	spheul03 := func(flag ...byte) []byte {
		b := append([]byte("SPHEUL03"), packed[8:]...)
		return append(b, flag...)
	}
	got, err := Read(bytes.NewReader(spheul03(0)))
	if err != nil {
		t.Fatalf("flag 0: %v", err)
	}
	requireHistEqual(t, "flag 0", got, goldenCases()[1].h)
	var again bytes.Buffer
	if err := got.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), packed) {
		t.Error("flag 0: Read then Write is not golden_spheul02.bin byte for byte")
	}

	for _, name := range []string{"golden_spheul03.bin", "golden_spheul03_wide.bin"} {
		file, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Read(bytes.NewReader(file)); !errors.Is(err, ErrClassPlane) {
			t.Errorf("%s: Read error %v, want ErrClassPlane", name, err)
		}
	}
	for _, flag := range [][]byte{{2}, {0xff}, nil} {
		if _, err := Read(bytes.NewReader(spheul03(flag...))); err == nil || errors.Is(err, ErrClassPlane) {
			t.Errorf("flag %v: Read error %v, want an invalid-flag error", flag, err)
		}
	}
}
