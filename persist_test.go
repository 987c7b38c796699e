package spatialhist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialhist/internal/core"
	"spatialhist/internal/dataset"
	"spatialhist/internal/euler"
)

func persistedEqual(t *testing.T, s *Summary) {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm() != s.Algorithm() || got.Count() != s.Count() ||
		got.StorageBuckets() != s.StorageBuckets() {
		t.Fatalf("metadata diverges: %s/%d/%d vs %s/%d/%d",
			got.Algorithm(), got.Count(), got.StorageBuckets(),
			s.Algorithm(), s.Count(), s.StorageBuckets())
	}
	g := s.Grid()
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		i1, j1 := r.Intn(g.NX()), r.Intn(g.NY())
		q := Span{I1: i1, J1: j1, I2: i1 + r.Intn(g.NX()-i1), J2: j1 + r.Intn(g.NY()-j1)}
		if got.QuerySpan(q) != s.QuerySpan(q) {
			t.Fatalf("estimates diverge at %v", q)
		}
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	d := dataset.SzSkew(3000, 31)
	g := NewGrid(d.Extent, 60, 30)
	persistedEqual(t, NewSEuler(g, d.Rects))
	persistedEqual(t, NewEuler(g, d.Rects))
	me, err := NewMEuler(g, []float64{1, 4, 25}, d.Rects)
	if err != nil {
		t.Fatal(err)
	}
	persistedEqual(t, me)
}

// TestLoadedSummaryHoldsNestedPlanes: a summary file keeps one histogram
// per area group, and the M-EulerApprox loaded from it holds nested
// planes: plane k writes the bytes euler.FromRects writes over the objects
// of groups 0..k, as NewMEuler's do.
func TestLoadedSummaryHoldsNestedPlanes(t *testing.T) {
	d := dataset.SzSkew(2000, 33)
	g := NewGrid(d.Extent, 40, 20)
	areas := []float64{1, 4, 25}
	me, err := NewMEuler(g, areas, d.Rects)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := me.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The histograms past magic, algo, count, areas and CRC, in a reader as
	// large as euler.Read's own, so that each Read leaves the next in it.
	raw := bufio.NewReaderSize(bytes.NewReader(buf.Bytes()[8+5+8*len(areas)+4:]), 1<<20)
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, planes, _ := core.SpecOf(loaded.Estimator())
	if len(planes) != len(areas) {
		t.Fatalf("%d planes for %d area groups", len(planes), len(areas))
	}
	// sameAs holds h to FromRects over the objects of the groups in range.
	sameAs := func(what string, h *euler.Histogram, in func(gi int) bool) {
		t.Helper()
		var members []Rect
		for _, r := range d.Rects {
			if gi, ok := core.ObjectAreaGroup(g, areas, r); ok && in(gi) {
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
			t.Fatalf("%s differs from FromRects over its %d objects", what, len(members))
		}
	}
	for k, h := range planes {
		sameAs(fmt.Sprintf("plane %d of the loaded summary", k), h, func(gi int) bool { return gi <= k })
		onDisk, err := euler.Read(raw)
		if err != nil {
			t.Fatal(err)
		}
		sameAs(fmt.Sprintf("histogram %d of the file", k), onDisk, func(gi int) bool { return gi == k })
	}
}

func TestSummaryFileRoundTrip(t *testing.T) {
	d := dataset.SpSkew(500, 2)
	g := NewGrid(d.Extent, 36, 18)
	s := NewEuler(g, d.Rects)
	path := filepath.Join(t.TempDir(), "summary.bin")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 500 {
		t.Fatalf("Count = %d", got.Count())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	d := dataset.SpSkew(100, 2)
	g := NewGrid(d.Extent, 36, 18)
	var buf bytes.Buffer
	if err := NewSEuler(g, d.Rects).Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	cases := map[string]func([]byte) []byte{
		"empty":     func(b []byte) []byte { return nil },
		"bad magic": func(b []byte) []byte { c := cp(b); c[3] = 'X'; return c },
		"bad algo":  func(b []byte) []byte { c := cp(b); c[8] = 99; return c },
		"bad count": func(b []byte) []byte { c := cp(b); c[9] = 77; return c },
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"corrupted": func(b []byte) []byte { c := cp(b); c[len(c)-4] ^= 0xff; return c },
	}
	for name, mutate := range cases {
		if _, err := Load(bytes.NewReader(mutate(raw))); err == nil {
			t.Errorf("%s: Load must error", name)
		}
	}
}

func cp(b []byte) []byte { return append([]byte(nil), b...) }

// TestLoadCorruptedHeader pins down the error messages of header-level
// corruption: each failure must be detected at the header field it
// corrupts — before any histogram parsing — and name the actual problem.
func TestLoadCorruptedHeader(t *testing.T) {
	d := dataset.SpSkew(100, 2)
	g := NewGrid(d.Extent, 36, 18)
	me, err := NewMEuler(g, []float64{1, 4, 25}, d.Rects)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := me.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Layout: magic [0,8), algo byte 8, histogram count [9,13),
	// area thresholds [13, 13+8m).
	cases := map[string]struct {
		mutate  func([]byte) []byte
		wantErr string
	}{
		"unknown algo tag": {
			func(b []byte) []byte { c := cp(b); c[8] = 42; return c },
			"unknown algorithm tag 42",
		},
		"zero algo tag": {
			func(b []byte) []byte { c := cp(b); c[8] = 0; return c },
			"unknown algorithm tag 0",
		},
		"zero histograms": {
			func(b []byte) []byte { c := cp(b); c[9], c[10], c[11], c[12] = 0, 0, 0, 0; return c },
			"unreasonable histogram count 0",
		},
		"absurd histogram count": {
			func(b []byte) []byte { c := cp(b); c[9], c[10], c[11], c[12] = 0xff, 0xff, 0xff, 0xff; return c },
			"unreasonable histogram count",
		},
		"area table cut mid-threshold": {
			func(b []byte) []byte { return cp(b)[:13+8*2+3] },
			"area table truncated: header promises 3 thresholds, stream ends after 2",
		},
		"area table missing entirely": {
			func(b []byte) []byte { return cp(b)[:13] },
			"area table truncated: header promises 3 thresholds, stream ends after 0",
		},
		"NaN area threshold": {
			func(b []byte) []byte {
				c := cp(b)
				for i := 13; i < 21; i++ {
					c[i] = 0xff
				}
				return c
			},
			"invalid area threshold",
		},
	}
	for name, tc := range cases {
		_, err := Load(bytes.NewReader(tc.mutate(raw)))
		if err == nil {
			t.Errorf("%s: Load must error", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.wantErr)
		}
	}
}

func TestSummaryOf(t *testing.T) {
	d := dataset.SpSkew(200, 4)
	g := NewGrid(d.Extent, 36, 18)
	s := NewSEuler(g, d.Rects)
	wrapped, err := SummaryOf(s.Estimator())
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Algorithm() != "S-EulerApprox" || wrapped.Count() != 200 {
		t.Fatalf("SummaryOf = %s/%d", wrapped.Algorithm(), wrapped.Count())
	}
	// Round-trip preserves the algorithm.
	var buf bytes.Buffer
	if err := wrapped.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm() != "S-EulerApprox" {
		t.Fatalf("algorithm changed across save/load: %s", got.Algorithm())
	}
}

// TestHeaderCorruptionSweep systematically corrupts every byte of the
// summary header — magic, algo, count, area table and checksum — with two
// different flips each, and requires every single corruption to surface as
// a descriptive error: never a panic, never a silently different summary.
// The crc32 header checksum (format SPSUM002) is what closes the gaps the
// field validators cannot see, such as a bit flip inside an area
// threshold.
func TestHeaderCorruptionSweep(t *testing.T) {
	d := dataset.SpSkew(120, 2)
	g := NewGrid(d.Extent, 24, 12)
	me, err := NewMEuler(g, []float64{1, 4, 25}, d.Rects)
	if err != nil {
		t.Fatal(err)
	}
	summaries := map[string]*Summary{
		"s-euler": NewSEuler(g, d.Rects), // header: magic 8 + algo 1 + count 4 + crc 4
		"m-euler": me,                    // + 3 area thresholds of 8 bytes each
	}
	for name, s := range summaries {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		headerEnd := 8 + 5 + 4
		if name == "m-euler" {
			headerEnd += 3 * 8
		}
		for pos := 0; pos < headerEnd; pos++ {
			for _, delta := range []byte{0x01, 0xff} {
				c := cp(raw)
				c[pos] ^= delta
				got, err := Load(bytes.NewReader(c))
				if err == nil {
					t.Errorf("%s: byte %d ^ %#02x: Load succeeded (got %s/%d) — corruption undetected",
						name, pos, delta, got.Algorithm(), got.Count())
					continue
				}
				if !strings.Contains(err.Error(), "spatialhist:") || len(err.Error()) < 20 {
					t.Errorf("%s: byte %d ^ %#02x: error %q is not descriptive", name, pos, delta, err)
				}
			}
		}
	}
}

// TestLoadNamesV1Format pins the error for summaries written before the
// header checksum existed: the reader must say which format it found and
// what to do about it, not just "bad magic".
func TestLoadNamesV1Format(t *testing.T) {
	d := dataset.SpSkew(50, 2)
	g := NewGrid(d.Extent, 12, 8)
	var buf bytes.Buffer
	if err := NewSEuler(g, d.Rects).Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	copy(raw, []byte("SPSUM001"))
	_, err := Load(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("v1 magic accepted")
	}
	for _, frag := range []string{"SPSUM001", "SPSUM002", "re-save"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("v1 error %q does not mention %q", err, frag)
		}
	}
}

// TestLoadRefusesMalformedThresholds: every threshold list Spec.Validate
// refuses is refused by Load too, checksum intact — the loader runs the one
// copy of the §5.4 rules, not a subset of its own.
func TestLoadRefusesMalformedThresholds(t *testing.T) {
	d := dataset.SpSkew(100, 2)
	g := NewGrid(d.Extent, 16, 8)
	me, err := NewMEuler(g, []float64{1, 4, 25}, d.Rects)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := me.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for name, areas := range map[string][3]float64{
		"not the unit cell": {2, 4, 25},
		"descending":        {1, 25, 4},
		"repeated":          {1, 4, 4},
		"NaN":               {1, 4, math.NaN()},
		"infinite":          {1, 4, math.Inf(1)},
	} {
		c := cp(raw)
		for i, a := range areas {
			binary.LittleEndian.PutUint64(c[13+8*i:], math.Float64bits(a))
		}
		binary.LittleEndian.PutUint32(c[13+8*3:], crc32.ChecksumIEEE(c[8:13+8*3]))
		if _, err := Load(bytes.NewReader(c)); err == nil || !strings.Contains(err.Error(), "area") {
			t.Errorf("%s thresholds %v: Load = %v, want a threshold error", name, areas, err)
		}
	}
	// The harness itself is sound: the original thresholds, re-stamped the
	// same way, load.
	c := cp(raw)
	binary.LittleEndian.PutUint32(c[13+8*3:], crc32.ChecksumIEEE(c[8:13+8*3]))
	if _, err := Load(bytes.NewReader(c)); err != nil {
		t.Fatalf("re-stamped original: %v", err)
	}
}

// TestSummaryFilesFromBeforeSpec: summaries written by the commit before
// persistence went through core.Spec — at 8 bytes per bucket, before Write
// packed — load and answer as a fresh build of the same dataset does. They
// re-save in the current form, about half their size, which is byte for
// byte what the fresh build saves and loads to the same answers.
func TestSummaryFilesFromBeforeSpec(t *testing.T) {
	d := dataset.SpSkew(120, 2)
	g := NewGrid(d.Extent, 16, 8)
	me, err := NewMEuler(g, []float64{1, 4, 25}, d.Rects)
	if err != nil {
		t.Fatal(err)
	}
	for name, fresh := range map[string]*Summary{
		"seuler": NewSEuler(g, d.Rects), "euler": NewEuler(g, d.Rects), "meuler": me,
	} {
		answersAsFresh := func(what string, got *Summary) {
			t.Helper()
			if got.Algorithm() != fresh.Algorithm() || got.Count() != fresh.Count() || got.StorageBuckets() != fresh.StorageBuckets() {
				t.Fatalf("%s %s: %s/%d/%d, built %s/%d/%d", name, what, got.Algorithm(), got.Count(), got.StorageBuckets(),
					fresh.Algorithm(), fresh.Count(), fresh.StorageBuckets())
			}
			for i1 := 0; i1 < 16; i1++ {
				for j1 := 0; j1 < 8; j1++ {
					q := Span{I1: i1, J1: j1, I2: i1 + (15-i1)/2, J2: j1 + (7-j1)/2}
					if got.QuerySpan(q) != fresh.QuerySpan(q) {
						t.Fatalf("%s %s: estimates diverge at %v", name, what, q)
					}
				}
			}
		}
		raw, err := os.ReadFile(filepath.Join("testdata", "summary_pr21_"+name+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		answersAsFresh("loaded", got)

		var resaved, saved bytes.Buffer
		if err := got.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Save(&saved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
			t.Fatalf("%s: the re-saved summary differs from a fresh build's", name)
		}
		if ratio := float64(resaved.Len()) / float64(len(raw)); ratio > 0.55 {
			t.Fatalf("%s: re-saved in %d bytes, %.2f of the old file's %d", name, resaved.Len(), ratio, len(raw))
		}
		back, err := Load(&resaved)
		if err != nil {
			t.Fatalf("%s: loading the re-saved summary: %v", name, err)
		}
		answersAsFresh("re-saved and loaded", back)
	}
}
