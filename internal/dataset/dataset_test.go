package dataset

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestGeneratorsBasicProperties(t *testing.T) {
	const n = 2000
	for _, name := range Names() {
		d, err := Generate(name, n, 1)
		if err != nil {
			t.Fatalf("Generate(%s): %v", name, err)
		}
		if d.Len() != n {
			t.Errorf("%s: Len = %d, want %d", name, d.Len(), n)
		}
		if d.Name != name {
			t.Errorf("%s: Name = %q", name, d.Name)
		}
		for i, r := range d.Rects {
			if !r.Valid() {
				t.Fatalf("%s: invalid rect %d: %v", name, i, r)
			}
			if !d.Extent.Contains(r) {
				t.Fatalf("%s: rect %d escapes extent: %v", name, i, r)
			}
		}
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate("nope", 10, 1); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

// TestGenerateRefusesNegativeCount: a negative object count is an error
// from every generator's name, not a panic in its allocation.
func TestGenerateRefusesNegativeCount(t *testing.T) {
	for _, name := range Names() {
		if d, err := Generate(name, -1, 1); err == nil {
			t.Errorf("%s: Generate(-1) = %v, want an error", name, d)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range Names() {
		a, _ := Generate(name, 500, 42)
		b, _ := Generate(name, 500, 42)
		c, _ := Generate(name, 500, 43)
		for i := range a.Rects {
			if a.Rects[i] != b.Rects[i] {
				t.Fatalf("%s: same seed diverges at %d", name, i)
			}
		}
		same := true
		for i := range a.Rects {
			if a.Rects[i] != c.Rects[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical data", name)
		}
	}
}

func TestSpSkewShape(t *testing.T) {
	d := SpSkew(3000, 7)
	interior := 0
	for _, r := range d.Rects {
		// Objects not clipped at the border must be exactly 3.6x1.8.
		if r.XMin > 0 && r.YMin > 0 && r.XMax < 360 && r.YMax < 180 {
			interior++
			if math.Abs(r.Width()-3.6) > 1e-9 || math.Abs(r.Height()-1.8) > 1e-9 {
				t.Fatalf("interior sp_skew object has size %gx%g, want 3.6x1.8", r.Width(), r.Height())
			}
		}
	}
	if interior < 2000 {
		t.Errorf("only %d/3000 interior objects; generator too border-heavy", interior)
	}
	// Skew check: the densest 10% of coarse cells should hold well over 10%
	// of the centers.
	g := CenterGrid(d, 36, 18)
	var counts []int
	total := 0
	for _, row := range g {
		for _, v := range row {
			counts = append(counts, v)
			total += v
		}
	}
	top := 0
	for i := 0; i < len(counts); i++ {
		for j := i + 1; j < len(counts); j++ {
			if counts[j] > counts[i] {
				counts[i], counts[j] = counts[j], counts[i]
			}
		}
	}
	for i := 0; i < len(counts)/10; i++ {
		top += counts[i]
	}
	if float64(top) < 0.3*float64(total) {
		t.Errorf("sp_skew not skewed: densest 10%% of cells hold %d/%d centers", top, total)
	}
}

func TestSzSkewShape(t *testing.T) {
	d := SzSkew(5000, 7)
	big := 0
	for _, r := range d.Rects {
		if r.Width() > 180 || r.Height() > 180 {
			t.Fatalf("sz_skew object larger than 180: %v", r)
		}
		if r.Area() >= 100 {
			big++
		}
	}
	if big == 0 {
		t.Errorf("sz_skew produced no large objects; Zipf tail is load-bearing for Fig 14(b)")
	}
	// The head of the Zipf distribution should dominate.
	s := Summarize(d)
	if s.AreaP50 > 16 {
		t.Errorf("sz_skew median area = %g, want small-object-dominated (<16)", s.AreaP50)
	}
}

func TestADLLikeShape(t *testing.T) {
	d := ADLLike(5000, 7)
	s := Summarize(d)
	if s.Points == 0 {
		t.Errorf("adl must include point records")
	}
	if s.LargeShare == 0 {
		t.Errorf("adl must include large maps (breaks N_cd=0)")
	}
	if s.LargeShare > 0.2 {
		t.Errorf("adl large share %.2f too high; should be a tail", s.LargeShare)
	}
}

func TestCARoadLikeShape(t *testing.T) {
	d := CARoadLike(5000, 7)
	small := 0
	for _, r := range d.Rects {
		if r.Width() <= 1 && r.Height() <= 1 {
			small++
		}
	}
	if float64(small) < 0.99*float64(d.Len()) {
		t.Errorf("ca_road: only %d/%d objects are sub-cell; want nearly all", small, d.Len())
	}
}

func TestPaperSize(t *testing.T) {
	if PaperSize("sp_skew") != 1_000_000 || PaperSize("adl") != 2_335_840 ||
		PaperSize("ca_road") != 2_665_088 || PaperSize("nope") != 0 {
		t.Fatal("PaperSize wrong")
	}
}

func TestRoundTripIO(t *testing.T) {
	d := SzSkew(1234, 99)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || got.Extent != d.Extent || len(got.Rects) != len(d.Rects) {
		t.Fatalf("round trip header mismatch: %v vs %v", got, d)
	}
	for i := range d.Rects {
		if got.Rects[i] != d.Rects[i] {
			t.Fatalf("round trip rect %d mismatch", i)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	d := SpSkew(100, 5)
	path := filepath.Join(t.TempDir(), "sp.bin")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 100 || got.Name != "sp_skew" {
		t.Fatalf("Load = %v", got)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("loading missing file must error")
	}
}

// TestLoadPresizesFromFileNotHeader: Load allocates the rect slice once,
// sized from the file — and a header that lies about its count still fails
// without that count being allocated.
func TestLoadPresizesFromFileNotHeader(t *testing.T) {
	d := SpSkew(100_000, 5)
	path := filepath.Join(t.TempDir(), "sp.bin")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rects) != len(d.Rects) || cap(got.Rects) != len(d.Rects) {
		t.Fatalf("Load: len %d cap %d, want both %d", len(got.Rects), cap(got.Rects), len(d.Rects))
	}

	// Claim 2^31 objects (64 GB of rects) in a file holding 100 000.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	countAt := len(raw) - 32*len(d.Rects) - 8
	binary.LittleEndian.PutUint64(raw[countAt:], 1<<31)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Load(path); err == nil {
		t.Fatal("a count beyond the file's payload must error")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("lying header made Load allocate %d MB for a %d MB file", grew>>20, len(raw)>>20)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOTMAGIC and then some content follows here"),
		"truncated": append(append([]byte{}, magic[:]...), 0, 0, 0),
	}
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Read must error", name)
		}
	}
	// Header claiming an absurd count.
	var buf bytes.Buffer
	d := &Dataset{Name: "x", Extent: DefaultExtent}
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// count is the last 8 bytes of the header for an empty dataset.
	for i := len(raw) - 8; i < len(raw); i++ {
		raw[i] = 0xff
	}
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("absurd count must error")
	}
}

func TestSummarizeAndRender(t *testing.T) {
	d := ADLLike(2000, 3)
	s := Summarize(d)
	if s.Count != 2000 || s.MaxArea <= 0 || s.MeanArea <= 0 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.AreaP50 > s.AreaP90 || s.AreaP90 > s.AreaP99 || s.AreaP99 > s.MaxArea {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
	txt := s.String()
	for _, want := range []string{"adl", "width histogram", "area mean"} {
		if !strings.Contains(txt, want) {
			t.Errorf("summary text missing %q:\n%s", want, txt)
		}
	}
	grid := CenterGrid(d, 30, 15)
	art := RenderCenterGrid(grid)
	if lines := strings.Count(art, "\n"); lines != 15 {
		t.Errorf("render has %d lines, want 15", lines)
	}
	// Empty dataset edge cases.
	empty := &Dataset{Name: "e", Extent: DefaultExtent}
	if s := Summarize(empty); s.Count != 0 {
		t.Error("empty summary wrong")
	}
	if g := CenterGrid(empty, 4, 4); len(g) != 4 {
		t.Error("empty center grid wrong")
	}
}
