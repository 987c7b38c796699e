package euler

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/prefixsum"
)

func TestHistogramRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	g := grid.New(geom.NewRect(-10, 5, 50, 35), 24, 12)
	b := NewBuilder(g)
	for k := 0; k < 300; k++ {
		i1, j1 := r.Intn(24), r.Intn(12)
		b.AddSpan(grid.Span{I1: i1, J1: j1, I2: i1 + r.Intn(24-i1), J2: j1 + r.Intn(12-j1)})
	}
	h := b.Build()

	var buf bytes.Buffer
	if err := h.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != h.Count() || got.Total() != h.Total() {
		t.Fatalf("counts diverge: %d/%d vs %d/%d", got.Count(), got.Total(), h.Count(), h.Total())
	}
	gg := got.Grid()
	if gg.Extent() != g.Extent() || gg.NX() != 24 || gg.NY() != 12 {
		t.Fatalf("grid diverges: %v", gg)
	}
	// Every bucket and every regional sum must match.
	lx, ly := h.Buckets()
	for u := 0; u < lx; u++ {
		for v := 0; v < ly; v++ {
			if got.Bucket(u, v) != h.Bucket(u, v) {
				t.Fatalf("bucket (%d,%d) diverges", u, v)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		i1, j1 := r.Intn(24), r.Intn(12)
		q := grid.Span{I1: i1, J1: j1, I2: i1 + r.Intn(24-i1), J2: j1 + r.Intn(12-j1)}
		if got.InsideSum(q) != h.InsideSum(q) || got.OutsideSum(q) != h.OutsideSum(q) {
			t.Fatalf("sums diverge at %v", q)
		}
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	g := grid.NewUnit(6, 4)
	b := NewBuilder(g)
	b.AddSpan(grid.Span{I1: 1, J1: 1, I2: 3, J2: 2})
	h := b.Build()
	var buf bytes.Buffer
	if err := h.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	cases := map[string]func([]byte) []byte{
		"empty":          func(b []byte) []byte { return nil },
		"bad magic":      func(b []byte) []byte { c := clone(b); c[0] = 'X'; return c },
		"truncated head": func(b []byte) []byte { return b[:20] },
		"truncated body": func(b []byte) []byte { return b[:len(b)-8] },
		"corrupt bucket": func(b []byte) []byte { c := clone(b); c[len(c)-4] ^= 0xff; return c },
		"zero grid": func(b []byte) []byte {
			c := clone(b)
			binary.LittleEndian.PutUint32(c[40:], 0)
			return c
		},
		"huge grid": func(b []byte) []byte {
			c := clone(b)
			binary.LittleEndian.PutUint32(c[40:], 1<<20)
			return c
		},
		"degenerate extent": func(b []byte) []byte {
			c := clone(b)
			// XMax := XMin
			copy(c[24:32], c[8:16])
			return c
		},
	}
	for name, mutate := range cases {
		if _, err := Read(bytes.NewReader(mutate(raw))); err == nil {
			t.Errorf("%s: Read must error", name)
		}
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

func TestRemove(t *testing.T) {
	g := grid.NewUnit(10, 10)
	b := NewBuilder(g)
	s1 := grid.Span{I1: 1, J1: 1, I2: 4, J2: 4}
	s2 := grid.Span{I1: 3, J1: 3, I2: 8, J2: 8}
	b.AddSpan(s1)
	b.AddSpan(s2)
	b.RemoveSpan(s2)
	h := b.Build()
	if h.Count() != 1 || h.Total() != 1 {
		t.Fatalf("after remove: count %d total %d", h.Count(), h.Total())
	}
	// Only s1 remains: histogram must equal a fresh build of s1 alone.
	fresh := NewBuilder(g)
	fresh.AddSpan(s1)
	want := fresh.Build()
	lx, ly := h.Buckets()
	for u := 0; u < lx; u++ {
		for v := 0; v < ly; v++ {
			if h.Bucket(u, v) != want.Bucket(u, v) {
				t.Fatalf("bucket (%d,%d) = %d, want %d", u, v, h.Bucket(u, v), want.Bucket(u, v))
			}
		}
	}
}

func TestRemoveRect(t *testing.T) {
	g := grid.NewUnit(10, 10)
	b := NewBuilder(g)
	r := geom.NewRect(1.5, 1.5, 4.5, 4.5)
	b.Add(r)
	if !b.Remove(r) {
		t.Fatal("Remove of in-space rect must succeed")
	}
	if b.Remove(geom.NewRect(50, 50, 60, 60)) {
		t.Fatal("Remove of outside rect must report false")
	}
	if b.Count() != 0 {
		t.Fatalf("count = %d", b.Count())
	}
	h := b.Build()
	if h.Total() != 0 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestRemoveSpanRejected(t *testing.T) {
	g := grid.NewUnit(4, 4)

	// Underflow guard: removing from an empty builder is rejected, the
	// count stays at zero and the builder remains usable.
	b := NewBuilder(g)
	if b.RemoveSpan(grid.Span{I1: 0, J1: 0, I2: 0, J2: 0}) {
		t.Error("RemoveSpan on empty builder must report false")
	}
	if b.Count() != 0 {
		t.Fatalf("count underflowed to %d", b.Count())
	}
	if got := b.Build().Total(); got != 0 {
		t.Fatalf("rejected removal mutated buckets: total %d", got)
	}

	// Out-of-grid and invalid spans are rejected without touching state.
	b.AddSpan(grid.Span{})
	for name, s := range map[string]grid.Span{
		"outside":  {I1: 0, J1: 0, I2: 9, J2: 0},
		"negative": {I1: -1, J1: 0, I2: 0, J2: 0},
		"unsorted": {I1: 2, J1: 0, I2: 1, J2: 0},
	} {
		if b.RemoveSpan(s) {
			t.Errorf("%s: RemoveSpan(%v) must report false", name, s)
		}
	}
	if b.Count() != 1 {
		t.Fatalf("rejected removals changed count to %d", b.Count())
	}
	h := b.Build()
	if h.Total() != 1 {
		t.Fatalf("rejected removals corrupted buckets: total %d", h.Total())
	}
}

func TestBuilderFromHistogram(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	g := grid.NewUnit(9, 7)
	orig := NewBuilder(g)
	for k := 0; k < 200; k++ {
		i1, j1 := r.Intn(9), r.Intn(7)
		orig.AddSpan(grid.Span{I1: i1, J1: j1, I2: i1 + r.Intn(9-i1), J2: j1 + r.Intn(7-j1)})
	}
	h := orig.Build()

	// Round trip: the reconstructed builder rebuilds bit-identically.
	re := BuilderFromHistogram(h)
	if re.Count() != h.Count() {
		t.Fatalf("count %d, want %d", re.Count(), h.Count())
	}
	h2 := re.Build()
	lx, ly := h.Buckets()
	for u := 0; u < lx; u++ {
		for v := 0; v < ly; v++ {
			if h.Bucket(u, v) != h2.Bucket(u, v) {
				t.Fatalf("bucket (%d,%d) = %d after reconstruction, want %d",
					u, v, h2.Bucket(u, v), h.Bucket(u, v))
			}
		}
	}

	// Resumed mutations behave exactly as on the never-finalized builder:
	// add and remove the same spans on both and compare.
	extra := grid.Span{I1: 2, J1: 2, I2: 6, J2: 5}
	orig.AddSpan(extra)
	re.AddSpan(extra)
	gone := grid.Span{I1: 0, J1: 0, I2: 3, J2: 3}
	orig.RemoveSpan(gone)
	re.RemoveSpan(gone)
	want, got := orig.Build(), re.Build()
	if want.Count() != got.Count() {
		t.Fatalf("resumed counts diverge: %d vs %d", got.Count(), want.Count())
	}
	for u := 0; u < lx; u++ {
		for v := 0; v < ly; v++ {
			if want.Bucket(u, v) != got.Bucket(u, v) {
				t.Fatalf("bucket (%d,%d) diverges after resumed mutations", u, v)
			}
		}
	}
}

// TestChurnMatchesRebuild simulates an updating archive: random adds and
// removes must leave the histogram identical to one built from the
// surviving objects alone.
func TestChurnMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	g := grid.NewUnit(12, 12)
	b := NewBuilder(g)
	var live []grid.Span
	for step := 0; step < 500; step++ {
		if len(live) > 0 && r.Intn(3) == 0 {
			k := r.Intn(len(live))
			b.RemoveSpan(live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		i1, j1 := r.Intn(12), r.Intn(12)
		s := grid.Span{I1: i1, J1: j1, I2: i1 + r.Intn(12-i1), J2: j1 + r.Intn(12-j1)}
		b.AddSpan(s)
		live = append(live, s)
	}
	h := b.Build()
	fresh := NewBuilder(g)
	for _, s := range live {
		fresh.AddSpan(s)
	}
	want := fresh.Build()
	if h.Count() != want.Count() {
		t.Fatalf("counts diverge: %d vs %d", h.Count(), want.Count())
	}
	lx, ly := h.Buckets()
	for u := 0; u < lx; u++ {
		for v := 0; v < ly; v++ {
			if h.Bucket(u, v) != want.Bucket(u, v) {
				t.Fatalf("bucket (%d,%d) diverges after churn", u, v)
			}
		}
	}
}

// writeSPHEUL01 writes h, which must have a count that fits int32, in the
// 8-byte format Write emitted before it packed: what the compatibility
// reader is held to beside the golden file.
func writeSPHEUL01(h *Histogram, w *bytes.Buffer) error {
	var packed bytes.Buffer
	if err := h.Write(&packed); err != nil {
		return err
	}
	const header = 8 + 32 + 8 + 8 // magic, extent, nx/ny, count
	p := packed.Bytes()
	if p[header] != 4 {
		return fmt.Errorf("not a packed histogram")
	}
	w.WriteString("SPHEUL01")
	w.Write(p[8:header])
	for i := header + 1; i < len(p); i += 4 {
		w.Write(binary.LittleEndian.AppendUint64(nil, uint64(int64(int32(binary.LittleEndian.Uint32(p[i:]))))))
	}
	return nil
}

func TestWritePacksBuckets(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	g := grid.New(geom.NewRect(0, 0, 100, 80), 20, 16)
	b := NewBuilder(g)
	for k := 0; k < 250; k++ {
		i1, j1 := r.Intn(20), r.Intn(16)
		b.AddSpan(grid.Span{I1: i1, J1: j1, I2: i1 + r.Intn(20-i1), J2: j1 + r.Intn(16-j1)})
	}
	h := b.Build()

	var full, compact bytes.Buffer
	if err := writeSPHEUL01(h, &full); err != nil {
		t.Fatal(err)
	}
	if err := h.Write(&compact); err != nil {
		t.Fatal(err)
	}
	// 250 objects packs: header + width byte + 4-byte buckets, about half
	// the SPHEUL01 payload.
	lx, ly := h.Buckets()
	wantCompact := 8 + 32 + 8 + 8 + 1 + 4*lx*ly
	if compact.Len() != wantCompact || !bytes.HasPrefix(compact.Bytes(), []byte("SPHEUL02")) {
		t.Fatalf("payload %d bytes (%.8q), want %d of SPHEUL02", compact.Len(), compact.Bytes(), wantCompact)
	}
	if ratio := float64(compact.Len()) / float64(full.Len()); ratio > 0.55 {
		t.Fatalf("packed/SPHEUL01 ratio %.3f exceeds 0.55", ratio)
	}
	for name, file := range map[string][]byte{"SPHEUL02": compact.Bytes(), "SPHEUL01": full.Bytes()} {
		got, err := Read(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		if got.Count() != h.Count() || got.Total() != h.Total() {
			t.Fatalf("%s round trip diverges on counts", name)
		}
		for u := 0; u < lx; u++ {
			for v := 0; v < ly; v++ {
				if got.Bucket(u, v) != h.Bucket(u, v) {
					t.Fatalf("bucket (%d,%d) diverges after a %s round trip", u, v, name)
				}
			}
		}
		for trial := 0; trial < 100; trial++ {
			i1, j1 := r.Intn(20), r.Intn(16)
			q := grid.Span{I1: i1, J1: j1, I2: i1 + r.Intn(20-i1), J2: j1 + r.Intn(16-j1)}
			if got.InsideSum(q) != h.InsideSum(q) || got.OutsideSum(q) != h.OutsideSum(q) {
				t.Fatalf("%s: sums diverge at %v", name, q)
			}
		}
	}
}

func TestWriteWideCounts(t *testing.T) {
	// A histogram whose count exceeds int32 must fall back to 8-byte
	// buckets inside SPHEUL02. Built directly: a 1×1 grid whose single
	// bucket holds the whole count.
	n := int64(1) << 33
	g := grid.NewUnit(1, 1)
	h := &Histogram{g: g, lx: 1, ly: 1, hc: prefixsum.NewSum2D([]int64{n}, 1, 1), n: n}
	var buf bytes.Buffer
	if err := h.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if want := 8 + 32 + 8 + 8 + 1 + 8; buf.Len() != want {
		t.Fatalf("wide payload %d bytes, want %d", buf.Len(), want)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != n || got.Bucket(0, 0) != n || got.CellWidth() != 8 {
		t.Fatalf("wide round trip diverges: count %d, bucket %d, %d-byte cells", got.Count(), got.Bucket(0, 0), got.CellWidth())
	}
}

func TestReadRejectsBadPackedWidth(t *testing.T) {
	g := grid.NewUnit(4, 4)
	b := NewBuilder(g)
	b.AddSpan(grid.Span{I1: 1, J1: 1, I2: 2, J2: 2})
	var buf bytes.Buffer
	if err := b.Build().Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[8+32+8+8] = 3 // corrupt the width byte
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("invalid width byte accepted")
	}
}

// TestWriteAboveReadAbove: nested planes go to files as one histogram per
// group, the bytes Write writes for the group alone, and come back as the
// planes, bit for bit and at the cell width the limit gives each: past a
// lowered limit the upper planes are wide though every group is narrow.
// The grids must agree.
func TestWriteAboveReadAbove(t *testing.T) {
	defer LowerNarrowLimit(60)()
	r := rand.New(rand.NewSource(72))
	g := grid.NewUnit(30, 20)
	b := NewBuilder(g)
	var planes, groups []*Histogram
	for k := 0; k < 3; k++ {
		gb := NewBuilder(g)
		for i := 0; i < 40; i++ {
			s := randSpan(r, g)
			b.AddSpan(s)
			gb.AddSpan(s)
		}
		planes = append(planes, b.Build())
		groups = append(groups, gb.Build())
	}
	var below, back *Histogram
	for k, h := range planes {
		var file, alone bytes.Buffer
		if err := h.WriteAbove(&file, below); err != nil {
			t.Fatal(err)
		}
		if err := groups[k].Write(&alone); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file.Bytes(), alone.Bytes()) {
			t.Fatalf("plane %d written above the one below differs from group %d written alone", k, k)
		}
		got, err := ReadAbove(&file, back)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, h, got)
		if want := []int{4, 8, 8}[k]; got.CellWidth() != want || groups[k].CellWidth() != 4 {
			t.Fatalf("plane %d read back at %d B/cell, want %d (its group at %d)", k, got.CellWidth(), want, groups[k].CellWidth())
		}
		below, back = h, got
	}
	other := NewBuilder(grid.NewUnit(30, 21)).Build()
	var file bytes.Buffer
	if err := planes[1].WriteAbove(&file, other); err == nil {
		t.Error("WriteAbove over a histogram of another grid")
	}
	if err := groups[1].Write(&file); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAbove(&file, other); err == nil {
		t.Error("ReadAbove over a histogram of another grid")
	}
}

// TestReadAboveAllocatesWhatReadDoes: reading a group's file above the
// plane below forms the plane in the memory the file's own histogram
// takes, so loading m group files costs m planes, as reading them did
// before they were nested.
func TestReadAboveAllocatesWhatReadDoes(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	g := grid.NewUnit(300, 150)
	lower, upper := NewBuilder(g), NewBuilder(g)
	for i := 0; i < 2000; i++ {
		s := randSpan(r, g)
		upper.AddSpan(s)
		if i%2 == 0 {
			lower.AddSpan(s)
		}
	}
	below := lower.Build()
	var file bytes.Buffer
	if err := upper.Build().WriteAbove(&file, below); err != nil {
		t.Fatal(err)
	}
	allocated := func(read func() (*Histogram, error)) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := read(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	alone := allocated(func() (*Histogram, error) { return Read(bytes.NewReader(file.Bytes())) })
	above := allocated(func() (*Histogram, error) { return ReadAbove(bytes.NewReader(file.Bytes()), below) })
	if above > alone+4096 {
		t.Errorf("ReadAbove allocated %d bytes, Read %d", above, alone)
	}
}
