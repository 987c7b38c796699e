package prefixsum

import (
	"math"
	"math/rand"
	"testing"
)

// TestPackUnpack: the two width conversions are exact copies that return
// their receiver when there is nothing to convert.
func TestPackUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range [][2]int{{1, 1}, {5, 9}, {64, 64}, {130, 70}, {200, 257}} {
		nx, ny := dim[0], dim[1]
		wide := NewSum2D(randArray(rng, nx*ny), nx, ny)
		packed, ok := wide.Pack()
		if !ok {
			t.Fatalf("%dx%d: pack failed on small values", nx, ny)
		}
		if !packed.Narrow() || packed.Bytes() != 4*nx*ny || wide.Bytes() != 8*nx*ny {
			t.Fatalf("%dx%d: packed %d bytes (narrow %v), wide %d", nx, ny, packed.Bytes(), packed.Narrow(), wide.Bytes())
		}
		assertEqualSum2D(t, wide, packed)
		if again, ok := packed.Pack(); !ok || again != packed {
			t.Fatal("Pack of a narrow plane should return it")
		}
		if wide.Unpack() != wide {
			t.Fatal("Unpack of a wide plane should return it")
		}
		back := packed.Unpack()
		if back.Narrow() {
			t.Fatal("Unpack left the plane narrow")
		}
		assertEqualSum2D(t, wide, back)
		for trial := 0; trial < 300; trial++ {
			i1, j1 := rng.Intn(nx)-1, rng.Intn(ny)-1
			i2, j2 := i1+rng.Intn(nx+2), j1+rng.Intn(ny+2)
			if got, want := packed.RangeSum(i1, j1, i2, j2), wide.RangeSum(i1, j1, i2, j2); got != want {
				t.Fatalf("RangeSum(%d,%d,%d,%d) = %d, want %d", i1, j1, i2, j2, got, want)
			}
			if got, want := packed.PrefixAt(i2, j2), wide.PrefixAt(i2, j2); got != want {
				t.Fatalf("PrefixAt(%d,%d) = %d, want %d", i2, j2, got, want)
			}
		}
		// Row conventions are the same at both widths.
		pn, pw := PlaneOf[int32](packed), PlaneOf[int64](wide)
		if pn.Row(-1) != nil || pw.Row(-1) != nil {
			t.Fatal("Row(-1) should be nil")
		}
		over := pn.Row(nx + 5)
		for j, v := range pw.Row(nx + 5) {
			if int64(over[j]) != v {
				t.Fatalf("clamped Row[%d] = %d, want %d", j, over[j], v)
			}
		}
	}
}

func TestPackRefusesOverflow(t *testing.T) {
	for _, v := range []int64{math.MaxInt32 + 1, math.MinInt32 - 1} {
		s := NewSum2D([]int64{v, 0, 0, 0}, 2, 2)
		if p, ok := s.Pack(); ok || p != nil {
			t.Fatalf("pack of prefix value %d should fail", v)
		}
	}
	// The extreme representable values still pack exactly.
	s := NewSum2D([]int64{math.MaxInt32, math.MinInt32 - math.MaxInt32}, 2, 1)
	p, ok := s.Pack()
	if !ok {
		t.Fatal("pack of int32-representable prefixes should succeed")
	}
	if p.PrefixAt(0, 0) != math.MaxInt32 || p.PrefixAt(1, 0) != math.MinInt32 {
		t.Fatalf("extreme prefixes corrupted: %d, %d", p.PrefixAt(0, 0), p.PrefixAt(1, 0))
	}
}
