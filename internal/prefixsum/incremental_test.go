package prefixsum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randArray(rng *rand.Rand, n int) []int64 {
	a := make([]int64, n)
	for i := range a {
		a[i] = int64(rng.Intn(21) - 10)
	}
	return a
}

// narrowed returns a copy of an int64 source as int32 values.
func narrowed(src []int64) []int32 {
	out := make([]int32, len(src))
	for i, v := range src {
		out[i] = int32(v)
	}
	return out
}

// bothWidths runs fn over the prefix plane of src built wide and built
// narrow: every test of the plane's behaviour holds at either cell width.
func bothWidths(t *testing.T, src []int64, nx, ny int, fn func(t *testing.T, s *Sum2D)) {
	t.Helper()
	wide := NewSum2D(src, nx, ny)
	narrow := AdoptSum2D(narrowed(src), nx, ny)
	if wide.Narrow() || (nx*ny > 0 && !narrow.Narrow()) {
		t.Fatalf("%dx%d: built widths wide=%v narrow=%v", nx, ny, !wide.Narrow(), narrow.Narrow())
	}
	assertEqualSum2D(t, wide, narrow)
	t.Run("wide", func(t *testing.T) { fn(t, wide) })
	t.Run("narrow", func(t *testing.T) { fn(t, narrow) })
}

// assertEqualSum2D compares two planes value by value, whatever their cell
// widths.
func assertEqualSum2D(t *testing.T, want, got *Sum2D) {
	t.Helper()
	if want.nx != got.nx || want.ny != got.ny {
		t.Fatalf("dimensions differ: %dx%d vs %dx%d", want.nx, want.ny, got.nx, got.ny)
	}
	for i := 0; i < want.nx; i++ {
		for j := 0; j < want.ny; j++ {
			if g, w := got.PrefixAt(i, j), want.PrefixAt(i, j); g != w {
				t.Fatalf("prefix(%d,%d) = %d, want %d", i, j, g, w)
			}
		}
	}
}

// naivePlane is the independent reference for construction: each prefix
// value by inclusion–exclusion over its three finished neighbours.
func naivePlane(src []int64, nx, ny int) *Sum2D {
	p := make([]int64, nx*ny)
	at := func(i, j int) int64 {
		if i < 0 || j < 0 {
			return 0
		}
		return p[i*ny+j]
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			p[i*ny+j] = src[i*ny+j] + at(i-1, j) + at(i, j-1) - at(i-1, j-1)
		}
	}
	return Wrap(p, nx, ny)
}

func TestAdoptSum2DInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range [][2]int{{0, 0}, {1, 1}, {3, 7}, {64, 64}, {200, 350}, {513, 129}} {
		nx, ny := dim[0], dim[1]
		src := randArray(rng, nx*ny)
		t.Run(fmt.Sprintf("%dx%d", nx, ny), func(t *testing.T) {
			want := naivePlane(src, nx, ny)
			kept := append([]int64(nil), src...)
			assertEqualSum2D(t, want, NewSum2D(src, nx, ny))
			for i, v := range kept {
				if src[i] != v {
					t.Fatalf("NewSum2D modified its source at %d", i)
				}
			}
			buf := append([]int64(nil), src...)
			got := AdoptSum2D(buf, nx, ny)
			assertEqualSum2D(t, want, got)
			if len(buf) > 0 && &got.p64[0] != &buf[0] {
				t.Fatal("AdoptSum2D did not adopt the buffer")
			}
			buf32 := narrowed(src)
			got = AdoptSum2D(buf32, nx, ny)
			assertEqualSum2D(t, want, got)
			if len(buf32) > 0 && (&got.p32[0] != &buf32[0] || got.Bytes() != 4*nx*ny) {
				t.Fatal("AdoptSum2D did not adopt the narrow buffer")
			}
		})
	}
}

// TestNarrowAccumulateWraps pins what lets a builder vouch only for the
// finished values: intermediates of the narrow pass may leave int32, and
// the plane is exact as long as its prefix values do not.
func TestNarrowAccumulateWraps(t *testing.T) {
	const m = math.MaxInt32
	for _, n := range []int{2, 300} {
		t.Run(fmt.Sprintf("%dx%d", n, n), func(t *testing.T) {
			src := make([]int64, n*n)
			src[0], src[1] = -m, -1 // row 0 sums to −m, −m−1
			src[n], src[n+1] = m, m // row 1's running sum reaches 2m; its prefix m−1
			want := NewSum2D(src, n, n)
			if want.PrefixAt(1, 1) != m-1 || want.PrefixAt(0, 1) != math.MinInt32 {
				t.Fatalf("test plane is not the one intended: %d, %d", want.PrefixAt(1, 1), want.PrefixAt(0, 1))
			}
			assertEqualSum2D(t, want, AdoptSum2D(narrowed(src), n, n))
		})
	}
}

func TestReleaseRecyclesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nx, ny := 300, 400
	b := randArray(rng, nx*ny)
	s := NewSum2D(randArray(rng, nx*ny), nx, ny)
	p0 := &s.p64[0]
	if Release[int32](s) != nil || s.p64 == nil {
		t.Fatal("a wide plane released a narrow buffer")
	}
	buf := Release[int64](s)
	copy(buf, b)
	s2 := AdoptSum2D(buf, nx, ny)
	if &s2.p64[0] != p0 {
		t.Fatal("Release + AdoptSum2D reallocated the prefix buffer")
	}
	assertEqualSum2D(t, NewSum2D(b, nx, ny), s2)

	n := AdoptSum2D(narrowed(b), nx, ny)
	n0 := &n.p32[0]
	if Release[int64](n) != nil || n.p32 == nil {
		t.Fatal("a narrow plane released a wide buffer")
	}
	if got := Release[int32](n); &got[0] != n0 || n.p32 != nil {
		t.Fatal("Release did not surrender the narrow buffer")
	}
}

// TestSampleSumsTheGaps pins the identity pyramid coarsening rests on:
// sampling a prefix plane at a monotone subsequence of coordinates gives
// the prefix plane of the source summed over the gaps.
func TestSampleSumsTheGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nx, ny := 37, 53
	bothWidths(t, randArray(rng, nx*ny), nx, ny, func(t *testing.T, s *Sum2D) {
		pick := func(n int) []int {
			var idx []int
			for i := rng.Intn(3); i < n; i += 1 + rng.Intn(3) {
				idx = append(idx, i)
			}
			return idx
		}
		for trial := 0; trial < 20; trial++ {
			rows, cols := pick(nx), pick(ny)
			merged := make([]int64, len(rows)*len(cols))
			for a, i2 := range rows {
				i1 := 0
				if a > 0 {
					i1 = rows[a-1] + 1
				}
				for b, j2 := range cols {
					j1 := 0
					if b > 0 {
						j1 = cols[b-1] + 1
					}
					merged[a*len(cols)+b] = s.RangeSum(i1, j1, i2, j2)
				}
			}
			want := NewSum2D(merged, len(rows), len(cols))
			got := s.Sample(rows, cols)
			if got.Narrow() != s.Narrow() {
				t.Fatal("Sample changed the cell width")
			}
			assertEqualSum2D(t, want, got)

			// A box-limited Resample restores exactly the box.
			i1, j1 := rng.Intn(len(rows)), rng.Intn(len(cols))
			i2, j2 := i1+rng.Intn(len(rows)-i1), j1+rng.Intn(len(cols)-j1)
			for i := i1; i <= i2; i++ {
				for j := j1; j <= j2; j++ {
					if got.Narrow() {
						got.p32[i*got.ny+j] = -1 << 30
					} else {
						got.p64[i*got.ny+j] = -1 << 40
					}
				}
			}
			got.Resample(s, rows, cols, i1, j1, i2, j2)
			assertEqualSum2D(t, want, got)
		}
	})
}

// TestResampleRefusesMixedWidths: a coarse level is never refreshed from a
// finer level of the other width; the pyramid rebuilds it instead.
func TestResampleRefusesMixedWidths(t *testing.T) {
	wide := NewSum2D(make([]int64, 4), 2, 2)
	narrow := AdoptSum2D(make([]int32, 4), 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic resampling a narrow plane from a wide one")
		}
	}()
	narrow.Resample(wide, []int{0, 1}, []int{0, 1}, 0, 0, 1, 1)
}

func TestAddRegionDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		nx := 1 + rng.Intn(40)
		ny := 1 + rng.Intn(40)
		src := randArray(rng, nx*ny)

		u1 := rng.Intn(nx)
		u2 := u1 + rng.Intn(nx-u1)
		v1 := rng.Intn(ny)
		v2 := v1 + rng.Intn(ny-v1)
		bw := v2 - v1 + 1
		delta := make([]int64, (u2-u1+1)*bw)
		balanced := trial%2 == 0 // exercise both the c==0 and c!=0 paths
		var total int64
		for i := range delta {
			d := int64(rng.Intn(9) - 4)
			delta[i] = d
			total += d
		}
		if balanced && len(delta) > 1 {
			delta[len(delta)-1] -= total
		}
		after := append([]int64(nil), src...)
		for u := u1; u <= u2; u++ {
			for v := v1; v <= v2; v++ {
				after[u*ny+v] += delta[(u-u1)*bw+(v-v1)]
			}
		}
		want := NewSum2D(after, nx, ny)
		for _, s := range []*Sum2D{NewSum2D(src, nx, ny), AdoptSum2D(narrowed(src), nx, ny)} {
			s.AddRegionDelta(u1, v1, u2, v2, append([]int64(nil), delta...))
			assertEqualSum2D(t, want, s)
		}
	}
}

func TestAddRegionDeltaPanicsOutsideArray(t *testing.T) {
	s := NewSum2D(make([]int64, 12), 3, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range box")
		}
	}()
	s.AddRegionDelta(0, 0, 3, 0, make([]int64, 4))
}
