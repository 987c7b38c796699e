package prefixsum

import (
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

func assertEqualSum2D(t *testing.T, want, got *Sum2D) {
	t.Helper()
	if want.nx != got.nx || want.ny != got.ny {
		t.Fatalf("dimensions differ: %dx%d vs %dx%d", want.nx, want.ny, got.nx, got.ny)
	}
	for i, v := range want.p {
		if got.p[i] != v {
			t.Fatalf("prefix[%d] = %d, want %d", i, got.p[i], v)
		}
	}
}

// naivePlane is the independent reference for construction: each prefix
// value by inclusion–exclusion over its three finished neighbours.
func naivePlane(src []int64, nx, ny int) *Sum2D {
	s := &Sum2D{nx: nx, ny: ny, p: make([]int64, nx*ny)}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			s.p[i*ny+j] = src[i*ny+j] + s.at(i-1, j) + s.at(i, j-1) - s.at(i-1, j-1)
		}
	}
	return s
}

func TestAdoptSum2DInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range [][2]int{{0, 0}, {1, 1}, {3, 7}, {64, 64}, {200, 350}, {513, 129}} {
		nx, ny := dim[0], dim[1]
		src := randArray(rng, nx*ny)
		want := naivePlane(src, nx, ny)
		kept := append([]int64(nil), src...)
		assertEqualSum2D(t, want, NewSum2D(src, nx, ny))
		for i, v := range kept {
			if src[i] != v {
				t.Fatalf("%dx%d: NewSum2D modified its source at %d", nx, ny, i)
			}
		}
		for _, workers := range []int{1, 2, 3, 8} {
			buf := append([]int64(nil), src...)
			got := AdoptSum2D(buf, nx, ny, workers)
			assertEqualSum2D(t, want, got)
			if len(buf) > 0 && &got.p[0] != &buf[0] {
				t.Fatalf("%dx%d workers %d: AdoptSum2D did not adopt the buffer", nx, ny, workers)
			}
		}
	}
}

func TestReleaseRecyclesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nx, ny := 300, 400
	b := randArray(rng, nx*ny)
	s := NewSum2D(randArray(rng, nx*ny), nx, ny)
	p0 := &s.p[0]
	buf := s.Release()
	copy(buf, b)
	s2 := AdoptSum2D(buf, nx, ny, 4)
	if &s2.p[0] != p0 {
		t.Fatal("Release + AdoptSum2D reallocated the prefix buffer")
	}
	assertEqualSum2D(t, NewSum2D(b, nx, ny), s2)
}

// TestSampleSumsTheGaps pins the identity pyramid coarsening rests on:
// sampling a prefix plane at a monotone subsequence of coordinates gives
// the prefix plane of the source summed over the gaps.
func TestSampleSumsTheGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nx, ny := 37, 53
	src := randArray(rng, nx*ny)
	s := NewSum2D(src, nx, ny)
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
		got := s.Sample(rows, cols, 1+trial%3)
		assertEqualSum2D(t, want, got)

		// A box-limited Resample restores exactly the box.
		i1, j1 := rng.Intn(len(rows)), rng.Intn(len(cols))
		i2, j2 := i1+rng.Intn(len(rows)-i1), j1+rng.Intn(len(cols)-j1)
		for i := i1; i <= i2; i++ {
			for j := j1; j <= j2; j++ {
				got.p[i*got.ny+j] = -1 << 40
			}
		}
		got.Resample(s, rows, cols, i1, j1, i2, j2)
		assertEqualSum2D(t, want, got)
	}
}

func TestAddRegionDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		nx := 1 + rng.Intn(40)
		ny := 1 + rng.Intn(40)
		src := randArray(rng, nx*ny)
		s := NewSum2D(src, nx, ny)

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
		for u := u1; u <= u2; u++ {
			for v := v1; v <= v2; v++ {
				src[u*ny+v] += delta[(u-u1)*bw+(v-v1)]
			}
		}
		s.AddRegionDelta(u1, v1, u2, v2, delta)
		assertEqualSum2D(t, NewSum2D(src, nx, ny), s)
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
