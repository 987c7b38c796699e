package euler

import (
	"math"
	"math/rand"
	"testing"

	"spatialhist/internal/grid"
)

func TestPackedMatchesFullBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for _, dim := range [][2]int{{1, 1}, {3, 7}, {24, 12}, {40, 64}} {
		nx, ny := dim[0], dim[1]
		h, _ := buildRandom(r, nx, ny, 150)
		p, ok := h.Pack()
		if !ok {
			t.Fatalf("%dx%d: Pack refused a %d-object histogram", nx, ny, h.Count())
		}
		if p.Count() != h.Count() || p.Total() != h.Total() {
			t.Fatalf("%dx%d: counts diverge", nx, ny)
		}
		if p.StorageBuckets() != h.StorageBuckets() {
			t.Fatalf("%dx%d: StorageBuckets %d != %d", nx, ny, p.StorageBuckets(), h.StorageBuckets())
		}
		if p.Grid() != h.Grid() {
			t.Fatalf("%dx%d: grids diverge", nx, ny)
		}
		for trial := 0; trial < 300; trial++ {
			q := randQuery(r, nx, ny)
			if p.InsideSum(q) != h.InsideSum(q) {
				t.Fatalf("%dx%d: InsideSum(%v) = %d, want %d", nx, ny, q, p.InsideSum(q), h.InsideSum(q))
			}
			if p.ClosedSum(q) != h.ClosedSum(q) {
				t.Fatalf("%dx%d: ClosedSum(%v) diverges", nx, ny, q)
			}
			if p.OutsideSum(q) != h.OutsideSum(q) {
				t.Fatalf("%dx%d: OutsideSum(%v) diverges", nx, ny, q)
			}
			if p.ContainedIn(q) != h.ContainedIn(q) {
				t.Fatalf("%dx%d: ContainedIn(%v) diverges", nx, ny, q)
			}
			if p.Intersecting(q) != h.Intersecting(q) {
				t.Fatalf("%dx%d: Intersecting(%v) diverges", nx, ny, q)
			}
		}
		lx, ly := h.Buckets()
		for trial := 0; trial < 100; trial++ {
			u1, v1 := r.Intn(lx)-1, r.Intn(ly)-1
			u2, v2 := u1+r.Intn(lx), v1+r.Intn(ly)
			if p.LatticeSum(u1, v1, u2, v2) != h.LatticeSum(u1, v1, u2, v2) {
				t.Fatalf("%dx%d: LatticeSum(%d,%d,%d,%d) diverges", nx, ny, u1, v1, u2, v2)
			}
		}
	}
}

func TestPackedGridSweepsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	h, _ := buildRandom(r, 48, 36, 400)
	p, ok := h.Pack()
	if !ok {
		t.Fatal("Pack refused")
	}
	region := grid.Span{I1: 0, J1: 0, I2: 47, J2: 35}
	for _, tiling := range [][2]int{{1, 1}, {8, 6}, {48, 36}, {16, 12}} {
		cols, rows := tiling[0], tiling[1]
		want, err := h.GridQuerySums(region, cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.GridQuerySums(region, cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want.Inside {
			if got.Inside[k] != want.Inside[k] || got.Closed[k] != want.Closed[k] {
				t.Fatalf("%dx%d tiling: tile %d diverges", cols, rows, k)
			}
		}
		wantE, err := h.GridEulerSums(region, cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		gotE, err := p.GridEulerSums(region, cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		for k := range wantE.Inside {
			if gotE.Inside[k] != wantE.Inside[k] || gotE.Closed[k] != wantE.Closed[k] || gotE.AWide[k] != wantE.AWide[k] {
				t.Fatalf("%dx%d tiling: euler tile %d diverges", cols, rows, k)
			}
		}
		for rI := range wantE.BandInside {
			if gotE.BandInside[rI] != wantE.BandInside[rI] || gotE.BelowContained[rI] != wantE.BelowContained[rI] {
				t.Fatalf("%dx%d tiling: euler band %d diverges", cols, rows, rI)
			}
		}
	}
	if _, err := p.GridQuerySums(region, 7, 6); err == nil {
		t.Fatal("packed sweep accepted a non-dividing tiling")
	}
}

func TestPackedBytesRatio(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	h, _ := buildRandom(r, 64, 64, 500)
	p, ok := h.Pack()
	if !ok {
		t.Fatal("Pack refused")
	}
	// One cumulative plane per tier over the (2·64−1)² lattice: int64 full,
	// int32 packed.
	full, packed := h.LatticeBytes(), p.LatticeBytes()
	if full != 8*127*127 {
		t.Fatalf("full LatticeBytes = %d, want %d", full, 8*127*127)
	}
	if packed != 4*127*127 {
		t.Fatalf("packed LatticeBytes = %d, want %d", packed, 4*127*127)
	}
}

func TestPackedUnpackRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(94))
	for _, dim := range [][2]int{{1, 1}, {5, 3}, {30, 22}} {
		nx, ny := dim[0], dim[1]
		h, _ := buildRandom(r, nx, ny, 120)
		p, ok := h.Pack()
		if !ok {
			t.Fatal("Pack refused")
		}
		u := p.Unpack()
		if u.Count() != h.Count() || u.Total() != h.Total() {
			t.Fatalf("%dx%d: unpack counts diverge", nx, ny)
		}
		lx, ly := h.Buckets()
		for uu := 0; uu < lx; uu++ {
			for vv := 0; vv < ly; vv++ {
				if u.Bucket(uu, vv) != h.Bucket(uu, vv) {
					t.Fatalf("%dx%d: bucket (%d,%d) = %d, want %d", nx, ny, uu, vv, u.Bucket(uu, vv), h.Bucket(uu, vv))
				}
			}
		}
		// The reconstructed raw plane must be rebuildable: a builder seeded
		// from it reproduces the cumulative form.
		if got := BuilderFromHistogram(u).Build(); got.Total() != h.Total() {
			t.Fatalf("%dx%d: rebuilt total diverges", nx, ny)
		}
	}
}

func TestPackableBoundary(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want bool
	}{
		{0, true}, {1, true}, {math.MaxInt32, true},
		{math.MaxInt32 + 1, false}, {-1, false}, {math.MaxInt64, false},
	} {
		if got := Packable(tc.n); got != tc.want {
			t.Fatalf("Packable(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}
