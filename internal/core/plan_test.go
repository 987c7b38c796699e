package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"spatialhist/internal/euler"
	"spatialhist/internal/grid"
	"spatialhist/internal/query"
	"spatialhist/internal/telemetry"
)

// refLevel is the routing rule written out longhand: the largest k below
// depth with the region origin and both tile dimensions multiples of 2^k.
func refLevel(depth int, region grid.Span, cols, rows int) int {
	tw, th := region.Width()/cols, region.Height()/rows
	k := 0
	for k+1 < depth {
		m := 1 << (k + 1)
		if region.I1%m != 0 || region.J1%m != 0 || tw%m != 0 || th%m != 0 {
			break
		}
		k++
	}
	return k
}

// randTiling draws a region and a tiling that divides it, biased toward
// power-of-two origins and tile sizes so every pyramid level is routed to.
func randTiling(r *rand.Rand, nx, ny int) (region grid.Span, cols, rows int) {
	pick := func(n int) (origin, tile, count int) {
		tile = 1 + r.Intn(n/2)
		if r.Intn(2) == 0 {
			tile = 1 << r.Intn(5)
		}
		count = 1 + r.Intn(n/tile)
		origin = r.Intn(n - tile*count + 1)
		if r.Intn(2) == 0 {
			origin = origin &^ (tile - 1) &^ 7
		}
		return origin, tile, count
	}
	i1, tw, cols := pick(nx)
	j1, th, rows := pick(ny)
	return spanOf(i1, j1, i1+cols*tw-1, j1+rows*th-1), cols, rows
}

// TestPlanGridSweep runs a seeded sweep of regions × tilings over every
// estimator shape — the three algorithms plain and as zoom stacks, and the
// per-tile fallback: the plan's level is the routing rule's and RouteGrid's,
// and its estimates are a per-tile Estimate loop's, bit for bit.
func TestPlanGridSweep(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	g := grid.NewUnit(64, 48)
	for _, est := range intoEstimators(t, g, batchRects(r, g, 500)) {
		z, _ := est.(*Zoom)
		for trial := 0; trial < 150; trial++ {
			region, cols, rows := randTiling(r, 64, 48)
			p, err := PlanGrid(est, region, cols, rows)
			if err != nil {
				t.Fatalf("%s %v %dx%d: %v", est.Name(), region, cols, rows, err)
			}
			want := 0
			if z != nil {
				want = refLevel(NumLevels(z), region, cols, rows)
				if level, lregion := z.RouteGrid(region, cols, rows); level != want || lregion != euler.CoarseSpan(region, want) {
					t.Fatalf("%s: RouteGrid(%v, %dx%d) = %d %v, want level %d", est.Name(), region, cols, rows, level, lregion, want)
				}
			}
			if p.Level != want {
				t.Fatalf("%s: PlanGrid(%v, %dx%d) level %d, want level %d", est.Name(), region, cols, rows, p.Level, want)
			}
			got, err := p.Estimates(nil)
			if err != nil {
				t.Fatalf("%s: Estimates = %v", est.Name(), err)
			}
			qs, err := query.Browsing(region, cols, rows)
			if err != nil {
				t.Fatal(err)
			}
			if perTile := EstimateSet(est, qs.Tiles); !reflect.DeepEqual(got, perTile) {
				t.Fatalf("%s: plan for %v %dx%d diverges from the per-tile loop", est.Name(), region, cols, rows)
			}
			// Add sums into what the plane holds, the per-tile fallback too.
			twice := slices.Clone(got)
			if err := p.Add(twice); err != nil {
				t.Fatal(err)
			}
			for k, e := range got {
				e.Add(e)
				if twice[k] != e {
					t.Fatalf("%s: Add onto the plan's own plane gave tile %d = %v, want %v", est.Name(), k, twice[k], e)
				}
			}
		}
		if _, err := PlanGrid(est, spanOf(0, 0, 63, 47), 5, 4); err == nil {
			t.Fatalf("%s: a tiling that does not divide its region planned", est.Name())
		}
	}
}

// TestPlanCountsMaps: a map advances the per-level hit counter and the
// batch sweep counter once, whether Plan.Estimates, EstimateGrid or
// Plan.Add answers it.
func TestPlanCountsMaps(t *testing.T) {
	g := grid.NewUnit(128, 128)
	z := zoomOver(t, AlgoSEuler, euler.NewPyramid(euler.FromRects(g, nil), euler.PyramidOpts{MinGrid: 8}))
	reg := telemetry.Default()
	counts := func() (hits, sweeps int64) {
		for _, v := range reg.CounterValues("core_pyramid_level_hits_total") {
			hits += v
		}
		return hits, reg.CounterValues("core_batch_sweeps_total")[`{algo="`+z.Name()+`"}`]
	}
	full := spanOf(0, 0, 127, 127)
	h0, s0 := counts()
	p, err := PlanGrid(z, full, 128, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Estimates(nil); err != nil {
		t.Fatal(err)
	}
	h1, s1 := counts()
	if h1-h0 != 1 || s1-s0 != 1 {
		t.Fatalf("one map advanced level hits by %d and sweeps by %d, want 1 and 1", h1-h0, s1-s0)
	}
	if _, err := EstimateGrid(z, full, 128, 64); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(make([]Estimate, 128*64)); err != nil {
		t.Fatal(err)
	}
	if h2, s2 := counts(); h2-h1 != 2 || s2-s1 != 2 {
		t.Fatalf("two more maps advanced level hits by %d and sweeps by %d, want 2 and 2", h2-h1, s2-s1)
	}
}
