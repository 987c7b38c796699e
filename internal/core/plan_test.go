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
			p, err := PlanGrid(est, region, cols, rows, 0)
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
			if p.Level != want || p.Epsilon != 0 {
				t.Fatalf("%s: PlanGrid(%v, %dx%d) level %d ε %g, want level %d", est.Name(), region, cols, rows, p.Level, p.Epsilon, want)
			}
			got, bound, err := p.Estimates(nil)
			if err != nil || bound != nil {
				t.Fatalf("%s: Estimates = %v, bound %v", est.Name(), err, bound)
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
		if _, err := PlanGrid(est, spanOf(0, 0, 63, 47), 5, 4, 0); err == nil {
			t.Fatalf("%s: a tiling that does not divide its region planned", est.Name())
		}
	}
}

// TestPlanEpsilonServesWhatApproxDid: the ε plan serves from the reduced
// tier exactly the maps (*Zoom).EstimateGridApprox served — an overview
// attached, a positive ε, the exact route finer than the overview's shift,
// every tile certified — with the same estimates and bound, and answers
// every other map exactly.
func TestPlanEpsilonServesWhatApproxDid(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	g := grid.NewUnit(128, 128)
	rects := batchRects(r, g, 600)
	served, declined := 0, 0
	for _, spec := range testSpecs {
		base, err := spec.FromRects(g, rects)
		if err != nil {
			t.Fatal(err)
		}
		_, pyrs, _ := Pyramids(base, euler.PyramidOpts{MinGrid: 8})
		z, err := spec.zoom(pyrs)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			region, cols, rows := randTiling(r, 128, 128)
			eps := r.Float64() * 2
			if trial%10 == 0 {
				eps = 0
			}
			// EstimateGridApprox, as it was.
			var wantEsts []Estimate
			var wantBound float64
			ok := false
			if level, _ := z.RouteGrid(region, cols, rows); eps > 0 && level < z.overview.Shift() {
				wantEsts, wantBound, ok = z.overview.EstimateGrid(region, cols, rows, eps)
			}
			p, err := PlanGrid(z, region, cols, rows, eps)
			if err != nil {
				t.Fatal(err)
			}
			got, bound, err := p.Estimates(nil)
			if err != nil {
				t.Fatal(err)
			}
			if (bound != nil) != ok {
				t.Fatalf("%s %v %dx%d ε=%g: served approximately = %v, want %v", z.Name(), region, cols, rows, eps, bound != nil, ok)
			}
			if ok {
				served++
				if *bound != wantBound || !reflect.DeepEqual(got, wantEsts) {
					t.Fatalf("%s %v %dx%d ε=%g: reduced-tier answer diverges", z.Name(), region, cols, rows, eps)
				}
				continue
			}
			declined++
			exact, err := EstimateGrid(z, region, cols, rows)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, exact) {
				t.Fatalf("%s %v %dx%d ε=%g: declined map is not the exact sweep", z.Name(), region, cols, rows, eps)
			}
		}
	}
	if served < 20 || declined < 20 {
		t.Fatalf("sweep served %d maps approximately and %d exactly: one side is untested", served, declined)
	}
}

// TestPlanCountsMaps: a map advances the per-level hit counter and the
// batch sweep counter once, whether Plan.Estimates, EstimateGrid or
// Plan.Add answers it, and a map the reduced tier serves advances neither.
func TestPlanCountsMaps(t *testing.T) {
	g := grid.NewUnit(128, 128)
	z := ZoomSEuler(euler.NewPyramid(euler.FromRects(g, nil), euler.PyramidOpts{MinGrid: 8}))
	reg := telemetry.Default()
	counts := func() (hits, sweeps int64) {
		for _, v := range reg.CounterValues("core_pyramid_level_hits_total") {
			hits += v
		}
		return hits, reg.CounterValues("core_batch_sweeps_total")[`{algo="`+z.Name()+`"}`]
	}
	full := spanOf(0, 0, 127, 127)
	h0, s0 := counts()
	p, err := PlanGrid(z, full, 128, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Estimates(nil); err != nil {
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
	h2, s2 := counts()
	p, err = PlanGrid(z, spanOf(1, 1, 96, 96), 1, 1, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if _, bound, err := p.Estimates(nil); err != nil || bound == nil {
		t.Fatalf("empty dataset under a huge ε not served approximately: %v", err)
	}
	if h3, s3 := counts(); h3 != h2 || s3 != s2 {
		t.Fatalf("a reduced-tier map advanced level hits by %d and sweeps by %d, want 0", h3-h2, s3-s2)
	}
}
