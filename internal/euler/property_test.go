// Property suite: a short fixed-round budget of the differential
// verification harness, run as part of this package's ordinary tests.
// cmd/checker soaks the same checks for arbitrarily longer.
//
// The file is an external test package (euler_test) because internal/check
// imports euler — internal euler tests can only use check/gen.
package euler_test

import (
	"testing"

	"spatialhist/internal/check"
	"spatialhist/internal/check/gen"
	"spatialhist/internal/euler"
	"spatialhist/internal/grid"
)

func propertyRounds() int {
	if testing.Short() {
		return 1
	}
	return 3
}

// TestChainVsFreshProperty runs the harness's chain-vs-fresh check:
// BuildFrom chains (dirty-region repair and full rebuild as the scripts'
// data choose, scratch donation) and PyramidFrom repairs read as fresh and direct coarse builds
// through one script, at either cell width.
func TestChainVsFreshProperty(t *testing.T) {
	c, ok := check.Named("chain-vs-fresh")
	if !ok {
		t.Fatal("harness lost the chain-vs-fresh check")
	}
	if d := check.Run(c, 2002, propertyRounds()); d != nil {
		t.Fatalf("divergence:\n%s", d)
	}
}

// TestBuilderDrainsToZero interleaves AddSpan and RemoveSpan until the
// builder is empty again and asserts the result is bit-identical to a
// histogram that never saw any object: every lattice bucket zero, every
// derived sum zero. The signed difference array must not remember
// anything about the order in which mass passed through it.
func TestBuilderDrainsToZero(t *testing.T) {
	for round := 0; round < propertyRounds(); round++ {
		seed := check.RoundSeed(7, round)
		r := gen.Rand(seed)
		g := gen.Grid(r, 40, 40)
		b := euler.NewBuilder(g)

		live := make([]grid.Span, 0, 256)
		steps := 50 + r.Intn(400)
		for i := 0; i < steps; i++ {
			// Removes slightly less likely than adds, so the population
			// grows and later drains a non-trivial histogram.
			if len(live) > 0 && r.Intn(5) < 2 {
				k := r.Intn(len(live))
				if !b.RemoveSpan(live[k]) {
					t.Fatalf("seed %d: RemoveSpan(%v) refused a span that was added", seed, live[k])
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				s := gen.Span(r, g)
				b.AddSpan(s)
				live = append(live, s)
			}
		}
		// Drain whatever is left, in random order.
		for len(live) > 0 {
			k := r.Intn(len(live))
			if !b.RemoveSpan(live[k]) {
				t.Fatalf("seed %d: drain RemoveSpan(%v) refused", seed, live[k])
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}

		got := b.Build()
		want := euler.NewBuilder(g).Build()
		if got.Count() != 0 {
			t.Fatalf("seed %d: drained builder still counts %d objects", seed, got.Count())
		}
		lx, ly := got.Buckets()
		if wlx, wly := want.Buckets(); lx != wlx || ly != wly {
			t.Fatalf("seed %d: lattice %dx%d, want %dx%d", seed, lx, ly, wlx, wly)
		}
		for u := 0; u < lx; u++ {
			for v := 0; v < ly; v++ {
				if got.Bucket(u, v) != 0 {
					t.Fatalf("seed %d: bucket (%d,%d) = %d after draining to empty", seed, u, v, got.Bucket(u, v))
				}
			}
		}
		whole := grid.Span{I2: g.NX() - 1, J2: g.NY() - 1}
		if got.Total() != 0 || got.InsideSum(whole) != 0 || got.OutsideSum(whole) != 0 {
			t.Fatalf("seed %d: drained sums not zero: total %d inside %d outside %d",
				seed, got.Total(), got.InsideSum(whole), got.OutsideSum(whole))
		}
	}
}
