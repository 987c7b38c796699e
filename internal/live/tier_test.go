package live

import (
	"math/rand"
	"testing"

	"spatialhist/internal/core"
	"spatialhist/internal/telemetry"
)

// TestPackedTierDemotionPromotion drives the cold-store tier policy end
// to end: publishes with no estimator acquisitions demote to the packed
// tier after PackColdPublishes cold runs, one acquisition promotes the
// next publish back to the full tier, and both tiers answer
// bit-identically throughout.
func TestPackedTierDemotionPromotion(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	reg := telemetry.NewRegistry()
	s, err := Open(Config{
		Grid:              testGrid(),
		Algo:              AlgoSEuler,
		PackColdPublishes: 2,
		RebuildEvery:      -1,
		PyramidLevels:     3,
		PyramidMinGrid:    3,
		Telemetry:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	mutate := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			if ok, err := s.Insert(randRect(r)); err != nil || !ok {
				t.Fatalf("insert rejected (%v)", err)
			}
		}
	}
	flush := func() {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	packedGauge := reg.Gauge("euler_lattice_bytes", latticeBytesHelp, "tier", "packed")
	fullGauge := reg.Gauge("euler_lattice_bytes", latticeBytesHelp, "tier", "full")

	// The initial publish and the first quiet one stay on the full tier.
	if got := s.Status().Tier; got != TierFull {
		t.Fatalf("initial tier = %q, want %q", got, TierFull)
	}
	mutate(40)
	flush()
	if got := s.Status().Tier; got != TierFull {
		t.Fatalf("after one cold publish tier = %q, want %q", got, TierFull)
	}

	// The second quiet publish demotes: no zoom stack, int32 lattices,
	// answers bit-identical to the full estimator over the same objects.
	mutate(10)
	flush()
	if got := s.Status().Tier; got != TierPacked {
		t.Fatalf("after two cold publishes tier = %q, want %q", got, TierPacked)
	}
	snap := s.snap.Load()
	if _, ok := snap.Est.(*core.Zoom); ok {
		t.Fatal("packed publish carries a zoom stack")
	}
	sweep(t, snap.Est, core.NewSEuler(s.lastHists[0]))
	if p, f := packedGauge.Value(), fullGauge.Value(); p <= 0 || 2*p != f {
		t.Fatalf("lattice byte gauges full=%d packed=%d, want packed = full/2", f, p)
	}

	// One estimator acquisition between publishes promotes the next one
	// back to the full tier — a zoom stack with the overview attached.
	_, _, release := s.AcquireEstimator()
	release()
	mutate(5)
	flush()
	if got := s.Status().Tier; got != TierFull {
		t.Fatalf("tier after a read = %q, want %q", got, TierFull)
	}
	z, ok := s.snap.Load().Est.(*core.Zoom)
	if !ok {
		t.Fatal("full publish with pyramids is not a zoom stack")
	}
	if z.Overview() == nil {
		t.Fatal("zoom publish lacks the reduced overview tier")
	}
	if packedGauge.Value() != 0 {
		t.Fatal("packed gauge not cleared on a full-tier publish")
	}

	// Going quiet again re-demotes — and the demoting publish must bump
	// the generation even when no mutation changed the histograms, or
	// readers would never see the new tier.
	mutate(3)
	flush()
	if got := s.Status().Tier; got != TierFull {
		t.Fatalf("first quiet publish tier = %q, want %q", got, TierFull)
	}
	gen := s.Generation()
	flush()
	if got := s.Status().Tier; got != TierPacked {
		t.Fatalf("second quiet publish tier = %q, want %q", got, TierPacked)
	}
	if s.Generation() == gen {
		t.Fatal("tier demotion did not publish a new generation")
	}
}

// TestPackedTierMEuler demotes a multi-partition M-EulerApprox store and
// checks the reassembled packed estimator against its full-tier twin.
func TestPackedTierMEuler(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	s, err := Open(Config{
		Grid:              testGrid(),
		Algo:              AlgoMEuler,
		Areas:             []float64{1, 6, 20},
		PackColdPublishes: 1,
		RebuildEvery:      -1,
		Telemetry:         telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for k := 0; k < 80; k++ {
		if ok, err := s.Insert(randRect(r)); err != nil || !ok {
			t.Fatalf("insert rejected (%v)", err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Status().Tier; got != TierPacked {
		t.Fatalf("tier = %q, want %q", got, TierPacked)
	}
	full, err := core.MEulerFromHistograms(s.cfg.Areas, s.lastHists)
	if err != nil {
		t.Fatal(err)
	}
	sweep(t, s.snap.Load().Est, full)
}
