package live

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"spatialhist/internal/core"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

// survivorScript builds a mutation script whose inserts and update images
// draw draws, and whose deletes and updates take objects the script itself
// inserted, and returns it with the objects that survive it over seed, so
// tests can construct a ground-truth batch estimator.
func survivorScript(seed []geom.Rect, n int, rngSeed int64, draw func(*rand.Rand) geom.Rect) ([]Record, []geom.Rect) {
	r := rand.New(rand.NewSource(rngSeed))
	var live []geom.Rect
	recs := make([]Record, 0, n)
	for len(recs) < n {
		switch {
		case len(live) > 4 && r.Intn(4) == 0:
			k := r.Intn(len(live))
			recs = append(recs, Record{Op: OpDelete, Rect: live[k]})
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		case len(live) > 4 && r.Intn(4) == 0:
			k := r.Intn(len(live))
			nr := draw(r)
			recs = append(recs, Record{Op: OpUpdate, Old: live[k], Rect: nr})
			live[k] = nr
		default:
			nr := draw(r)
			recs = append(recs, Record{Op: OpInsert, Rect: nr})
			live = append(live, nr)
		}
	}
	return recs, append(slices.Clone(seed), live...)
}

// localRect returns a small MBR inside the lower-left corner [1,5]×[1,4] of
// the unit test space: churn a publish repairs.
func localRect(r *rand.Rand) geom.Rect {
	x, y := 1+3*r.Float64(), 1+2*r.Float64()
	return geom.NewRect(x, y, x+0.2+r.Float64(), y+0.2+r.Float64())
}

// TestIncrementalPublishMatchesBatch drives stores through many small
// rebuilds — which exercises dirty-region repair and generation-buffer
// recycling — and checks the final snapshot against a store built in one
// shot from the surviving objects, over feeds that send every publish
// after the first down the repair path, the full path, or either.
func TestIncrementalPublishMatchesBatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		draw func(*rand.Rand) geom.Rect
	}{
		{"localized", localRect},
		{"scattered", randRect},
		{"mixed", func(r *rand.Rand) geom.Rect {
			if r.Intn(8) == 0 {
				return randRect(r)
			}
			return localRect(r)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, algo := range []struct {
				name  string
				algo  Algo
				areas []float64
			}{
				{"seuler", AlgoSEuler, nil},
				{"meuler", AlgoMEuler, []float64{1, 9, 40}},
			} {
				t.Run(algo.name, func(t *testing.T) {
					seed := seedRects(200)
					recs, survivors := survivorScript(seed, 300, 11, tc.draw)
					s := openTestStore(t, Config{Grid: testGrid(), Algo: algo.algo, Areas: algo.areas,
						Seed: seed, RebuildEvery: 16})
					play(t, s, recs)
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
					// The opening build is the one full rebuild a localized
					// feed pays; a scattered one pays them throughout.
					switch full := s.m.rebuildFull.Value(); {
					case tc.name == "localized" && full != 1:
						t.Errorf("localized feed: %d full rebuilds, want only the opening one", full)
					case tc.name == "scattered" && full < 10:
						t.Errorf("scattered feed: %d full rebuilds over 19 publishes, want most of them", full)
					}
					ref := openTestStore(t, Config{Grid: testGrid(), Algo: algo.algo, Areas: algo.areas,
						Seed: survivors})
					got, _, release := s.AcquireEstimator()
					defer release()
					want, _, refRelease := ref.AcquireEstimator()
					defer refRelease()
					sweep(t, got, want)
				})
			}
		})
	}
}

// TestPinnedEstimatorStableAcrossRebuilds holds a pin across many
// publishes and asserts the pinned generation's answers never change:
// buffer recycling must not touch a generation any reader still holds.
func TestPinnedEstimatorStableAcrossRebuilds(t *testing.T) {
	seed := seedRects(300)
	s := openTestStore(t, Config{Grid: testGrid(), Algo: AlgoSEuler, Seed: seed,
		RebuildEvery: 8})
	est, gen, release := s.AcquireEstimator()
	spans := []grid.Span{
		{I1: 0, J1: 0, I2: 15, J2: 11},
		{I1: 2, J1: 3, I2: 9, J2: 7},
		{I1: 14, J1: 10, I2: 15, J2: 11},
	}
	before := make([]core.Estimate, len(spans))
	for i, q := range spans {
		before[i] = est.Estimate(q)
	}
	r := rand.New(rand.NewSource(13))
	for round := 0; round < 6; round++ {
		draw := []func(*rand.Rand) geom.Rect{localRect, randRect}[round%2] // repaired and rebuilt buffers
		for k := 0; k < 20; k++ {
			if _, err := s.Insert(draw(r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Generation() == gen {
		t.Fatal("publishes did not advance the generation")
	}
	for i, q := range spans {
		if got := est.Estimate(q); got != before[i] {
			t.Fatalf("pinned estimate at %v changed across rebuilds: %v → %v", q, before[i], got)
		}
	}
	release()
	release() // idempotent
}

// TestRejectedMutationsSkipGeneration: a flush after nothing but rejected
// mutations must not publish a new generation (the snapshot is already
// exact), but must clear the pending counter.
func TestRejectedMutationsSkipGeneration(t *testing.T) {
	s := openTestStore(t, Config{Grid: testGrid(), Algo: AlgoSEuler, Seed: seedRects(50),
		RebuildEvery: -1})
	gen := s.Generation()
	outside := geom.NewRect(40, 40, 41, 41)
	if ok, err := s.Insert(outside); err != nil || ok {
		t.Fatalf("Insert outside the space = (%v, %v), want rejected", ok, err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation(); got != gen {
		t.Fatalf("generation advanced to %d after rejected-only mutations, want %d", got, gen)
	}
	if p := s.Status().Pending; p != 0 {
		t.Fatalf("pending = %d after flush, want 0", p)
	}
}

// TestLeaseListBounded: readers that never release their pin keep every
// generation's lease uncollectible, and the arena must forget the oldest
// rather than accumulate them.
func TestLeaseListBounded(t *testing.T) {
	s := openTestStore(t, Config{Grid: testGrid(), Algo: AlgoSEuler, Seed: seedRects(100),
		RebuildEvery: -1})
	r := rand.New(rand.NewSource(17))
	for round := 0; round < 3*maxLeases; round++ {
		s.AcquireEstimator() // pin every generation, never release
		if _, err := s.Insert(randRect(r)); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	for i, leases := range s.arena.parts {
		if len(leases) > maxLeases {
			t.Fatalf("partition %d retains %d leases, want ≤ %d", i, len(leases), maxLeases)
		}
	}
}

// TestSteadyStatePublishAllocatesDirty is the store-level allocation gate:
// once the arena holds a retired generation, publishing a small mutation
// repairs the leased base plane and its pyramid levels in place, so a
// publish allocates a delta box and descriptors — a small fraction of the
// 511×511×4 B ≈ 1 MB cumulative plane a cloned generation would cost.
func TestSteadyStatePublishAllocatesDirty(t *testing.T) {
	g := grid.NewUnit(256, 256)
	s := openTestStore(t, Config{Grid: g, Algo: AlgoSEuler, RebuildEvery: -1, PyramidLevels: 3})
	publish := func(k int) uint64 {
		x := float64(100 + k%20)
		if ok, err := s.Insert(geom.NewRect(x+0.25, 100.25, x+2.5, 102.5)); err != nil || !ok {
			t.Fatalf("insert: %v %v", ok, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for k := 0; k < 4; k++ { // fill the arena: steady state from here on
		publish(k)
	}
	plane := uint64(4 * 511 * 511)
	for k := 4; k < 12; k++ {
		if got := publish(k); got > plane/8 {
			t.Fatalf("publish %d allocated %d bytes, want O(dirty) — well under the %d-byte plane", k, got, plane)
		}
	}
}

// TestRebuildTelemetry checks the new rebuild series: localized churn on a
// store publishes incrementally and records its dirty fraction.
func TestRebuildTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTestStore(t, Config{Grid: testGrid(), Algo: AlgoSEuler, Seed: seedRects(200),
		RebuildEvery: -1, Telemetry: reg})
	r := rand.New(rand.NewSource(19))
	for k := 0; k < 10; k++ {
		if _, err := s.Insert(localRect(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("live_rebuild_incremental_total", "").Value(); got < 1 {
		t.Fatalf("live_rebuild_incremental_total = %d, want ≥ 1", got)
	}
	// Open's first publish is a cold full build.
	if got := reg.Counter("live_rebuild_full_total", "").Value(); got != 1 {
		t.Fatalf("live_rebuild_full_total = %d, want 1", got)
	}
	if snap := reg.FamilySnapshot("live_rebuild_dirty_frac"); snap.Count < 2 {
		t.Fatalf("live_rebuild_dirty_frac count = %d, want ≥ 2", snap.Count)
	}
}

// TestConcurrentPinnedBrowse hammers pins, mutations and rebuilds together;
// run under -race this is the memory-safety gate for buffer recycling.
func TestConcurrentPinnedBrowse(t *testing.T) {
	s := openTestStore(t, Config{Grid: testGrid(), Algo: AlgoMEuler, Areas: []float64{1, 9, 40},
		Seed: seedRects(200), RebuildEvery: 4})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			q := grid.Span{I1: 1, J1: 1, I2: 12, J2: 9}
			for {
				select {
				case <-stop:
					return
				default:
				}
				est, _, release := s.AcquireEstimator()
				_ = est.Estimate(q)
				_ = r
				release()
			}
		}(int64(100 + w))
	}
	r := rand.New(rand.NewSource(23))
	for k := 0; k < 400; k++ {
		var err error
		if k%3 == 0 {
			_, err = s.Update(randRect(r), randRect(r))
		} else {
			_, err = s.Insert(randRect(r))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}
