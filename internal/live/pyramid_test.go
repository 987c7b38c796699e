package live

import (
	"math/rand"
	"testing"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// pyramidTestGrid is large enough to carry three coarse levels above the
// base (64 → 32 → 16 → 8 with the floor at 8).
func pyramidTestGrid() *grid.Grid { return grid.NewUnit(64, 64) }

// TestPyramidGenerations drives a pyramid-enabled store through many
// small rebuilds — exercising the cold build, the clone-repair donor path
// and the in-place arena path — and checks the final zoom stack
// bit-identically against a pyramid-less store built in one shot from the
// surviving objects. The sweep mixes aligned and unaligned spans, so
// every pyramid level answers some of the probes.
func TestPyramidGenerations(t *testing.T) {
	for _, algo := range []struct {
		name  string
		algo  Algo
		areas []float64
	}{
		{"seuler", AlgoSEuler, nil},
		{"euler", AlgoEuler, nil},
		{"meuler", AlgoMEuler, []float64{1, 9, 40}},
	} {
		t.Run(algo.name, func(t *testing.T) {
			g := pyramidTestGrid()
			opts := gen.RectOpts{MaxCellsX: 9, MaxCellsY: 7, Inside: true}
			r := rand.New(rand.NewSource(17))
			seed := make([]geom.Rect, 300)
			for i := range seed {
				seed[i] = gen.Rect(r, g, opts)
			}
			s := openTestStore(t, Config{Grid: g, Algo: algo.algo, Areas: algo.areas,
				Seed: seed, RebuildEvery: 16, PyramidLevels: 3, PyramidMinGrid: 8})
			if got := s.Status().PyramidLevels; got != 3 {
				t.Fatalf("Status().PyramidLevels = %d, want 3", got)
			}

			muts := gen.Mutations(rand.New(rand.NewSource(23)), g, seed, 400, opts)
			live := append([]geom.Rect(nil), seed...)
			for _, m := range muts {
				var err error
				switch m.Op {
				case gen.OpInsert:
					_, err = s.Insert(m.R)
					live = append(live, m.R)
				case gen.OpDelete:
					_, err = s.Delete(m.R)
					for k := range live {
						if live[k] == m.R {
							live[k] = live[len(live)-1]
							live = live[:len(live)-1]
							break
						}
					}
				case gen.OpUpdate:
					_, err = s.Update(m.Old, m.R)
					for k := range live {
						if live[k] == m.Old {
							live[k] = m.R
							break
						}
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}

			est, _, release := s.AcquireEstimator()
			defer release()
			z, ok := est.(*core.Zoom)
			if !ok {
				t.Fatalf("snapshot estimator is %T, want *core.Zoom", est)
			}
			if core.NumLevels(z) != 4 {
				t.Fatalf("zoom stack has %d levels, want 4", core.NumLevels(z))
			}
			ref := openTestStore(t, Config{Grid: g, Algo: algo.algo, Areas: algo.areas, Seed: live})
			want, _, refRelease := ref.AcquireEstimator()
			defer refRelease()
			sweep(t, est, want)
		})
	}
}
