package live

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
)

// checkNestedPlanes holds the planes est serves from to the nested
// invariant: plane k writes the bytes euler.FromRects writes over the
// objects of area groups 0..k, and every plane has the stack's one cell
// width. It returns that width.
func checkNestedPlanes(t *testing.T, what string, est core.Estimator, areas []float64, objects []geom.Rect) int {
	t.Helper()
	g := est.Grid()
	_, planes, ok := core.SpecOf(est)
	if !ok || len(planes) != len(areas) {
		t.Fatalf("%s: %d planes for %d area groups", what, len(planes), len(areas))
	}
	for k, h := range planes {
		var members []geom.Rect
		for _, r := range objects {
			if gi, ok := core.ObjectAreaGroup(g, areas, r); ok && gi <= k {
				members = append(members, r)
			}
		}
		var got, want bytes.Buffer
		if err := h.Write(&got); err != nil {
			t.Fatal(err)
		}
		if err := euler.FromRects(g, members).Write(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: plane %d holds %d objects and differs from FromRects over the %d of groups 0..%d", what, k, h.Count(), len(members), k)
		}
		if h.CellWidth() != planes[0].CellWidth() {
			t.Fatalf("%s: plane %d has %d-byte cells, plane 0 %d", what, k, h.CellWidth(), planes[0].CellWidth())
		}
	}
	return planes[0].CellWidth()
}

// TestNestedPlanesThroughMutationsAndRestarts: a live M-EulerApprox store
// publishes nested planes — after inserts, deletes and updates, one of
// which moves an object from the smallest area group to the largest, after
// a checkpoint, and after reopening both from the checkpoint and the
// journal tail and by replaying the whole journal. Under a lowered narrow
// limit the last plane goes wide where the first alone would stay narrow,
// and every plane of the stack follows it.
func TestNestedPlanesThroughMutationsAndRestarts(t *testing.T) {
	areas := []float64{1, 9, 40}
	for _, limit := range []int64{0, 120} {
		t.Run(fmt.Sprintf("limit %d", limit), func(t *testing.T) {
			if limit > 0 {
				defer euler.LowerNarrowLimit(limit)()
			}
			dir := t.TempDir()
			cfg := Config{Grid: testGrid(), Algo: AlgoMEuler, Areas: areas, Seed: seedRects(40),
				WALPath: filepath.Join(dir, "store.wal"), CheckpointPath: filepath.Join(dir, "store.ckpt"),
				RebuildEvery: -1, SyncEvery: 1}
			objects := slices.Clone(cfg.Seed)
			s := openTestStore(t, cfg)
			r := gen.Rand(48)
			mutate := func(n int) {
				t.Helper()
				for _, m := range gen.Mutations(r, cfg.Grid, objects, n, liveRectOpts) {
					var err error
					switch m.Op {
					case gen.OpInsert:
						_, err = s.Insert(m.R)
					case gen.OpDelete:
						_, err = s.Delete(m.R)
					case gen.OpUpdate:
						_, err = s.Update(m.Old, m.R)
					}
					if err != nil {
						t.Fatal(err)
					}
					objects = gen.Apply(objects, m)
				}
			}
			published := func(what string) int {
				t.Helper()
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				est, _ := current(t, s)
				return checkNestedPlanes(t, what, est, areas, objects)
			}

			published("seeded")
			mutate(80)
			small, big := geom.NewRect(1.2, 1.2, 1.7, 1.7), geom.NewRect(2, 2, 12, 9)
			if gs, _ := core.ObjectAreaGroup(cfg.Grid, areas, small); gs != 0 {
				t.Fatalf("the small object is in group %d", gs)
			}
			if gb, _ := core.ObjectAreaGroup(cfg.Grid, areas, big); gb != len(areas)-1 {
				t.Fatalf("the big object is in group %d", gb)
			}
			if _, err := s.Insert(small); err != nil {
				t.Fatal(err)
			}
			if ok, err := s.Update(small, big); err != nil || !ok {
				t.Fatalf("update across area groups: %v, %v", ok, err)
			}
			objects = append(objects, big)
			published("after mutations")
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			mutate(40)
			width := published("past the checkpoint")
			if limit > 0 {
				var first []geom.Rect
				for _, r := range objects {
					if gi, _ := core.ObjectAreaGroup(cfg.Grid, areas, r); gi == 0 {
						first = append(first, r)
					}
				}
				if alone := euler.FromRects(cfg.Grid, first).CellWidth(); width != 8 || alone != 4 {
					t.Fatalf("under limit %d: a stack of %d-byte cells, the first plane alone %d: the case does not exercise what it names", limit, width, alone)
				}
			}

			// A crash: the journal is synced, the handle dropped unclosed.
			var err error
			if s, err = Open(cfg); err != nil {
				t.Fatal(err)
			}
			published("reopened from the checkpoint and the journal tail")
			mutate(20)
			published("mutated after reopening")
			s.Close()
			replay := cfg
			replay.CheckpointPath = ""
			s = openTestStore(t, replay)
			published("reopened by replaying the whole journal")
		})
	}
}
