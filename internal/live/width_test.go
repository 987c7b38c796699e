package live

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

// TestStatusReportsCellWidth: Status.CellWidth and the euler_lattice_bytes
// gauges name the published planes by cell width. A store is packed from
// its first publish — 4 bytes per bucket, pyramid and ε overview included
// — with no policy to wait out.
func TestStatusReportsCellWidth(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	reg := telemetry.NewRegistry()
	s := openTestStore(t, Config{
		Grid:           testGrid(),
		Algo:           AlgoMEuler,
		Areas:          []float64{1, 6, 20},
		RebuildEvery:   -1,
		PyramidLevels:  3,
		PyramidMinGrid: 3,
		Telemetry:      reg,
	})
	for k := 0; k < 40; k++ {
		if ok, err := s.Insert(randRect(r)); err != nil || !ok {
			t.Fatalf("insert rejected (%v)", err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// 16×12 halves to 8×6 and stops: 6/2 is the floor, but 3 is odd.
	st := s.Status()
	if st.CellWidth != 4 || st.PyramidLevels != 2 {
		t.Fatalf("cell width %d with %d pyramid levels, want 4 with 2", st.CellWidth, st.PyramidLevels)
	}
	z, ok := s.snap.Load().Est.(*core.Zoom)
	if !ok || z.Overview() == nil {
		t.Fatal("a narrow publish with pyramids is not a zoom stack with the overview attached")
	}
	packed := reg.Gauge("euler_lattice_bytes", latticeBytesHelp, "width", "4").Value()
	full := reg.Gauge("euler_lattice_bytes", latticeBytesHelp, "width", "8").Value()
	if want := int64(3 * 4 * 31 * 23); packed != want || full != 0 {
		t.Fatalf("lattice byte gauges packed=%d full=%d, want %d and 0", packed, full, want)
	}
}

// TestStoreCrossesTheNarrowLimit is the int32 edge with the limit lowered to
// a few hundred updates: a store that crosses it mid-life publishes a wide
// generation bit-identical to a from-scratch build, keeps answering across
// the switch, recycles scratch again afterwards, and comes back from a
// checkpoint whose plane does not fit at the width the values need.
func TestStoreCrossesTheNarrowLimit(t *testing.T) {
	const limit = 300
	defer euler.LowerNarrowLimit(limit)()
	r := rand.New(rand.NewSource(93))
	g := grid.NewUnit(128, 128)
	reg := telemetry.NewRegistry()
	ckpt := filepath.Join(t.TempDir(), "store.ckpt")
	cfg := Config{Grid: g, Algo: AlgoSEuler, RebuildEvery: -1, PyramidLevels: 2,
		CheckpointPath: ckpt, Telemetry: reg}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var objects []geom.Rect
	// insert draws objects anywhere; insertNear draws them in one corner of
	// the space, localized enough that a publish repairs them, so a full
	// rebuild in the counters below is one the cell width forced.
	insertIn := func(n int, at, spread, size float64) {
		t.Helper()
		for k := 0; k < n; k++ {
			x, y := at+r.Float64()*spread, at+r.Float64()*spread
			o := geom.NewRect(x, y, x+1+r.Float64()*size, y+1+r.Float64()*size)
			if ok, err := s.Insert(o); err != nil || !ok {
				t.Fatalf("insert: %v %v", ok, err)
			}
			objects = append(objects, o)
		}
	}
	insert := func(n int) { insertIn(n, 2, 100, 20) }
	insertNear := func(n int) { insertIn(n, 40, 8, 3) }
	publish := func() {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		fresh := core.SEulerFromRects(g, objects)
		est, _, release := s.AcquireEstimator()
		defer release()
		if est.Count() != fresh.Count() {
			t.Fatalf("published %d objects, want %d", est.Count(), fresh.Count())
		}
		for k := 0; k < 200; k++ {
			i1, j1 := r.Intn(128), r.Intn(128)
			q := grid.Span{I1: i1, J1: j1, I2: i1 + r.Intn(128-i1), J2: j1 + r.Intn(128-j1)}
			if a, b := est.Estimate(q), fresh.Estimate(q); a != b {
				t.Fatalf("estimate at %v = %v, want %v", q, a, b)
			}
		}
		want, err := core.EstimateGrid(fresh, grid.Span{I2: 127, J2: 127}, 32, 16)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.EstimateGrid(est, grid.Span{I2: 127, J2: 127}, 32, 16)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("tile %d = %v, want %v", k, got[k], want[k])
			}
		}
	}

	// Readers keep sweeping while the store publishes across the switch: a
	// generation is all narrow or all wide, and either answers a pinned
	// reader consistently (the race detector watches the recycled buffers).
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				est, _, release := s.AcquireEstimator()
				whole := est.Estimate(grid.Span{I2: 127, J2: 127})
				if whole.Total() != est.Count() || whole.Disjoint != 0 {
					t.Errorf("whole-space estimate %v over %d objects", whole, est.Count())
				}
				if _, err := core.EstimateGrid(est, grid.Span{I2: 127, J2: 127}, 16, 16); err != nil {
					t.Error(err)
				}
				release()
			}
		}()
	}

	insert(limit - 60)
	publish()
	for k := 0; k < 4; k++ { // fill the arena with narrow generations
		insert(10)
		publish()
	}
	if st := s.Status(); st.CellWidth != 4 || st.PyramidLevels != 2 {
		t.Fatalf("below the limit: cell width %d, %d pyramid levels", st.CellWidth, st.PyramidLevels)
	}
	fullRebuilds := s.m.rebuildFull.Value()

	insert(30) // update limit+1 is among these
	publish()
	if st := s.Status(); st.CellWidth != 8 || st.PyramidLevels != 2 {
		t.Fatalf("past the limit: cell width %d, %d pyramid levels", st.CellWidth, st.PyramidLevels)
	}
	if got := s.m.rebuildFull.Value() - fullRebuilds; got != 1 {
		t.Fatalf("the crossing publish counted %d full rebuilds, want 1", got)
	}
	packed := reg.Gauge("euler_lattice_bytes", latticeBytesHelp, "width", "4").Value()
	full := reg.Gauge("euler_lattice_bytes", latticeBytesHelp, "width", "8").Value()
	if want := int64(8 * 255 * 255); packed != 0 || full != want {
		t.Fatalf("lattice byte gauges packed=%d full=%d, want 0 and %d", packed, full, want)
	}

	// Wide generations fill the arena in their turn, and from then on a
	// publish allocates for what changed, not for a plane.
	for k := 0; k < 8; k++ {
		insertNear(2)
		publish()
	}
	if got := s.m.rebuildFull.Value() - fullRebuilds; got != 1 {
		t.Fatalf("%d full rebuilds after the switch, want only the crossing one", got)
	}
	close(stop)
	readers.Wait()
	var before, after runtime.MemStats
	for k := 0; k < 4; k++ {
		insertNear(1)
		runtime.ReadMemStats(&before)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got, plane := after.TotalAlloc-before.TotalAlloc, uint64(8*255*255); got > plane/4 {
			t.Fatalf("wide steady-state publish allocated %d bytes, want well under the %d-byte plane", got, plane)
		}
	}

	// The checkpoint carries values past the limit: it reads back wide, and
	// the reopened store goes on repairing it.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fullRebuilds = s.m.rebuildFull.Value() // the registry outlives the store
	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Status(); st.CellWidth != 8 || st.Objects != int64(len(objects)) {
		t.Fatalf("reopened: cell width %d, %d objects, want 8 and %d", st.CellWidth, st.Objects, len(objects))
	}
	publish()
	insertNear(3)
	publish()
	if got := s.m.rebuildFull.Value() - fullRebuilds; got != 1 {
		t.Fatalf("reopened store counted %d full rebuilds, want the opening one only", got)
	}
}
