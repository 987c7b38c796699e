package live

import (
	"math/rand"
	"testing"

	"spatialhist/internal/core"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

// ingestFeed is the ingest-browse workload's write feed: batches of 50
// rectangles of 1–4 cells a side, each within 12 cells of a focus that
// drifts by at most 3 cells a batch — or, scattered, anywhere — four insert
// batches then a delete of the group's first batch, and a flush every 20th
// batch.
type ingestFeed struct {
	g         *grid.Grid
	r         *rand.Rand
	scattered bool
	fi, fj    int
	n         int
	group     []geom.Rect // first insert batch of the current group of five
}

// newIngestFeed draws what the benchmark's feed draws at seed 2002.
func newIngestFeed(g *grid.Grid) *ingestFeed {
	r := rand.New(rand.NewSource(2002 ^ 0x1005))
	return &ingestFeed{g: g, r: r, fi: r.Intn(g.NX()), fj: r.Intn(g.NY())}
}

// next returns the next batch: its opcode, its rectangles, and whether it
// asks for a flush.
func (f *ingestFeed) next() (op byte, rects []geom.Rect, flush bool) {
	k := f.n
	f.n++
	flush = f.n%20 == 0
	if k%5 == 4 {
		return OpDelete, f.group, flush
	}
	nx, ny := f.g.NX(), f.g.NY()
	cw, ch := f.g.CellWidth(), f.g.CellHeight()
	ext := f.g.Extent()
	rects = make([]geom.Rect, 50)
	for i := range rects {
		ci := min(max(f.fi+f.r.Intn(25)-12, 0), nx-1)
		cj := min(max(f.fj+f.r.Intn(25)-12, 0), ny-1)
		if f.scattered {
			ci, cj = f.r.Intn(nx), f.r.Intn(ny)
		}
		// Strictly inside cell boundaries, as the benchmark feed draws them.
		x1 := ext.XMin + (float64(ci)+0.25)*cw
		y1 := ext.YMin + (float64(cj)+0.25)*ch
		x2 := min(x1+float64(f.r.Intn(4))*cw+0.5*cw, ext.XMax-0.25*cw)
		y2 := min(y1+float64(f.r.Intn(4))*ch+0.5*ch, ext.YMax-0.25*ch)
		rects[i] = geom.NewRect(x1, y1, x2, y2)
	}
	f.fi = min(max(f.fi+f.r.Intn(7)-3, 0), nx-1)
	f.fj = min(max(f.fj+f.r.Intn(7)-3, 0), ny-1)
	if k%5 == 0 {
		f.group = rects
	}
	return OpInsert, rects, flush
}

// TestPublishPolicyFollowsTheFeed drives a store shaped like the
// ingest-browse workload's (M-EulerApprox at thresholds 1, 9, 100 over
// 360×180, four pyramid levels, the default rebuild cadence) with its
// feed: 600 batches, 30 flushes. A localized feed must publish by repair —
// at least 90 % of the 31 publishes, the opening full build included — and
// a scattered one by full rebuilds. A feed that scatters for 10 flushes and
// then localizes must go back to repairing: one wide publish widens the
// retained buffers once, not every publish after it. Every time the last
// generation answers as a fresh build of the live objects.
func TestPublishPolicyFollowsTheFeed(t *testing.T) {
	g := grid.New(geom.NewRect(0, 0, 360, 180), 360, 180)
	spec := core.Spec{Algo: AlgoMEuler, Areas: []float64{1, 9, 100}}
	r := rand.New(rand.NewSource(7))
	seed := make([]geom.Rect, 20_000)
	for i := range seed {
		x, y := 0.5+r.Float64()*350, 0.5+r.Float64()*170
		seed[i] = geom.NewRect(x, y, x+0.2+8*r.Float64(), y+0.2+8*r.Float64())
	}
	for _, tc := range []struct {
		name    string
		scatter int // batches scattered before the feed localizes
	}{{"localized", 0}, {"scattered", 600}, {"scattered then localized", 200}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			s := openTestStore(t, Config{Grid: g, Algo: spec.Algo, Areas: spec.Areas, Seed: seed,
				PyramidLevels: 4, Telemetry: reg})
			objects := map[geom.Rect]int{}
			for _, o := range seed {
				objects[o]++
			}
			f := newIngestFeed(g)
			repaired := reg.Counter("live_rebuild_incremental_total", "")
			rebuilt := reg.Counter("live_rebuild_full_total", "")
			var before int64
			for k := 0; k < 600; k++ {
				if f.scattered = k < tc.scatter; k == tc.scatter {
					before = repaired.Value() + rebuilt.Value()
				}
				op, rects, flush := f.next()
				if _, rejected, _, err := s.Apply(op, rects, flush); err != nil || rejected != 0 {
					t.Fatalf("batch %d: %d rejected, %v", k, rejected, err)
				}
				for _, o := range rects {
					if op == OpInsert {
						objects[o]++
					} else {
						objects[o]--
					}
				}
			}
			t.Logf("%d publishes: %d repaired, %d rebuilt in full", repaired.Value()+rebuilt.Value(), repaired.Value(), rebuilt.Value())
			if n := repaired.Value() + rebuilt.Value(); n != 31 {
				t.Fatalf("%d publishes, want 31", n)
			}
			switch {
			case tc.scatter == 600 && rebuilt.Value() != 31:
				t.Errorf("%d of 31 publishes rebuilt in full, want all", rebuilt.Value())
			case tc.scatter < 600 && 10*repaired.Value() < 9*(31-before):
				t.Errorf("%d of the %d publishes of the localized feed repaired, want at least 90 %%", repaired.Value(), 31-before)
			}

			var live []geom.Rect
			for o, n := range objects {
				for ; n > 0; n-- {
					live = append(live, o)
				}
			}
			fresh, err := spec.FromRects(g, live)
			if err != nil {
				t.Fatal(err)
			}
			est, _, release := s.AcquireEstimator()
			defer release()
			for _, q := range []grid.Span{
				{I2: 359, J2: 179}, {I1: 100, J1: 40, I2: 219, J2: 129}, {I1: 7, J1: 3, I2: 7, J2: 3},
				{I1: 300, J1: 0, I2: 359, J2: 59}, {I1: 0, J1: 150, I2: 44, J2: 179}, {I1: 181, J1: 91, I2: 189, J2: 95},
			} {
				if got, want := est.Estimate(q), fresh.Estimate(q); got != want {
					t.Errorf("estimate of %v = %v, fresh build %v", q, got, want)
				}
			}
			for _, m := range []struct{ cols, rows int }{{36, 18}, {90, 45}} {
				got, err := core.EstimateGrid(est, grid.Span{I2: 359, J2: 179}, m.cols, m.rows)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.EstimateGrid(fresh, grid.Span{I2: 359, J2: 179}, m.cols, m.rows)
				if err != nil {
					t.Fatal(err)
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%dx%d map, tile %d = %v, fresh build %v", m.cols, m.rows, k, got[k], want[k])
					}
				}
			}
		})
	}
}
