package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialhist/internal/check/failpoint"
	"spatialhist/internal/core"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
	"spatialhist/internal/telemetry"
)

func testGrid(t *testing.T) *grid.Grid {
	t.Helper()
	return grid.New(geom.Rect{XMin: 0, YMin: 0, XMax: 64, YMax: 64}, 32, 32)
}

func openTestStore(t *testing.T, g *grid.Grid) *live.Store {
	t.Helper()
	s, err := live.Open(live.Config{Grid: g, Algo: live.AlgoEuler, RebuildEvery: 1, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func randTestRect(rng *rand.Rand) geom.Rect {
	x := rng.Float64() * 60
	y := rng.Float64() * 60
	return geom.NewRect(x, y, x+rng.Float64()*8, y+rng.Float64()*8)
}

// buildSharded inserts rects into a single reference store and, routed by
// the partition, into n sharded stores; returns the single store and the
// shard stores.
func buildSharded(t *testing.T, g *grid.Grid, n, objects int, seed int64) (*live.Store, []*live.Store) {
	t.Helper()
	single := openTestStore(t, g)
	shards := make([]*live.Store, n)
	for i := range shards {
		shards[i] = openTestStore(t, g)
	}
	part, err := NewPartition(g, n)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < objects; k++ {
		r := randTestRect(rng)
		if _, err := single.Insert(r); err != nil {
			t.Fatalf("insert single: %v", err)
		}
		if _, err := shards[part.ShardFor(r)].Insert(r); err != nil {
			t.Fatalf("insert shard: %v", err)
		}
	}
	single.Flush()
	for _, s := range shards {
		s.Flush()
	}
	return single, shards
}

func TestPartitionBands(t *testing.T) {
	g := testGrid(t)
	for _, n := range []int{1, 2, 3, 5, 32} {
		p, err := NewPartition(g, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		covered := 0
		for si := 0; si < p.N(); si++ {
			c1, c2 := p.Band(si)
			if c1 > c2 {
				t.Fatalf("n=%d shard %d: empty band [%d,%d]", n, si, c1, c2)
			}
			if c1 != covered {
				t.Fatalf("n=%d shard %d: band starts at %d, want %d", n, si, c1, covered)
			}
			covered = c2 + 1
		}
		if covered != g.NX() {
			t.Fatalf("n=%d: bands cover %d columns, grid has %d", n, covered, g.NX())
		}
	}
	if _, err := NewPartition(g, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewPartition(g, g.NX()+1); err == nil {
		t.Fatal("n > NX accepted")
	}
}

func TestPartitionRouting(t *testing.T) {
	g := testGrid(t)
	p, err := NewPartition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 500; k++ {
		r := randTestRect(rng)
		si := p.ShardFor(r)
		span, ok := g.Snap(r)
		if !ok {
			t.Fatalf("in-extent rect %v did not snap", r)
		}
		c1, c2 := p.Band(si)
		if span.I1 < c1 || span.I1 > c2 {
			t.Fatalf("rect with anchor column %d routed to shard %d band [%d,%d]", span.I1, si, c1, c2)
		}
	}
	// Out-of-extent objects route to shard 0, which journals and rejects
	// them exactly as a single store does.
	far := geom.NewRect(1e6, 1e6, 1e6+1, 1e6+1)
	if si := p.ShardFor(far); si != 0 {
		t.Fatalf("out-of-extent rect routed to shard %d, want 0", si)
	}
	groups := p.RouteRects([]geom.Rect{far, randTestRect(rng)})
	if len(groups) != 3 {
		t.Fatalf("RouteRects returned %d groups, want 3", len(groups))
	}
	total := 0
	for _, grp := range groups {
		total += len(grp)
	}
	if total != 2 {
		t.Fatalf("RouteRects scattered %d rects, want 2", total)
	}
}

// estimatesEqual requires bit-identical raw estimate slices.
func estimatesEqual(t *testing.T, what string, got, want []core.Estimate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d estimates, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: estimate %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func singleEstimates(t *testing.T, s *live.Store, region grid.Span, cols, rows int) []core.Estimate {
	t.Helper()
	est, _, release := s.AcquireEstimator()
	defer release()
	ests, err := core.EstimateGrid(est, region, cols, rows)
	if err != nil {
		t.Fatalf("single EstimateGrid: %v", err)
	}
	return ests
}

func localCoordinator(t *testing.T, shards []*live.Store) *Coordinator {
	t.Helper()
	handles := make([]Handle, len(shards))
	for i, s := range shards {
		handles[i] = &LocalHandle{Store: s, Label: fmt.Sprintf("s%d", i)}
	}
	return coordinatorOver(t, handles...)
}

// coordinatorOver is a coordinator named "test" over the handles, in band
// order.
func coordinatorOver(t *testing.T, handles ...Handle) *Coordinator {
	t.Helper()
	cfg := Config{Name: "test", Telemetry: telemetry.NewRegistry()}
	for _, h := range handles {
		cfg.Shards = append(cfg.Shards, Backends{Leader: h})
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return c
}

func TestScatterGatherBitIdentity(t *testing.T) {
	g := testGrid(t)
	single, shards := buildSharded(t, g, 3, 400, 11)
	c := localCoordinator(t, shards)

	rng := rand.New(rand.NewSource(13))
	full := grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
	for _, tc := range []struct{ cols, rows int }{{1, 1}, {4, 4}, {8, 2}, {32, 32}} {
		got, err := c.EstimateGrid(full, tc.cols, tc.rows)
		if err != nil {
			t.Fatalf("EstimateGrid %dx%d: %v", tc.cols, tc.rows, err)
		}
		estimatesEqual(t, fmt.Sprintf("grid %dx%d", tc.cols, tc.rows),
			got, singleEstimates(t, single, full, tc.cols, tc.rows))
	}
	// Arbitrary spans through EstimateSpans.
	var spans []grid.Span
	for k := 0; k < 64; k++ {
		i1, j1 := rng.Intn(g.NX()), rng.Intn(g.NY())
		spans = append(spans, grid.Span{
			I1: i1, J1: j1,
			I2: i1 + rng.Intn(g.NX()-i1), J2: j1 + rng.Intn(g.NY()-j1),
		})
	}
	got, err := c.EstimateSpans(spans)
	if err != nil {
		t.Fatalf("EstimateSpans: %v", err)
	}
	est, _, release := single.AcquireEstimator()
	want := core.EstimateSet(est, spans)
	release()
	estimatesEqual(t, "spans", got, want)
}

// FuzzCoordinatorSum: whatever the shard count (1–4), the algorithm, the
// objects and the tiling, the coordinator's summed raw estimates are a
// single store's over the same objects, bit for bit: every shard adds into
// the one plane.
func FuzzCoordinatorSum(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(300), uint8(0), uint8(0), uint16(0)) // 128×64 tiles
	f.Add(int64(2), uint8(3), uint16(250), uint8(6), uint8(1), uint16(33))
	f.Add(int64(3), uint8(4), uint16(120), uint8(5), uint8(0x55), uint16(530))
	f.Add(int64(4), uint8(1), uint16(0), uint8(1), uint8(0xff), uint16(511))
	f.Fuzz(func(t *testing.T, seed int64, shards uint8, objects uint16, algo, tiling uint8, origin uint16) {
		g := grid.New(geom.Rect{XMax: 128, YMax: 64}, 128, 64)
		n := 1 + int(shards)%4
		rng := rand.New(rand.NewSource(seed))
		rects := make([]geom.Rect, int(objects)%400)
		for k := range rects {
			x, y := rng.Float64()*132-2, rng.Float64()*66-1 // a few outside the space
			rects[k] = geom.NewRect(x, y, x+rng.ExpFloat64()*4, y+rng.ExpFloat64()*4)
		}
		cfg := live.Config{Grid: g, Algo: []live.Algo{live.AlgoEuler, live.AlgoSEuler, live.AlgoMEuler}[algo%3],
			PyramidMinGrid: 8, Telemetry: telemetry.NewRegistry()}
		if cfg.Algo == live.AlgoMEuler {
			cfg.Areas = []float64{1, 9, 100}
		}
		if algo&4 != 0 {
			cfg.PyramidLevels = 3
		}
		open := func(seed []geom.Rect) *live.Store {
			c := cfg
			c.Seed = seed
			s, err := live.Open(c)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}
		single := open(rects)
		part, err := NewPartition(g, n)
		if err != nil {
			t.Fatal(err)
		}
		var handles []Handle
		for si, seed := range part.RouteRects(rects) {
			handles = append(handles, &LocalHandle{Store: open(seed), Label: fmt.Sprint("s", si)})
		}
		c := coordinatorOver(t, handles...)

		tw, th := 1+int(tiling%4), 1+int(tiling/4%4)
		i1, j1 := int(origin%32), int(origin/32%16)
		cols := max(1, (128-i1)/tw>>(tiling/16%4))
		rows := max(1, (64-j1)/th>>(tiling/64))
		region := grid.Span{I1: i1, J1: j1, I2: i1 + cols*tw - 1, J2: j1 + rows*th - 1}
		want := singleEstimates(t, single, region, cols, rows)
		stale := make([]core.Estimate, cols*rows+5)
		for k := range stale {
			stale[k].Overlap = 42 // the plane is zeroed before anything is summed
		}
		got, err := c.SumGrid(stale[:3], region, cols, rows)
		if err != nil {
			t.Fatalf("SumGrid %v %dx%d: %v", region, cols, rows, err)
		}
		estimatesEqual(t, fmt.Sprintf("recycled %v %dx%d", region, cols, rows), got, want)
		got, err = c.EstimateGrid(region, cols, rows)
		if err != nil {
			t.Fatalf("EstimateGrid %v %dx%d: %v", region, cols, rows, err)
		}
		estimatesEqual(t, fmt.Sprintf("fresh %v %dx%d", region, cols, rows), got, want)

		spans := make([]grid.Span, 1+rng.Intn(24))
		for k := range spans {
			i, j := rng.Intn(128), rng.Intn(64)
			spans[k] = grid.Span{I1: i, J1: j, I2: i + rng.Intn(128-i), J2: j + rng.Intn(64-j)}
		}
		est, _, release := single.AcquireEstimator()
		want = core.EstimateSet(est, spans)
		release()
		got, err = c.EstimateSpans(spans)
		if err != nil {
			t.Fatalf("EstimateSpans: %v", err)
		}
		estimatesEqual(t, "spans", got, want)
	})
}

func TestCoordinatorIngestMatchesSingle(t *testing.T) {
	g := testGrid(t)
	single := openTestStore(t, g)
	shards := []*live.Store{
		openTestStore(t, g),
		openTestStore(t, g),
	}
	c := localCoordinator(t, shards)

	rng := rand.New(rand.NewSource(29))
	var rects []geom.Rect
	for k := 0; k < 200; k++ {
		rects = append(rects, randTestRect(rng))
	}
	rects = append(rects, geom.NewRect(900, 900, 901, 901)) // rejected everywhere

	wantApplied, wantRejected := 0, 0
	for _, r := range rects {
		ok, err := single.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			wantApplied++
		} else {
			wantRejected++
		}
	}
	single.Flush()

	applied, rejected, _, err := c.Apply(live.OpInsert, rects, true)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if applied != wantApplied || rejected != wantRejected {
		t.Fatalf("Apply applied=%d rejected=%d, single store applied=%d rejected=%d",
			applied, rejected, wantApplied, wantRejected)
	}
	full := grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
	got, err := c.EstimateGrid(full, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	estimatesEqual(t, "post-ingest grid", got, singleEstimates(t, single, full, 8, 8))

	info, err := c.Info()
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	if info.Objects != int64(wantApplied) {
		t.Fatalf("Info.Objects = %d, want %d", info.Objects, wantApplied)
	}
}

// TestIngestAcksMonotone: a batch acknowledges the generation of the whole
// logical store, not of the shards it touched — two flushed batches in
// band 0 then one in band 1 must not ack a generation lower than the one
// before it, and no ack may run ahead of /api/info's.
func TestIngestAcksMonotone(t *testing.T) {
	g := testGrid(t)
	c := localCoordinator(t, []*live.Store{openTestStore(t, g), openTestStore(t, g)})
	west, east := geom.NewRect(2, 2, 4, 4), geom.NewRect(40, 2, 42, 4)
	var last uint64
	for k, r := range []geom.Rect{west, west, east, west, east} {
		_, _, gen, err := c.Apply(live.OpInsert, []geom.Rect{r}, true)
		if err != nil {
			t.Fatal(err)
		}
		info, err := c.Info()
		if err != nil {
			t.Fatal(err)
		}
		if gen < last || gen > info.Generation {
			t.Fatalf("batch %d acked generation %d after %d, /api/info then read %d", k, gen, last, info.Generation)
		}
		last = gen
	}
}

// discardWriter is a ResponseWriter that keeps nothing of the body, so a
// request's allocations are the handler's own.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestCoordinatorBrowseBudget bounds what one browse map through the
// in-process coordinator front allocates once warm: O(cols+rows) of edge
// tables plus a constant — no plane per shard, no merge plane, no body;
// those are recycled. Measured on a 2-core VM (median bytes per map,
// 45×45 / 90×90): the scatter-and-merge front allocated 306,744 /
// 1,196,600 — two shard planes and a body — and the in-place sum on the
// request's goroutine allocates 14,264 / 23,416, the request metrics of
// the front's middleware included (11,816 / 16,296 before the encoder's
// edge table became padded text blocks).
func TestCoordinatorBrowseBudget(t *testing.T) {
	g := grid.New(geom.Rect{XMin: 0, YMin: 0, XMax: 360, YMax: 180}, 180, 90)
	var stores []*live.Store
	for i := 0; i < 2; i++ {
		stores = append(stores, openTestStore(t, g))
	}
	part, err := NewPartition(g, len(stores))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	rects := make([]geom.Rect, 3000)
	for k := range rects {
		x, y := rng.Float64()*350, rng.Float64()*170
		rects[k] = geom.NewRect(x, y, x+rng.Float64()*10, y+rng.Float64()*10)
	}
	for si, batch := range part.RouteRects(rects) {
		if _, _, _, err := stores[si].Apply(live.OpInsert, batch, true); err != nil {
			t.Fatal(err)
		}
	}
	front := NewServer(localCoordinator(t, stores), telemetry.NewRegistry())
	for _, n := range []int{45, 90} {
		req := httptest.NewRequest("GET", fmt.Sprintf("/api/browse?x1=0&y1=0&x2=360&y2=180&cols=%d&rows=%d", n, n), nil)
		serve := func() int {
			w := &discardWriter{h: http.Header{}}
			front.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("%dx%d map: status %d", n, n, w.status)
			}
			return w.n
		}
		body := serve() // warm: the recycled plane and body reach this map's size
		// The median request: a sync.Pool may drop what it holds (at a GC,
		// and at random under the race detector), and a request that finds
		// it empty allocates afresh — rarely, and it must not be the norm.
		allocs := make([]uint64, 21)
		var before, after runtime.MemStats
		for i := range allocs {
			runtime.ReadMemStats(&before)
			serve()
			runtime.ReadMemStats(&after)
			allocs[i] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(allocs)
		perMap := int(allocs[len(allocs)/2])
		t.Logf("%dx%d map: %d bytes allocated per request (plane %d, body %d)", n, n, perMap, 32*n*n, body)
		// 16 KiB: the query parser, the lattice-height zero row a map at the
		// grid's west edge reads per histogram, and a request's bookkeeping.
		if budget := 64*(n+n) + 16<<10; perMap > budget {
			t.Errorf("%dx%d map: %d bytes allocated per request, budget %d: a plane is %d and the body %d",
				n, n, perMap, budget, 32*n*n, body)
		}
	}
}

// readBody fetches a URL and returns status plus body bytes.
func readBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf [1 << 20]byte
	n := 0
	for {
		m, err := resp.Body.Read(buf[n:])
		n += m
		if err != nil {
			break
		}
	}
	// Every body here is written whole, so its length is declared — the
	// 8×8 maps are past the size net/http would have counted by itself.
	if resp.StatusCode == http.StatusOK && resp.ContentLength != int64(n) {
		t.Fatalf("GET %s: Content-Length %d (transfer encoding %v) for a body of %d bytes",
			url, resp.ContentLength, resp.TransferEncoding, n)
	}
	return resp.StatusCode, string(buf[:n])
}

func TestCoordinatorServerBitIdenticalToSingle(t *testing.T) {
	g := testGrid(t)
	single, shards := buildSharded(t, g, 2, 300, 41)
	c := localCoordinator(t, shards)

	coord := httptest.NewServer(NewServer(c, telemetry.NewRegistry()))
	t.Cleanup(coord.Close)
	ref := httptest.NewServer(geobrowse.New("test", single, geobrowse.Options{Telemetry: telemetry.NewRegistry()}))
	t.Cleanup(ref.Close)

	for _, q := range []string{
		"/api/browse?x1=0&y1=0&x2=64&y2=64&cols=8&rows=8",
		"/api/browse?x1=8&y1=8&x2=56&y2=40&cols=4&rows=2",
		"/api/query?x1=0&y1=0&x2=64&y2=64",
		"/api/query?x1=20&y1=6&x2=38&y2=62",
		"/api/drill?x1=0&y1=0&x2=64&y2=64&relation=overlap&hot=3&depth=4",
		"/api/drill?x1=0&y1=0&x2=64&y2=64&relation=contained&hot=1&depth=3",
	} {
		cs, cb := readBody(t, coord.URL+q)
		rs, rb := readBody(t, ref.URL+q)
		if cs != http.StatusOK || rs != http.StatusOK {
			t.Fatalf("%s: coordinator status %d, single %d (%s vs %s)", q, cs, rs, cb, rb)
		}
		if cb != rb {
			t.Fatalf("%s:\ncoordinator: %s\nsingle:      %s", q, cb, rb)
		}
	}

	if st, _ := readBody(t, coord.URL+"/healthz"); st != http.StatusOK {
		t.Fatalf("healthz status %d", st)
	}
	if st, body := readBody(t, coord.URL+"/api/shards"); st != http.StatusOK || body == "" {
		t.Fatalf("topology status %d body %q", st, body)
	}
}

// TestInProcessFrontConcurrentMaps: concurrent browse requests through an
// in-process front, large and small, each get the single
// node's bytes — no request sees another's recycled plane or body.
func TestInProcessFrontConcurrentMaps(t *testing.T) {
	g := grid.New(geom.Rect{XMax: 128, YMax: 64}, 128, 64)
	single, shards := buildSharded(t, g, 2, 300, 43)
	front := NewServer(localCoordinator(t, shards), telemetry.NewRegistry())
	ref := geobrowse.New("test", single, geobrowse.Options{CacheSize: -1, Telemetry: telemetry.NewRegistry()})
	queries := []string{
		"/api/browse?x1=0&y1=0&x2=128&y2=64&cols=128&rows=64", // 8192 tiles
		"/api/browse?x1=0&y1=0&x2=128&y2=64&cols=64&rows=32",
		"/api/browse?x1=8&y1=4&x2=40&y2=60&cols=16&rows=7",
		"/api/browse?x1=0&y1=0&x2=128&y2=64&cols=1&rows=1",
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, httptest.NewRequest("GET", q, nil))
		want[i] = rec.Body.String()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 12; k++ {
				i := (w + k) % len(queries)
				rec := httptest.NewRecorder()
				front.ServeHTTP(rec, httptest.NewRequest("GET", queries[i], nil))
				if rec.Code != http.StatusOK || rec.Body.String() != want[i] {
					t.Errorf("%s: status %d, body differs from the single node's", queries[i], rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// flakyHandle wraps a Handle and fails every read and write while down.
type flakyHandle struct {
	Handle
	down atomic.Bool
}

func (f *flakyHandle) fail() error {
	if f.down.Load() {
		return fmt.Errorf("backend down")
	}
	return nil
}

func (f *flakyHandle) Info() (geobrowse.Info, error) {
	if err := f.fail(); err != nil {
		return geobrowse.Info{}, err
	}
	return f.Handle.Info()
}

func (f *flakyHandle) AddGrid(dst []core.Estimate, region grid.Span, cols, rows int) error {
	if err := f.fail(); err != nil {
		return err
	}
	return f.Handle.AddGrid(dst, region, cols, rows)
}

func (f *flakyHandle) AddSpans(dst []core.Estimate, spans []grid.Span) error {
	if err := f.fail(); err != nil {
		return err
	}
	return f.Handle.AddSpans(dst, spans)
}

func (f *flakyHandle) Apply(op byte, rects []geom.Rect, flush bool) (applied, rejected int, gen uint64, err error) {
	if err := f.fail(); err != nil {
		return 0, 0, 0, err
	}
	return f.Handle.Apply(op, rects, flush)
}

// TestFailingShard: a shard that cannot answer fails the read it is part
// of — named in the error, counted in shard_scatter_errors_total, a 502 at
// the front — and an ingest reports it while the shards after it still
// apply their own parts.
func TestFailingShard(t *testing.T) {
	g := testGrid(t)
	_, stores := buildSharded(t, g, 2, 100, 59)
	west := &flakyHandle{Handle: &LocalHandle{Store: stores[0], Label: "s0"}}
	reg := telemetry.NewRegistry()
	c, err := NewCoordinator(Config{Name: "test", Telemetry: reg, Shards: []Backends{
		{Leader: west}, {Leader: &LocalHandle{Store: stores[1], Label: "s1"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	west.down.Store(true)

	full := grid.Span{I2: g.NX() - 1, J2: g.NY() - 1}
	if _, err := c.EstimateGrid(full, 4, 4); err == nil || !strings.Contains(err.Error(), "shard 0 (s0)") {
		t.Fatalf("read with shard 0 down: %v, want an error naming it", err)
	}
	rec := httptest.NewRecorder()
	Front(c, geobrowse.Options{Telemetry: telemetry.NewRegistry()}).ServeHTTP(rec,
		httptest.NewRequest("GET", "/api/browse?x1=0&y1=0&x2=64&y2=64&cols=4&rows=4", nil))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("browse with shard 0 down: %d %s, want 502", rec.Code, rec.Body)
	}
	if n := reg.CounterValues("shard_scatter_errors_total")[""]; n != 2 {
		t.Fatalf("shard_scatter_errors_total = %d after two failed reads", n)
	}

	east := stores[1].Status().LiveObjects
	applied, rejected, _, err := c.Apply(live.OpInsert, []geom.Rect{geom.NewRect(2, 2, 4, 4), geom.NewRect(40, 2, 42, 4)}, true)
	if err == nil || !strings.Contains(err.Error(), "shard 0") || applied != 1 || rejected != 0 {
		t.Fatalf("ingest with shard 0 down: applied %d rejected %d, %v; want shard 1's one object and an error naming shard 0",
			applied, rejected, err)
	}
	if n := stores[1].Status().LiveObjects; n != east+1 {
		t.Fatalf("shard 1 holds %d objects after the ingest, want %d", n, east+1)
	}
}

// TestApplyCountsAPartialShardBatch: a shard whose journal fails mid-batch
// has applied the mutations before the failure, and the coordinator's ack
// counts them, as the shard's own live.Store.Apply does.
func TestApplyCountsAPartialShardBatch(t *testing.T) {
	g := testGrid(t)
	s, err := live.Open(live.Config{Grid: g, Algo: live.AlgoEuler, RebuildEvery: -1, SyncEvery: 1,
		WALPath: filepath.Join(t.TempDir(), "s0.wal"), Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := localCoordinator(t, []*live.Store{s})
	defer failpoint.Reset()
	failpoint.SetWriteBudget(live.FailpointWALWrite, 2*37+10) // two 37-byte records, then the third fails
	batch := []geom.Rect{geom.NewRect(2, 2, 4, 4), geom.NewRect(6, 6, 8, 8), geom.NewRect(10, 10, 12, 12)}
	applied, rejected, _, err := c.Apply(live.OpInsert, batch, true)
	if err == nil || applied != 2 || rejected != 0 {
		t.Fatalf("ingest whose third record fails to journal: applied %d rejected %d, %v; want 2, 0 and the error",
			applied, rejected, err)
	}
	if n := s.Status().LiveObjects; n != int64(applied) {
		t.Fatalf("the shard holds %d objects, the ack counts %d", n, applied)
	}
}

// TestApplyWithNothingToRouteTouchesNoShard: an empty batch calls no
// shard's Apply and acknowledges the generation the shards are at.
func TestApplyWithNothingToRouteTouchesNoShard(t *testing.T) {
	g := testGrid(t)
	_, stores := buildSharded(t, g, 2, 50, 83)
	handles, seen := callerHandles(stores)
	c := coordinatorOver(t, handles...) // reads every shard's Info once
	for _, op := range []byte{live.OpInsert, live.OpDelete} {
		applied, rejected, gen, err := c.Apply(op, nil, true)
		if err != nil || applied != 0 || rejected != 0 || gen != c.Generation() {
			t.Fatalf("empty batch (op %d): applied %d rejected %d gen %d, %v; want 0, 0, %d",
				op, applied, rejected, gen, err, c.Generation())
		}
	}
	for i, h := range seen {
		if n := len(h.seen); n != 1 {
			t.Fatalf("shard %d called on %d goroutines after empty batches", i, n)
		}
		for _, n := range h.seen {
			if n != 1 {
				t.Fatalf("shard %d called %d times, want only the coordinator's Info at start", i, n)
			}
		}
	}
}

// TestCoordinatorCloseReleasesNothing: the coordinator owns no goroutine
// and no shard, so ProbeInterval changes nothing, and after Close — once
// or twice — it still reads and writes its shards as before.
func TestCoordinatorCloseReleasesNothing(t *testing.T) {
	g := testGrid(t)
	single, stores := buildSharded(t, g, 2, 100, 89)
	cfg := Config{Name: "test", ProbeInterval: time.Nanosecond, Telemetry: telemetry.NewRegistry()}
	for i, s := range stores {
		cfg.Shards = append(cfg.Shards, Backends{Leader: &LocalHandle{Store: s, Label: fmt.Sprint("s", i)}})
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if err := c.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	full := grid.Span{I2: g.NX() - 1, J2: g.NY() - 1}
	got, err := c.EstimateGrid(full, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	estimatesEqual(t, "grid after Close", got, singleEstimates(t, single, full, 4, 4))
	before := c.Generation()
	if applied, _, gen, err := c.Apply(live.OpInsert, []geom.Rect{geom.NewRect(40, 2, 42, 4)}, true); err != nil || applied != 1 || gen <= before {
		t.Fatalf("ingest after Close: applied %d gen %d (was %d), %v", applied, gen, before, err)
	}
}

// TestNewCoordinatorValidatesTopology: a coordinator is made only over at
// least one shard, every one answering Info, all on one grid and one
// algorithm — the conditions under which their raw sums add.
func TestNewCoordinatorValidatesTopology(t *testing.T) {
	g := testGrid(t)
	store := func(g *grid.Grid, algo live.Algo) Handle {
		s, err := live.Open(live.Config{Grid: g, Algo: algo, Telemetry: telemetry.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return &LocalHandle{Store: s}
	}
	base := store(g, live.AlgoEuler)
	down := &flakyHandle{Handle: store(g, live.AlgoEuler)}
	down.down.Store(true)
	for _, tc := range []struct {
		name   string
		shards []Backends
		want   string
	}{
		{"no-shards", nil, "Shards is required"},
		{"no-leader", []Backends{{Leader: base}, {}}, "shard 1 has no leader"},
		{"unreadable", []Backends{{Leader: base}, {Leader: down}}, "reading shard 1"},
		{"other-grid", []Backends{{Leader: base}, {Leader: store(grid.New(g.Extent(), 16, 32), live.AlgoEuler)}}, "grid"},
		{"other-algorithm", []Backends{{Leader: base}, {Leader: store(g, live.AlgoSEuler)}}, "algorithm"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCoordinator(Config{Shards: tc.shards, Telemetry: telemetry.NewRegistry()})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewCoordinator: %v, want an error saying %q", err, tc.want)
			}
		})
	}
}

// second returns a call's error, dropping its result.
func second[T any](_ T, err error) error { return err }

// TestCoordinatorRejectsBadQueries: malformed queries must be refused at
// the coordinator without reading a shard — a client's 400 is not a
// shard failure.
func TestCoordinatorRejectsBadQueries(t *testing.T) {
	g := testGrid(t)
	_, stores := buildSharded(t, g, 2, 50, 1)
	handles, seen := callerHandles(stores)
	c := coordinatorOver(t, handles...) // reads every shard's Info once
	for what, err := range map[string]error{
		"non-dividing tiling": second(c.EstimateGrid(grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}, 7, 1)),
		"out-of-grid span":    second(c.EstimateGrid(grid.Span{I1: 0, J1: 0, I2: g.NX(), J2: 0}, 1, 1)),
		"negative span":       second(c.EstimateSpans([]grid.Span{{I1: -1, J1: 0, I2: 0, J2: 0}})),
	} {
		var re *geobrowse.RequestError
		if !errors.As(err, &re) {
			t.Fatalf("%s: error %v, want a RequestError", what, err)
		}
	}
	// Through the coordinator front the same tiling is the single node's 400.
	front := httptest.NewServer(NewServer(c, telemetry.NewRegistry()))
	t.Cleanup(front.Close)
	for _, q := range []string{
		"/api/browse?x1=0&y1=0&x2=64&y2=64&cols=7&rows=1",
		"/api/browse?x1=0&y1=0&x2=64&y2=64&cols=64&rows=64",
	} {
		if st, body := readBody(t, front.URL+q); st != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", q, st, body)
		}
	}
	for i, h := range seen {
		reads := 0
		for _, n := range h.seen {
			reads += n
		}
		if reads != 1 {
			t.Fatalf("shard %d read %d times, want only the coordinator's Info at start", i, reads)
		}
	}
}

// healthz serves /healthz from front and decodes its Health body.
func healthz(t *testing.T, front http.Handler) (int, geobrowse.Health) {
	t.Helper()
	rec := httptest.NewRecorder()
	front.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var h geobrowse.Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz body %q: %v", rec.Body.String(), err)
	}
	return rec.Code, h
}

// TestCoordinatorFrontHealthz: the coordinator front reports health as a
// node does — the node's Health body, at the sum of its shards'
// generations — and turns 503 once it drains.
func TestCoordinatorFrontHealthz(t *testing.T) {
	g := testGrid(t)
	_, stores := buildSharded(t, g, 2, 100, 61)
	front := Front(localCoordinator(t, stores), geobrowse.Options{Telemetry: telemetry.NewRegistry()})
	check := func(wantCode int, wantStatus string) {
		t.Helper()
		code, h := healthz(t, front)
		want := geobrowse.Health{Status: wantStatus, Dataset: "test",
			Generation: stores[0].Generation() + stores[1].Generation()}
		if code != wantCode || h != want {
			t.Fatalf("healthz: %d %+v, want %d %+v", code, h, wantCode, want)
		}
	}
	check(http.StatusOK, "ok")
	if _, err := stores[1].Insert(geom.NewRect(40, 2, 42, 4)); err != nil {
		t.Fatal(err)
	}
	check(http.StatusOK, "ok") // published by the store's own RebuildEvery 1

	front.StartDrain()
	check(http.StatusServiceUnavailable, "draining")
}

// TestShardGenerationIsReadWhenAsked: a shard that publishes on its own
// rebuild timer — acknowledged to no one, probed by nothing — shows its
// new generation at once in the coordinator front's /healthz and in the
// next ingest's ack, even one that touches only another shard.
func TestShardGenerationIsReadWhenAsked(t *testing.T) {
	g := testGrid(t)
	open := func(interval time.Duration) *live.Store {
		s, err := live.Open(live.Config{Grid: g, Algo: live.AlgoEuler, RebuildEvery: -1,
			RebuildInterval: interval, Telemetry: telemetry.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	west, east := open(time.Millisecond), open(0)
	c := localCoordinator(t, []*live.Store{west, east})
	front := Front(c, geobrowse.Options{Telemetry: telemetry.NewRegistry()})

	before := west.Generation()
	if _, err := west.Insert(geom.NewRect(2, 2, 4, 4)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); west.Generation() == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the rebuild timer published no generation")
		}
	}
	want := west.Generation() + east.Generation()
	if _, h := healthz(t, front); h.Generation != want {
		t.Fatalf("/healthz reads generation %d, the shards are at %d", h.Generation, want)
	}
	// Into the east shard, unflushed: it publishes nothing, so the ack is
	// exactly the generations the shards are at.
	_, _, gen, err := c.Apply(live.OpInsert, []geom.Rect{geom.NewRect(40, 2, 42, 4)}, false)
	if err != nil || gen != want {
		t.Fatalf("ingest acked generation %d (%v), the shards are at %d", gen, err, want)
	}
}

// goroutineID is the calling goroutine's number, as runtime.Stack prints
// it ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// callerHandle counts the reads and writes of a Handle by the goroutine
// each ran on.
type callerHandle struct {
	Handle
	mu   sync.Mutex
	seen map[string]int
}

// callerHandles wraps each store in a callerHandle, in band order, and
// returns them both as the coordinator's handles and as themselves.
func callerHandles(stores []*live.Store) ([]Handle, []*callerHandle) {
	handles, seen := make([]Handle, len(stores)), make([]*callerHandle, len(stores))
	for i, s := range stores {
		seen[i] = &callerHandle{Handle: &LocalHandle{Store: s, Label: fmt.Sprint("s", i)}, seen: map[string]int{}}
		handles[i] = seen[i]
	}
	return handles, seen
}

func (h *callerHandle) record() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seen[goroutineID()]++
}

func (h *callerHandle) Info() (geobrowse.Info, error) {
	h.record()
	return h.Handle.Info()
}

func (h *callerHandle) AddGrid(dst []core.Estimate, region grid.Span, cols, rows int) error {
	h.record()
	return h.Handle.AddGrid(dst, region, cols, rows)
}

func (h *callerHandle) AddSpans(dst []core.Estimate, spans []grid.Span) error {
	h.record()
	return h.Handle.AddSpans(dst, spans)
}

func (h *callerHandle) Apply(op byte, rects []geom.Rect, flush bool) (applied, rejected int, gen uint64, err error) {
	h.record()
	return h.Handle.Apply(op, rects, flush)
}

// TestEveryShardIsReadOnTheCallingGoroutine: the coordinator reads and
// writes its shards one after another on its caller's goroutine — tile
// maps, span batches, Info and ingest alike — so a request starts no
// goroutine per shard, and every shard adds into the one plane without a
// lock.
func TestEveryShardIsReadOnTheCallingGoroutine(t *testing.T) {
	g := testGrid(t)
	single, stores := buildSharded(t, g, 3, 200, 71)
	handles, seen := callerHandles(stores)
	c := coordinatorOver(t, handles...) // reads every shard's Info

	full := grid.Span{I2: g.NX() - 1, J2: g.NY() - 1}
	got, err := c.EstimateGrid(full, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	estimatesEqual(t, "grid", got, singleEstimates(t, single, full, 4, 4))
	if _, err := c.EstimateSpans([]grid.Span{full, {I1: 3, J1: 3, I2: 9, J2: 20}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Info(); err != nil {
		t.Fatal(err)
	}
	// One object in each of the three bands.
	batch := []geom.Rect{geom.NewRect(2, 2, 4, 4), geom.NewRect(30, 2, 32, 4), geom.NewRect(60, 2, 62, 4)}
	if applied, _, _, err := c.Apply(live.OpInsert, batch, true); err != nil || applied != len(batch) {
		t.Fatalf("Apply: %d applied, %v", applied, err)
	}
	me := goroutineID()
	for i, h := range seen {
		if len(h.seen) != 1 || h.seen[me] != 5 {
			t.Errorf("shard %d called on goroutines %v, want 4 reads and 1 write all on the caller's, %s", i, h.seen, me)
		}
	}
}

// TestLocalHandleFailsBeforeAdding: a read that fails has added nothing,
// so the plane it was handed is as it was.
func TestLocalHandleFailsBeforeAdding(t *testing.T) {
	g := testGrid(t)
	_, stores := buildSharded(t, g, 1, 100, 73)
	h := &LocalHandle{Store: stores[0]}
	full := grid.Span{I2: g.NX() - 1, J2: g.NY() - 1}
	for _, tc := range []struct {
		name  string
		plane int
		read  func(dst []core.Estimate) error
	}{
		{"non-dividing-tiling", 7, func(dst []core.Estimate) error { return h.AddGrid(dst, full, 7, 1) }},
		{"short-grid-plane", 15, func(dst []core.Estimate) error { return h.AddGrid(dst, full, 4, 4) }},
		{"short-span-plane", 1, func(dst []core.Estimate) error { return h.AddSpans(dst, []grid.Span{full, full}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := make([]core.Estimate, tc.plane)
			for k := range dst {
				dst[k].Overlap = 42
			}
			if err := tc.read(dst); err == nil {
				t.Fatal("read succeeded")
			}
			for k, e := range dst {
				if e != (core.Estimate{Overlap: 42}) {
					t.Fatalf("failed read left %+v at %d", e, k)
				}
			}
		})
	}
}

// TestTopologyListsEveryShard: /api/shards lists every shard in band
// order — its columns, its name and its generation when asked — the bands
// disjoint and covering the grid.
func TestTopologyListsEveryShard(t *testing.T) {
	g := testGrid(t)
	_, stores := buildSharded(t, g, 3, 100, 79)
	c := localCoordinator(t, stores)
	if _, err := stores[0].Insert(geom.NewRect(1, 1, 2, 2)); err != nil { // a publish the coordinator never saw
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	NewServer(c, telemetry.NewRegistry()).ServeHTTP(rec, httptest.NewRequest("GET", "/api/shards", nil))
	var top TopologyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil {
		t.Fatalf("/api/shards %d %q: %v", rec.Code, rec.Body, err)
	}
	if len(top.Shards) != len(stores) {
		t.Fatalf("/api/shards lists %d shards, want %d: %s", len(top.Shards), len(stores), rec.Body)
	}
	next := 0
	for si, s := range top.Shards {
		want := TopologyShard{Band: [2]int{next, s.Band[1]}, Name: fmt.Sprint("s", si), Generation: stores[si].Generation()}
		if s != want || s.Band[1] < s.Band[0] {
			t.Errorf("shard %d: %+v, want %+v", si, s, want)
		}
		next = s.Band[1] + 1
	}
	if next != g.NX() {
		t.Errorf("bands end at column %d, the grid has %d", next-1, g.NX())
	}
}
