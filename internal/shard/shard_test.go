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
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

func openTestStore(t *testing.T, g *grid.Grid, dir, name string) *live.Store {
	t.Helper()
	cfg := live.Config{
		Grid:         g,
		Algo:         live.AlgoEuler,
		RebuildEvery: 1,
		Telemetry:    telemetry.NewRegistry(),
	}
	if dir != "" {
		cfg.WALPath = filepath.Join(dir, name+".wal")
	}
	s, err := live.Open(cfg)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
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
	single := openTestStore(t, g, "", "single")
	shards := make([]*live.Store, n)
	for i := range shards {
		shards[i] = openTestStore(t, g, "", fmt.Sprintf("shard%d", i))
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

func localCoordinator(t *testing.T, shards []*live.Store, followers map[int][]Handle, maxLag int64) *Coordinator {
	t.Helper()
	cfg := Config{
		Name:          "test",
		MaxLagBytes:   maxLag,
		ProbeInterval: -1,
		Telemetry:     telemetry.NewRegistry(),
	}
	for i, s := range shards {
		b := Backends{Leader: &LocalHandle{Store: s, Label: fmt.Sprintf("s%d", i)}}
		b.Followers = followers[i]
		cfg.Shards = append(cfg.Shards, b)
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestScatterGatherBitIdentity(t *testing.T) {
	g := testGrid(t)
	single, shards := buildSharded(t, g, 3, 400, 11)
	c := localCoordinator(t, shards, nil, 0)

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

// FuzzCoordinatorSum: whatever the shard count (1–4), the backend of each
// shard — in-process, an HTTP node, or a wrapped leader whose read path is
// down in front of an in-process follower — the algorithm, the objects
// and the tiling, the coordinator's summed raw estimates are a single
// store's over the same objects, bit for bit. In-process shards are summed
// in place; remote and wrapped shards are merged from planes of their own,
// and a follower a wrapped leader failed over to is summed off the request
// goroutine into a plane of its own.
func FuzzCoordinatorSum(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), uint16(300), uint8(0), uint8(0), uint16(0))         // 128×64 tiles
	f.Add(int64(2), uint8(3), uint8(0b100100), uint16(250), uint8(6), uint8(1), uint16(33)) // in-process, HTTP, wrapped
	f.Add(int64(3), uint8(4), uint8(0b10011001), uint16(120), uint8(5), uint8(0x55), uint16(530))
	f.Add(int64(4), uint8(1), uint8(2), uint16(0), uint8(1), uint8(0xff), uint16(511))
	f.Fuzz(func(t *testing.T, seed int64, shards, topo uint8, objects uint16, algo, tiling uint8, origin uint16) {
		// Handles that embed Handle have its method set only: read as remote.
		for _, h := range []Handle{&flakyHandle{}, &HTTPHandle{}} {
			if _, ok := h.(InProcess); ok {
				t.Fatalf("%T takes the in-process path", h)
			}
		}
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
		ccfg := Config{ProbeInterval: -1, Telemetry: telemetry.NewRegistry()}
		var dead []*flakyHandle
		for si, seed := range part.RouteRects(rects) {
			s := open(seed)
			local := &LocalHandle{Store: s, Label: fmt.Sprint("s", si)}
			switch topo >> (2 * si) & 3 % 3 {
			case 0:
				ccfg.Shards = append(ccfg.Shards, Backends{Leader: local})
			case 1:
				ccfg.Shards = append(ccfg.Shards, Backends{Leader: &HTTPHandle{Base: nodeServer(t, local.Label, s).URL}})
			case 2:
				leader := &flakyHandle{Handle: &LocalHandle{Store: s, Label: local.Label + "-leader"}}
				dead = append(dead, leader)
				ccfg.Shards = append(ccfg.Shards, Backends{Leader: leader, Followers: []Handle{local}})
			}
		}
		c, err := NewCoordinator(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		// Down after the probe: the first read still prefers the leader.
		for _, h := range dead {
			h.down.Store(true)
		}

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
		estimatesEqual(t, fmt.Sprintf("inline %v %dx%d", region, cols, rows), got, want)

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
	single := openTestStore(t, g, "", "single")
	shards := []*live.Store{
		openTestStore(t, g, "", "s0"),
		openTestStore(t, g, "", "s1"),
	}
	c := localCoordinator(t, shards, nil, 0)

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
	c := localCoordinator(t, []*live.Store{openTestStore(t, g, "", "s0"), openTestStore(t, g, "", "s1")}, nil, 0)
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
		stores = append(stores, openTestStore(t, g, "", fmt.Sprintf("s%d", i)))
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
	front := NewServer(localCoordinator(t, stores, nil, 0), telemetry.NewRegistry())
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

// nodeServer serves a live store the way geobrowsed -live does: the
// geobrowse API with the shard-node endpoints mounted on it.
func nodeServer(t *testing.T, name string, s *live.Store) *httptest.Server {
	t.Helper()
	reg := telemetry.NewRegistry()
	srv := geobrowse.New(name, s, geobrowse.Options{Telemetry: reg})
	ServeNode(srv, s, reg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func TestHTTPHandleMatchesLocal(t *testing.T) {
	g := testGrid(t)
	store := openTestStore(t, g, "", "node")
	rng := rand.New(rand.NewSource(17))
	for k := 0; k < 150; k++ {
		store.Insert(randTestRect(rng))
	}
	store.Flush()

	ts := nodeServer(t, "node", store)
	hh := &HTTPHandle{Base: ts.URL}
	lh := &LocalHandle{Store: store}

	full := grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
	hGrid, err := hh.EstimateGrid(full, 8, 8)
	if err != nil {
		t.Fatalf("http EstimateGrid: %v", err)
	}
	lGrid, _ := lh.EstimateGrid(full, 8, 8)
	estimatesEqual(t, "http grid", hGrid, lGrid)

	spans := []grid.Span{{I1: 3, J1: 4, I2: 20, J2: 29}, {I1: 0, J1: 0, I2: 0, J2: 0}}
	hSpans, err := hh.EstimateSpans(spans)
	if err != nil {
		t.Fatalf("http EstimateSpans: %v", err)
	}
	lSpans, _ := lh.EstimateSpans(spans)
	estimatesEqual(t, "http spans", hSpans, lSpans)

	hInfo, err := hh.Info()
	if err != nil {
		t.Fatalf("http Info: %v", err)
	}
	lInfo, _ := lh.Info()
	if hInfo.Objects != lInfo.Objects || hInfo.Extent != lInfo.Extent ||
		hInfo.GridNX != lInfo.GridNX || hInfo.GridNY != lInfo.GridNY {
		t.Fatalf("http Info = %+v, local = %+v", hInfo, lInfo)
	}
	if got := gridFromInfo(hInfo); got.Extent() != g.Extent() {
		t.Fatalf("gridFromInfo extent %v, want %v", got.Extent(), g.Extent())
	}

	hSt, err := hh.Status()
	if err != nil {
		t.Fatalf("http Status: %v", err)
	}
	lSt, _ := lh.Status()
	if hSt.AppliedSeq != lSt.AppliedSeq || hSt.SnapshotSeq != lSt.SnapshotSeq {
		t.Fatalf("http Status seqs %d/%d, local %d/%d",
			hSt.AppliedSeq, hSt.SnapshotSeq, lSt.AppliedSeq, lSt.SnapshotSeq)
	}

	applied, rejected, _, err := hh.Apply(live.OpInsert, []geom.Rect{
		geom.NewRect(1, 1, 2, 2), geom.NewRect(900, 900, 901, 901),
	}, true)
	if err != nil {
		t.Fatalf("http Apply: %v", err)
	}
	if applied != 1 || rejected != 1 {
		t.Fatalf("http Apply applied=%d rejected=%d, want 1/1", applied, rejected)
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

	nodes := make([]*httptest.Server, len(shards))
	cfg := Config{Name: "world", ProbeInterval: -1, Telemetry: telemetry.NewRegistry()}
	for i, s := range shards {
		nodes[i] = nodeServer(t, fmt.Sprintf("shard%d", i), s)
		cfg.Shards = append(cfg.Shards, Backends{Leader: &HTTPHandle{Base: nodes[i].URL}})
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	coord := httptest.NewServer(NewServer(c, telemetry.NewRegistry()))
	t.Cleanup(coord.Close)
	ref := httptest.NewServer(geobrowse.New("world", single, geobrowse.Options{Telemetry: telemetry.NewRegistry()}))
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
	front := NewServer(localCoordinator(t, shards, nil, 0), telemetry.NewRegistry())
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

// flakyHandle wraps a Handle and fails every call while down.
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

func (f *flakyHandle) EstimateGrid(region grid.Span, cols, rows int) ([]core.Estimate, error) {
	if err := f.fail(); err != nil {
		return nil, err
	}
	return f.Handle.EstimateGrid(region, cols, rows)
}

func (f *flakyHandle) EstimateSpans(spans []grid.Span) ([]core.Estimate, error) {
	if err := f.fail(); err != nil {
		return nil, err
	}
	return f.Handle.EstimateSpans(spans)
}

func (f *flakyHandle) Status() (live.Status, error) {
	if err := f.fail(); err != nil {
		return live.Status{}, err
	}
	return f.Handle.Status()
}

func TestCoordinatorFailsOverToFollower(t *testing.T) {
	g := testGrid(t)
	dir := t.TempDir()
	leader := openTestStore(t, g, dir, "leader")
	rng := rand.New(rand.NewSource(53))
	for k := 0; k < 120; k++ {
		leader.Insert(randTestRect(rng))
	}
	leader.Flush()

	f, err := StartFollower(FollowerConfig{
		Source:         LocalSource{Store: leader},
		CheckpointPath: filepath.Join(dir, "follower.ckpt"),
		PollInterval:   time.Millisecond,
		RebuildEvery:   1,
		Telemetry:      telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("follower: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	waitCaughtUp(t, f, leader)

	leaderHandle := &flakyHandle{Handle: &LocalHandle{Store: leader, Label: "leader"}}
	c, err := NewCoordinator(Config{
		Shards: []Backends{{
			Leader:    leaderHandle,
			Followers: []Handle{&LocalHandle{Store: f.Store(), Label: "follower"}},
		}},
		MaxLagBytes:   0,
		ProbeInterval: -1,
		Telemetry:     telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	full := grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
	want, err := c.EstimateGrid(full, 8, 8)
	if err != nil {
		t.Fatalf("pre-failover read: %v", err)
	}

	// Kill the leader: reads must keep answering, served by the follower,
	// and stay bit-identical (the follower is caught up).
	leaderHandle.down.Store(true)
	c.Probe()
	for k := 0; k < 10; k++ {
		got, err := c.EstimateGrid(full, 8, 8)
		if err != nil {
			t.Fatalf("failover read %d: %v", k, err)
		}
		estimatesEqual(t, "failover read", got, want)
	}
	if !c.Healthy() {
		t.Fatal("coordinator unhealthy with an alive follower")
	}

	// Revive the leader; the probe brings it back into rotation.
	leaderHandle.down.Store(false)
	c.Probe()
	if _, err := c.EstimateGrid(full, 8, 8); err != nil {
		t.Fatalf("post-revival read: %v", err)
	}
}

func TestCandidatesLagGating(t *testing.T) {
	mk := func(role string, alive bool, appliedSeq, snapSeq int64) *backend {
		be := &backend{h: &LocalHandle{Label: role}, role: role}
		be.alive.Store(alive)
		be.appliedSeq.Store(appliedSeq)
		be.snapshotSeq.Store(snapSeq)
		return be
	}
	leader := mk("leader", true, 1000, 1000)
	fresh := mk("follower", true, 1000, 990) // lag 10
	stale := mk("follower", true, 500, 500)  // lag 500
	grp := &shardGroup{leader: leader, all: []*backend{leader, fresh, stale}}

	order := grp.candidates(50)
	if len(order) != 3 {
		t.Fatalf("candidates returned %d backends", len(order))
	}
	// The stale follower must sort after both eligible backends.
	if order[2] != stale {
		t.Fatalf("stale follower not last: %v", []*backend{order[0], order[1], order[2]})
	}

	// Zero lag bound admits only fully caught-up followers.
	order = grp.candidates(0)
	if order[1] == fresh && order[0] == fresh {
		t.Fatal("lagging follower eligible under a zero bound")
	}
	pos := map[*backend]int{}
	for i, be := range order {
		pos[be] = i
	}
	if pos[leader] > 0 {
		t.Fatalf("leader not first under zero bound: leader at %d", pos[leader])
	}

	// Leader down: the fresh follower keeps serving (availability wins).
	leader.alive.Store(false)
	order = grp.candidates(0)
	if order[0] != fresh && order[0] != stale {
		t.Fatal("no follower first with the leader down")
	}
	first := order[0]
	if first.role != "follower" || !first.alive.Load() {
		t.Fatal("dead or non-follower backend preferred with leader down")
	}
}

// second returns a call's error, dropping its result.
func second[T any](_ T, err error) error { return err }

// TestCoordinatorRejectsBadQueries: malformed queries must be refused at
// the coordinator without reading a shard — a client's 400 is not a
// backend failure and must not mark anyone dead.
func TestCoordinatorRejectsBadQueries(t *testing.T) {
	g := testGrid(t)
	_, stores := buildSharded(t, g, 2, 50, 1)
	c := localCoordinator(t, stores, nil, 0)
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
	// Nobody was read, so every backend is still alive.
	for _, grp := range c.shards {
		for _, b := range grp.all {
			if !b.alive.Load() {
				t.Fatalf("backend %s marked dead by a bad query", b.h.Name())
			}
		}
	}
}

// TestCoordinatorFrontHealthz: the coordinator front reports health as a
// node does — the node's Health body, at the sum of the leader generations
// the prober last saw — and turns 503 while a shard has no alive backend
// or once it drains. /healthz reads no shard: a leader that died since the
// last probe still reads healthy until the prober sees it.
func TestCoordinatorFrontHealthz(t *testing.T) {
	g := testGrid(t)
	_, stores := buildSharded(t, g, 2, 100, 61)
	east := &flakyHandle{Handle: &LocalHandle{Store: stores[1], Label: "s1"}}
	c, err := NewCoordinator(Config{Name: "test", ProbeInterval: -1, Telemetry: telemetry.NewRegistry(), Shards: []Backends{
		{Leader: &LocalHandle{Store: stores[0], Label: "s0"}},
		{Leader: east},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	front := Front(c, geobrowse.Options{Telemetry: telemetry.NewRegistry()})
	healthz := func(wantCode int, wantStatus string) {
		t.Helper()
		rec := httptest.NewRecorder()
		front.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var h geobrowse.Health
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatalf("healthz body %q: %v", rec.Body.String(), err)
		}
		want := geobrowse.Health{Status: wantStatus, Dataset: "test", Tenants: 1,
			Generation: stores[0].Generation() + stores[1].Generation()}
		if rec.Code != wantCode || h != want {
			t.Fatalf("healthz: %d %+v, want %d %+v", rec.Code, h, wantCode, want)
		}
	}
	healthz(http.StatusOK, "ok")

	east.down.Store(true)
	healthz(http.StatusOK, "ok") // no shard read, no probe yet
	c.Probe()
	healthz(http.StatusServiceUnavailable, "unhealthy")
	east.down.Store(false)
	c.Probe()
	healthz(http.StatusOK, "ok")

	front.StartDrain()
	healthz(http.StatusServiceUnavailable, "draining")
}
