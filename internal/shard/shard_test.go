package shard

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
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

	applied, rejected, _, err := c.Ingest(live.OpInsert, rects, true)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if applied != wantApplied || rejected != wantRejected {
		t.Fatalf("Ingest applied=%d rejected=%d, single store applied=%d rejected=%d",
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

// nodeServer mounts a live store the way geobrowsed does in shard-node
// mode: the geobrowse API plus the shard-node endpoints on one mux.
func nodeServer(t *testing.T, name string, s *live.Store) *httptest.Server {
	t.Helper()
	reg := telemetry.NewRegistry()
	mux := http.NewServeMux()
	mux.Handle("/api/shard/", NodeHandler(s, reg))
	mux.Handle("/api/replica/", NodeHandler(s, reg))
	mux.Handle("/", geobrowse.NewLiveServer(name, s, geobrowse.Options{Telemetry: reg}))
	ts := httptest.NewServer(mux)
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

	applied, rejected, _, err := hh.Mutate(live.OpInsert, []geom.Rect{
		geom.NewRect(1, 1, 2, 2), geom.NewRect(900, 900, 901, 901),
	}, true)
	if err != nil {
		t.Fatalf("http Mutate: %v", err)
	}
	if applied != 1 || rejected != 1 {
		t.Fatalf("http Mutate applied=%d rejected=%d, want 1/1", applied, rejected)
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
	ref := httptest.NewServer(geobrowse.NewLiveServer("world", single, geobrowse.Options{Telemetry: telemetry.NewRegistry()}))
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

// TestCoordinatorRejectsBadQueries: malformed queries must be refused at
// the coordinator without scattering — a client's 400 is not a backend
// failure and must not mark anyone dead.
func TestCoordinatorRejectsBadQueries(t *testing.T) {
	g := testGrid(t)
	_, stores := buildSharded(t, g, 2, 50, 1)
	c := localCoordinator(t, stores, nil, 0)
	if _, err := c.EstimateGrid(grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}, 7, 1); err == nil {
		t.Fatal("non-dividing tiling accepted")
	}
	if _, err := c.EstimateGrid(grid.Span{I1: 0, J1: 0, I2: g.NX(), J2: 0}, 1, 1); err == nil {
		t.Fatal("out-of-grid span accepted")
	}
	if _, err := c.EstimateSpans([]grid.Span{{I1: -1, J1: 0, I2: 0, J2: 0}}); err == nil {
		t.Fatal("negative span accepted")
	}
	// Nobody was scattered to, so every backend is still alive.
	for _, grp := range c.shards {
		for _, b := range grp.all {
			if !b.alive.Load() {
				t.Fatalf("backend %s marked dead by a bad query", b.h.Name())
			}
		}
	}
}
