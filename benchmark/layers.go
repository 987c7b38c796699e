package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
	"spatialhist/internal/prefixsum"
	"spatialhist/internal/query"
	"spatialhist/internal/shard"
	"spatialhist/internal/telemetry"
)

// The traced run measures single layers from outside: the child over HTTP
// at one connection with client-side spans and its own counters scraped
// before and after, then the same requests replayed in this process down
// the ladder geobrowse.handler ⊃ core.EstimateGrid ⊃ euler.GridQuerySums ⊃
// prefixsum lookups (plus geobrowse.encode, and geobrowse.ingest ⊃
// live.Insert / live.Flush for writes), one span per rung. End-to-end
// numbers never come from here.

// scrape reads the child's /metrics into name{labels} → value.
func (s *session) scrape() map[string]float64 {
	out := map[string]float64{}
	status, body, _, _, err := s.conns[0].do(&request{method: "GET", path: "/metrics"})
	if err != nil || status != http.StatusOK {
		return out
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out
}

// family sums every series of one metric family, optionally only those
// whose label set contains want.
func family(m map[string]float64, name, want string) float64 {
	var sum float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			if want == "" || strings.Contains(k, want) {
				sum += v
			}
		}
	}
	return sum
}

// traced is the HTTP half of a traced run. Three windows on the same
// streams: the timed run's own load shape (generator lateness, client CPU,
// counters under real concurrency), one connection untraced, one connection
// traced — the last two give the tracing overhead.
func (s *session) traced(res *runResult) (reads, writes *tally) {
	e := s.e
	pid := s.c.cmd.Process.Pid
	before := s.scrape()

	own := cpuSeconds(os.Getpid())
	r0, w0, wall0 := s.load(e.dur(0.2), len(s.readers), true, nil)
	clientCPU := cpuSeconds(os.Getpid()) - own
	r0.verifyPending(s.v)

	r1, w1, _ := s.load(e.dur(0.15), 1, false, nil)
	r1.verifyPending(s.v)

	cpu := cpuSeconds(pid)
	r2, w2, wall2 := s.load(e.dur(0.25), 1, false, e.spans)
	cpu = cpuSeconds(pid) - cpu
	after := s.scrape()
	delta := func(name, want string) float64 { return family(after, name, want) - family(before, name, want) }

	if r0.late.n() > 0 {
		res.set("client.late_p95_ms", r0.late.ms(95))
	} else if w0.late.n() > 0 {
		res.set("client.late_p95_ms", w0.late.ms(95))
	}
	res.set("client.cpu_share", clientCPU/(wall0.Seconds()*float64(runtime.NumCPU())))
	if u, t := r1.lat[kindBrowse].ms(50), r2.lat[kindBrowse].ms(50); u > 0 {
		res.set("client.trace_overhead_pct", (t-u)/u*100)
	}
	res.set("geobrowsed.browse_p50_ms", r2.lat[kindBrowse].ms(50))
	res.set("geobrowsed.query_p50_ms", r2.lat[kindQuery].ms(50))
	res.set("geobrowsed.drill_p50_ms", r2.lat[kindDrill].ms(50))
	if done := r2.attempted + w2.attempted; done > 0 {
		res.set("geobrowsed.cpu_s_per_kreq", cpu/float64(done)*1000)
	}
	res.set("geobrowsed.body_mb_per_s", float64(r2.bodyBytes)/1e6/wall2.Seconds())
	res.info("http_browse_p50_us", r1.lat[kindBrowse].us(50), "us")

	if hits, misses := delta("geobrowse_cache_hits_total", ""), delta("geobrowse_cache_misses_total", ""); hits+misses > 0 {
		res.set("geobrowse.cache_hit_ratio", hits/(hits+misses))
	}
	res.set("geobrowse.shed", delta("geobrowse_admission_shed_total", ""))
	if routed := delta("core_pyramid_level_hits_total", ""); routed > 0 {
		res.set("core.coarse_level_share", 1-delta("core_pyramid_level_hits_total", `level="0"`)/routed)
	}
	res.set("core.sweeps", delta("core_batch_sweeps_total", ""))

	reads, writes = &tally{}, &tally{}
	for _, t := range []*tally{r0, r1, r2} {
		reads.merge(t)
	}
	for _, t := range []*tally{w0, w1, w2} {
		writes.merge(t)
	}
	if s.feed != nil {
		res.set("geobrowsed.ingest_ack_p50_ms", writes.lat[kindIngest].ms(50))
		res.set("geobrowsed.publish_ack_p50_ms", writes.publish.ms(50))
		res.set("live.rebuilds_incremental", delta("live_rebuild_incremental_total", ""))
		res.set("live.rebuilds_full", delta("live_rebuild_full_total", ""))
		res.set("live.generations", delta("live_generation", ""))
	}
	return reads, writes
}

// buildZoom stacks the pyramid a static geobrowsed serves from over an
// M-EulerApprox estimator, as the child's own start-up does, and returns
// the stack with the lattice bytes it keeps resident.
func buildZoom(m *core.MEuler, levels int) (core.Estimator, int, error) {
	hists := m.Histograms()
	pyrs := make([]*euler.Pyramid, len(hists))
	bytes := 0
	for i, h := range hists {
		pyrs[i] = euler.NewPyramid(h, euler.PyramidOpts{MaxLevels: levels})
		for k := 0; k < pyrs[i].Levels(); k++ {
			bytes += pyrs[i].Level(k).LatticeBytes()
		}
	}
	if levels <= 0 || pyrs[0].Levels() < 2 {
		return m, bytes, nil
	}
	z, err := core.ZoomMEuler(m.Areas(), pyrs)
	return z, bytes, err
}

// sweepHistograms returns the histograms one EstimateGrid call sweeps: the
// groups of the level the request routes to, with the region in that
// level's coordinates.
func sweepHistograms(est core.Estimator, region grid.Span, cols, rows int) ([]*euler.Histogram, grid.Span) {
	if z, ok := est.(*core.Zoom); ok {
		k, lregion := z.RouteGrid(region, cols, rows)
		est, region = z.Level(k), lregion
	}
	if m, ok := est.(*core.MEuler); ok {
		return m.Histograms(), region
	}
	return nil, region
}

// latticeLookups makes the corner reads of one sweep as individual lookups:
// one 2-d range sum per tile and histogram.
func latticeLookups(hists []*euler.Histogram, region grid.Span, cols, rows int) {
	tw, th := region.Width()/cols, region.Height()/rows
	for _, h := range hists {
		for row := 0; row < rows; row++ {
			for col := 0; col < cols; col++ {
				u, v := 2*(region.I1+col*tw), 2*(region.J1+row*th)
				h.LatticeSum(u, v, u+2*tw-2, v+2*th-2)
			}
		}
	}
}

// serve answers one generated request on an in-process handler.
func serve(h http.Handler, r *request) *httptest.ResponseRecorder {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req := httptest.NewRequest(r.method, r.path, body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// ladderMaxRequests bounds the in-process replay; the time budget usually
// ends it first on the large-map workloads.
const ladderMaxRequests = 2000

// ladderGarbage is how many answer bytes the replay builds between
// collections; the garbage behind them is roughly ten times that.
const ladderGarbage = 4 << 20

// ladder is the in-process half of a traced HTTP workload.
func (e *env) ladder(res *runResult, p *httpPlan, base *core.MEuler, rects []geom.Rect, g *grid.Grid) error {
	// A registry of their own: several in-process servers would otherwise
	// register the same series twice in telemetry.Default().
	reg := telemetry.NewRegistry()
	sp := e.spans

	// Set-up layers, on this workload's dataset and grid.
	start := time.Now()
	h := euler.FromRectsParallel(g, rects, 0)
	res.set("euler.build_ms", time.Since(start).Seconds()*1e3)
	start = time.Now()
	pyr := euler.NewPyramid(h, euler.PyramidOpts{MaxLevels: p.pyramid})
	res.set("euler.pyramid_build_ms", time.Since(start).Seconds()*1e3)
	zoom, latticeBytes, err := buildZoom(base, p.pyramid)
	if err != nil {
		return err
	}
	res.set("euler.lattice_bytes", float64(latticeBytes))

	// The handler the child serves with, and one that never caches.
	opts := geobrowse.Options{Telemetry: reg}
	if p.inflight > 0 {
		opts.Limiter = geobrowse.NewLimiter(geobrowse.AdmissionConfig{MaxInflight: p.inflight, Telemetry: reg})
	}
	var natural http.Handler
	var cached *geobrowse.Server
	var coord *shard.Coordinator
	var store *live.Store
	walPath := filepath.Join(e.work, "ladder.wal")
	liveCfg := live.Config{Grid: g, Algo: live.AlgoMEuler, Areas: accuracyAreas, Seed: rects,
		PyramidLevels: p.pyramid, Telemetry: reg}
	switch {
	case p.shards > 0:
		part, err := shard.NewPartition(g, p.shards)
		if err != nil {
			return err
		}
		start = time.Now()
		routed := part.RouteRects(rects)
		res.set("shard.route_ns_per_rect", float64(time.Since(start))/float64(len(rects)))
		groups := make([]shard.Backends, p.shards)
		for i := range groups {
			cfg := liveCfg
			cfg.Seed = routed[i]
			st, err := live.Open(cfg)
			if err != nil {
				return err
			}
			defer st.Close()
			groups[i] = shard.Backends{Leader: &shard.LocalHandle{Store: st}}
		}
		coord, err = shard.NewCoordinator(shard.Config{Name: p.name, Shards: groups, ProbeInterval: -1, Telemetry: reg})
		if err != nil {
			return err
		}
		defer coord.Close()
		natural = shard.NewServer(coord, reg)
	case p.live:
		liveCfg.WALPath = walPath
		if store, err = live.Open(liveCfg); err != nil {
			return err
		}
		cached = geobrowse.NewLiveServer(p.name, store, opts)
		natural = cached
	default:
		cached = geobrowse.NewServerOpts(p.name, zoom, opts)
		natural = cached
	}
	uncached := geobrowse.NewServerOpts(p.name, zoom, geobrowse.Options{CacheSize: -1, Telemetry: reg})

	// Replay the workload's own read stream down the ladder.
	var hit, miss, grid1, gridBase, sweep, packed, encode, perTileBytes, coordGrid, fanout, drill latencies
	var handlerNatural latencies
	gen := p.readers(e.seed, g)[0]
	deadline := time.Now().Add(e.dur(0.3))
	garbage := 0
	for k := 0; k < ladderMaxRequests && time.Now().Before(deadline); k++ {
		r := gen.next()
		id := int64(k)
		// Collect between requests once a few MB of answers have been
		// built. This process's heap is large and still growing, so without
		// it every buffer of the replay would come from memory never
		// touched before — far slower than the recycled memory a server
		// that has been up for a minute works in.
		if garbage > ladderGarbage {
			runtime.GC()
			garbage = 0
		}
		var missesBefore int64
		if cached != nil {
			_, missesBefore = cached.CacheStats()
		}
		// One top rung per request kind, so that a median is never taken
		// over a mix of tile maps and single estimates.
		handlerSpan := "geobrowse.handler"
		if r.kind != kindBrowse {
			handlerSpan += "." + kindNames[r.kind]
		}
		var rec *httptest.ResponseRecorder
		d := sp.timed(handlerSpan, id, "", func() { rec = serve(natural, &r) })
		res.Attempted++
		if rec.Code != http.StatusOK {
			res.Failed++
			res.FirstError = fmt.Sprintf("in-process %s: status %d: %s", r.path, rec.Code, strings.TrimSpace(rec.Body.String()))
			continue
		}
		switch r.kind {
		case kindQuery:
			sp.timed("core.Estimate", id, handlerSpan, func() { zoom.Estimate(r.span) })
			continue
		case kindDrill:
			drill.add(sp.timed("core.Drilldown", id, handlerSpan, func() {
				core.Drilldown(zoom, r.span, core.DrillOptions{Relation: geom.Rel2Overlap,
					HotThreshold: int64(r.hot), MaxDepth: r.depth, MaxTiles: geobrowse.DrillMaxTiles})
			}))
			continue
		}
		handlerNatural.add(d)
		garbage += rec.Body.Len()
		tiles := float64(r.tiles())
		if cached != nil {
			if _, misses := cached.CacheStats(); misses == missesBefore {
				hit.add(d)
				continue
			}
		}

		// A miss: the same input once more through every rung below. The
		// coordinator keeps no cache, so there its handler span is the top.
		top, gridParent := "geobrowse.handler_miss", "geobrowse.handler_miss"
		var dCoord time.Duration
		if coord != nil {
			top, gridParent = "geobrowse.handler", "shard.EstimateGrid"
			miss.add(d)
			dCoord = sp.timed("shard.EstimateGrid", id, top, func() { coord.EstimateGrid(r.span, r.cols, r.rows) })
			coordGrid.add(dCoord)
		} else {
			miss.add(sp.timed(top, id, "", func() { serve(uncached, &r) }))
		}
		var ests []core.Estimate
		dGrid := sp.timed("core.EstimateGrid", id, gridParent, func() { ests, _ = core.EstimateGrid(zoom, r.span, r.cols, r.rows) })
		grid1.ns = append(grid1.ns, float64(dGrid)/tiles)
		if coord != nil {
			fanout.ns = append(fanout.ns, float64(dCoord)/float64(dGrid))
		}
		hists, lregion := sweepHistograms(zoom, r.span, r.cols, r.rows)
		dSweep := sp.timed("euler.GridQuerySums", id, "core.EstimateGrid", func() {
			for _, h := range hists {
				h.GridQuerySums(lregion, r.cols, r.rows)
			}
		})
		sweep.ns = append(sweep.ns, float64(dSweep)/tiles)
		sp.timed("prefixsum.lookups", id, "euler.GridQuerySums", func() { latticeLookups(hists, lregion, r.cols, r.rows) })
		var body []byte
		dEnc := sp.timed("geobrowse.encode", id, top, func() {
			body, _ = json.Marshal(geobrowse.BrowseResponse{Cols: r.cols, Rows: r.rows,
				Tiles: geobrowse.TileEstimates(g, r.span, r.cols, r.rows, ests)})
		})
		encode.ns = append(encode.ns, float64(dEnc)/tiles)
		perTileBytes.ns = append(perTileBytes.ns, float64(len(body))/tiles)

		// Off the ladder: the same map without the pyramid, and from the
		// packed tier.
		if k%8 == 0 {
			t0 := time.Now()
			core.EstimateGrid(base, r.span, r.cols, r.rows)
			gridBase.ns = append(gridBase.ns, float64(time.Since(t0))/tiles)
			for _, h := range hists {
				if ph, ok := h.Pack(); ok {
					t0 = time.Now()
					ph.GridQuerySums(lregion, r.cols, r.rows)
					packed.ns = append(packed.ns, float64(time.Since(t0))/tiles*float64(len(hists)))
				}
			}
		}
	}
	res.set("geobrowse.handler_hit_us", hit.p50()/1e3)
	res.set("geobrowse.handler_miss_us", miss.p50()/1e3)
	res.set("core.estimategrid_ns_per_tile.zoom", grid1.p50())
	res.set("core.estimategrid_ns_per_tile.meuler", gridBase.p50())
	res.set("euler.sweep_ns_per_tile", sweep.p50())
	res.set("euler.sweep_packed_ns_per_tile", packed.p50())
	res.set("geobrowse.encode_ns_per_tile", encode.p50())
	res.set("geobrowse.bytes_per_tile", perTileBytes.p50())
	res.set("core.drill_ms", drill.p50()/1e6)
	// Self time of the handler that computed: what is left of it after the
	// rungs below — parsing, routing, the cache, admission, writing.
	computing := "geobrowse.handler_miss"
	if coord != nil {
		computing = "geobrowse.handler"
	}
	for _, rg := range sp.rungs() {
		if rg.Name == computing {
			res.set("geobrowse.self_us", rg.SelfUS)
		}
	}
	if coord != nil {
		res.set("shard.estimategrid_us", coordGrid.p50()/1e3)
		// Per request: the coordinator's map over the same map swept once
		// from a single store holding every object.
		res.set("shard.fanout_ratio", fanout.p50())
	}
	if http := res.Info["http_browse_p50_us"].Value; http > 0 && handlerNatural.n() > 0 {
		res.set("geobrowsed.wire_us", http-handlerNatural.us(50))
	}

	e.measureEstimators(res, map[string]core.Estimator{"meuler": base, "zoom": zoom}, randomSpans(e.seed, g, 512))
	if store != nil {
		if err := e.writeLadder(res, store, cached, liveCfg, g); err != nil {
			return err
		}
	}
	e.measureBuildLayers(res, h, pyr, p.pyramid, g)
	return nil
}

// randomSpans draws n query spans of up to an eighth of each axis.
func randomSpans(seed int64, g *grid.Grid, n int) []grid.Span {
	rng := rand.New(rand.NewSource(seed ^ 0x51A5))
	out := make([]grid.Span, n)
	for k := range out {
		w, h := 1+rng.Intn(g.NX()/8), 1+rng.Intn(g.NY()/8)
		i1, j1 := rng.Intn(g.NX()-w+1), rng.Intn(g.NY()-h+1)
		out[k] = grid.Span{I1: i1, J1: j1, I2: i1 + w - 1, J2: j1 + h - 1}
	}
	return out
}

// perCall times fn over rounds of n calls and returns the median time of
// one call in nanoseconds; one clock pair per round, because a call can be
// shorter than reading the clock.
func perCall(rounds, n int, fn func(k int)) float64 {
	per := make([]float64, rounds)
	for r := range per {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			fn(k)
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// measureEstimators times Estimator.Estimate per algorithm.
func (e *env) measureEstimators(res *runResult, ests map[string]core.Estimator, spans []grid.Span) {
	var sink core.Estimate
	for name, est := range ests {
		res.set("core.estimate_ns."+name, perCall(32, len(spans), func(k int) { sink = est.Estimate(spans[k]) }))
	}
	_ = sink
}

// measureBuildLayers times the construction and repair layers on a lattice
// of this workload's size: what set-up and a publish are made of.
func (e *env) measureBuildLayers(res *runResult, h *euler.Histogram, pyr *euler.Pyramid, levels int, g *grid.Grid) {
	lx, ly := h.Buckets()
	rng := rand.New(rand.NewSource(e.seed ^ 0xB11D))
	src := make([]int64, lx*ly)
	for i := range src {
		src[i] = int64(rng.Intn(7) - 3)
	}
	t0 := time.Now()
	ps := prefixsum.NewSum2D(src, lx, ly)
	res.set("prefixsum.build_ns_per_cell", float64(time.Since(t0))/float64(lx*ly))

	type box struct{ u1, v1, u2, v2 int }
	boxes := make([]box, 4096)
	for k := range boxes {
		u1, v1 := rng.Intn(lx), rng.Intn(ly)
		boxes[k] = box{u1, v1, u1 + rng.Intn(lx-u1), v1 + rng.Intn(ly-v1)}
	}
	var sink int64
	res.set("prefixsum.lookup_ns", perCall(16, len(boxes), func(k int) {
		b := boxes[k]
		sink += ps.RangeSum(b.u1, b.v1, b.u2, b.v2)
	}))

	// A dirty box of a tenth of each axis: 1 % of the lattice.
	bw, bh := max(lx/10, 1), max(ly/10, 1)
	u1, v1 := (lx-bw)/2, (ly-bh)/2
	delta := make([]int64, bw*bh)
	res.set("prefixsum.repair_ns_per_cell", perCall(8, 1, func(int) {
		for i := range delta {
			delta[i] = int64(i%3 - 1)
		}
		ps.AddRegionDelta(u1, v1, u1+bw-1, v1+bh-1, delta)
	})/float64(bw*bh))

	spans := randomSpans(e.seed, g, 4096)
	res.set("euler.inside_sum_ns", perCall(16, len(spans), func(k int) { sink += h.InsideSum(spans[k]) }))
	_ = sink

	// One publish after mutations confined to 1 % of the space.
	b := euler.BuilderFromHistogram(h)
	cw, ch := g.CellWidth(), g.CellHeight()
	ext := g.Extent()
	i0, j0 := g.NX()*45/100, g.NY()*45/100
	for k := 0; k < 1000; k++ {
		x := ext.XMin + (float64(i0+rng.Intn(max(g.NX()/10, 1)))+0.25)*cw
		y := ext.YMin + (float64(j0+rng.Intn(max(g.NY()/10, 1)))+0.25)*ch
		b.Add(geom.NewRect(x, y, x+0.5*cw, y+0.5*ch))
	}
	t0 = time.Now()
	h2, stats := b.BuildFrom(h, euler.BuildFromOpts{})
	res.set("euler.buildfrom_ms", time.Since(t0).Seconds()*1e3)
	if levels > 0 {
		t0 = time.Now()
		euler.PyramidFrom(h2, euler.PyramidFromOpts{Opts: euler.PyramidOpts{MaxLevels: levels}, Donor: pyr, Stale: stats.Dirty})
		res.set("euler.pyramid_repair_ms", time.Since(t0).Seconds()*1e3)
	}
}

// writeLadder replays the feed down the write path: the ingest handler of
// the store the child configuration describes, and beside it the same
// mutations applied directly to a twin store, so that live.Insert and
// live.Flush are timed on the same input without applying anything twice.
func (e *env) writeLadder(res *runResult, store *live.Store, handler http.Handler, cfg live.Config, g *grid.Grid) error {
	sp := e.spans
	cfg.WALPath = filepath.Join(e.work, "ladder-twin.wal")
	twin, err := live.Open(cfg)
	if err != nil {
		return err
	}
	walBefore := twin.Status().WALBytes
	feed := newIngestGen(e.seed, g)
	var perMut, insert, flush latencies
	muts := 0
	deadline := time.Now().Add(e.dur(0.08))
	for k := 0; time.Now().Before(deadline) || k%ingestFlushEvery != 0; k++ {
		r := feed.next()
		id := int64(1)<<40 | int64(k)
		var rec *httptest.ResponseRecorder
		d := sp.timed("geobrowse.ingest", id, "", func() { rec = serve(handler, &r) })
		res.Attempted++
		if rec.Code != http.StatusOK {
			res.Failed++
			res.FirstError = fmt.Sprintf("in-process %s: status %d: %s", r.path, rec.Code, strings.TrimSpace(rec.Body.String()))
			continue
		}
		op := twin.Insert
		if r.kind == kindDelete {
			op = twin.Delete
		}
		dIns := sp.timed("live.Insert", id, "geobrowse.ingest", func() {
			for _, q := range r.rects {
				op(q)
			}
		})
		insert.ns = append(insert.ns, float64(dIns)/float64(len(r.rects)))
		muts += len(r.rects)
		if r.flush {
			flush.add(sp.timed("live.Flush", id, "geobrowse.ingest", func() { twin.Flush() }))
		} else {
			perMut.ns = append(perMut.ns, float64(d)/float64(len(r.rects)))
		}
	}
	res.set("geobrowse.ingest_handler_us_per_mut", perMut.p50()/1e3)
	res.set("live.insert_ns", insert.p50())
	res.set("live.flush_ms", flush.p50()/1e6)
	res.set("live.wal_bytes_per_mut", float64(twin.Status().WALBytes-walBefore)/float64(muts))
	res.set("live.pin_ns", perCall(16, 4096, func(int) {
		_, _, release := twin.AcquireEstimator()
		release()
	}))
	if err := twin.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	reopened, err := live.Open(cfg)
	if err != nil {
		return fmt.Errorf("reopening the twin store on its WAL: %w", err)
	}
	// Seed insertion and the first publish are part of a restart, so they
	// are part of this rate, as they are part of recover_s.
	res.set("live.replay_muts_per_s", float64(muts)/time.Since(t0).Seconds())
	if got := reopened.Status().Mutations; got != int64(muts) {
		res.Failed++
		res.FirstError = fmt.Sprintf("twin store replayed %d mutations from its WAL, want %d", got, muts)
	}
	res.Attempted++
	if err := reopened.Close(); err != nil {
		return err
	}
	return store.Close()
}

// libraryLadder is the traced run of the library workload: no HTTP, so the
// ladder starts at the façade.
func (e *env) libraryLadder(res *runResult, rects []geom.Rect, g *grid.Grid, sets []*query.Set) error {
	sp := e.spans
	start := time.Now()
	h := euler.FromRectsParallel(g, rects, 0)
	res.set("euler.build_ms", time.Since(start).Seconds()*1e3)
	m, err := core.NewMEuler(g, accuracyAreas, rects)
	if err != nil {
		return err
	}
	ests := map[string]core.Estimator{"seuler": core.NewSEuler(h), "euler": core.NewEuler(h), "meuler": m}
	latticeBytes := 2 * h.LatticeBytes()
	for _, mh := range m.Histograms() {
		latticeBytes += mh.LatticeBytes()
	}
	res.set("euler.lattice_bytes", float64(latticeBytes))

	var grid1, sweep latencies
	region := fullSpan(g)
	deadline := time.Now().Add(e.dur(0.4))
	for k := 0; time.Now().Before(deadline); k++ {
		bm := browseMaps[k%len(browseMaps)]
		cols, rows, id := bm[0], bm[1], int64(k)
		tiles := float64(cols * rows)
		d := sp.timed("core.EstimateGrid", id, "", func() { core.EstimateGrid(m, region, cols, rows) })
		grid1.ns = append(grid1.ns, float64(d)/tiles)
		hists, lregion := sweepHistograms(m, region, cols, rows)
		d = sp.timed("euler.GridQuerySums", id, "core.EstimateGrid", func() {
			for _, h := range hists {
				h.GridQuerySums(lregion, cols, rows)
			}
		})
		sweep.ns = append(sweep.ns, float64(d)/tiles)
		sp.timed("prefixsum.lookups", id, "euler.GridQuerySums", func() { latticeLookups(hists, lregion, cols, rows) })
		res.Attempted++
	}
	res.set("core.estimategrid_ns_per_tile.meuler", grid1.p50())
	res.set("euler.sweep_ns_per_tile", sweep.p50())
	var tiles []grid.Span
	for _, qs := range sets {
		tiles = append(tiles, qs.Tiles...)
	}
	e.measureEstimators(res, ests, tiles)
	e.measureBuildLayers(res, h, nil, 0, g)
	return nil
}
