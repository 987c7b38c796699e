package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"spatialhist/internal/core"
	"spatialhist/internal/dataset"
	"spatialhist/internal/exact"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/metrics"
	"spatialhist/internal/query"
)

// env is what every workload run shares.
type env struct {
	root    string // repository root
	work    string // this run's scratch directory, removed on exit
	bin     string // geobrowsed, built from source
	seed    int64
	seconds float64
	trace   int
	size    size
	corrupt bool // test hook: expect wrong answers
	log     io.Writer
	spans   *spanLog // traced runs only
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

func (e *env) dur(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// accuracyMaps are the full-space tile maps (cols × rows) whose contains
// counts are compared with the exact answer: Q10, Q5 and Q2 in the paper's
// 360×180 terms. All three divide every grid the workloads use.
var accuracyMaps = [][2]int{{36, 18}, {72, 36}, {180, 90}}

// avgRelError is the paper's accuracy metric (§6.1.3) for the contains
// relation, pooled over full-space tile maps: estimate(cols, rows) returns
// the contains estimates of one map, row-major.
func avgRelError(g *grid.Grid, spans []grid.Span, maps [][2]int, estimate func(cols, rows int) ([]int64, error)) (float64, error) {
	var want, got []int64
	for _, m := range maps {
		qs, err := query.Browsing(fullSpan(g), m[0], m[1])
		if err != nil {
			return 0, err
		}
		est, err := estimate(m[0], m[1])
		if err != nil {
			return 0, err
		}
		if len(est) != qs.Len() {
			return 0, fmt.Errorf("accuracy map %dx%d answered %d tiles", m[0], m[1], len(est))
		}
		for _, c := range exact.EvaluateSet(spans, qs) {
			want = append(want, c.Contains)
		}
		got = append(got, est...)
	}
	return metrics.AvgRelativeError(want, got), nil
}

func fullSpan(g *grid.Grid) grid.Span {
	return grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
}

// httpPlan describes one workload that drives a geobrowsed child.
type httpPlan struct {
	name     string
	objects  int
	nx, ny   int
	pyramid  int // -pyramid-levels
	inflight int // -max-inflight (0: no admission control)
	live     bool
	shards   int
	// readers builds the read connections' request streams; rate > 0 makes
	// them an open loop at that total arrival rate.
	readers func(seed int64, g *grid.Grid) []generator
	rate    float64
	// feed adds a write connection posting mutation batches at ingestRate.
	feed bool
}

func (p *httpPlan) args(data, wal string) []string {
	a := []string{"-file", data, "-gw", strconv.Itoa(p.nx), "-gh", strconv.Itoa(p.ny),
		"-algo", "meuler", "-pyramid-levels", strconv.Itoa(p.pyramid)}
	if p.inflight > 0 {
		a = append(a, "-max-inflight", strconv.Itoa(p.inflight))
	}
	if p.live {
		a = append(a, "-live")
	}
	if p.shards > 0 {
		a = append(a, "-shards", strconv.Itoa(p.shards))
	}
	if wal != "" {
		a = append(a, "-wal", wal)
	}
	return a
}

func runSessionMix(e *env) (*runResult, error) {
	return runHTTP(e, &httpPlan{
		name: "session-mix", objects: e.size.objects, nx: 360, ny: 180, pyramid: 4, inflight: 32,
		rate: sessionRate,
		readers: func(seed int64, g *grid.Grid) []generator {
			return []generator{newSessionGen(seed, 0, g), newSessionGen(seed, 1, g)}
		},
	})
}

func runColdMaps(e *env) (*runResult, error) {
	s := e.size
	return runHTTP(e, &httpPlan{
		name: "cold-maps", objects: s.bigObjects, nx: s.bigNX, ny: s.bigNX / 2, pyramid: 5,
		readers: func(seed int64, g *grid.Grid) []generator {
			return []generator{newRegionGen(seed, 0, g, s.coldMin, s.coldMax), newRegionGen(seed, 1, g, s.coldMin, s.coldMax)}
		},
	})
}

func runIngestBrowse(e *env) (*runResult, error) {
	return runHTTP(e, &httpPlan{
		name: "ingest-browse", objects: e.size.objects, nx: 360, ny: 180, pyramid: 4, live: true, feed: true,
		readers: func(seed int64, g *grid.Grid) []generator {
			return []generator{newSessionGen(seed, 0, g)}
		},
	})
}

func runShardFanout(e *env) (*runResult, error) {
	s := e.size
	return runHTTP(e, &httpPlan{
		name: "shard-fanout", objects: s.objects, nx: 360, ny: 180, pyramid: 4, live: true, shards: 2,
		readers: func(seed int64, g *grid.Grid) []generator {
			return []generator{newRegionGen(seed, 0, g, s.fanMin, s.fanMax), newRegionGen(seed, 1, g, s.fanMin, s.fanMax)}
		},
	})
}

// session is one running child with the connections and streams of a plan.
type session struct {
	e       *env
	p       *httpPlan
	c       *child
	g       *grid.Grid
	v       *verifier
	readers []generator
	conns   []*conn
	feed    *ingestGen
	feedCon *conn
	// Mutations the child has acknowledged as applied, over every window.
	inserted, deleted int64
}

func (s *session) close() {
	for _, c := range s.conns {
		c.close()
	}
	if s.feedCon != nil {
		s.feedCon.close()
	}
}

// load drives the plan's streams for dur. conns limits the read connections
// (the traced replay uses one); spans turns client tracing on. It returns
// the readers' tally, the feed's, and the wall time the window took.
func (s *session) load(dur time.Duration, conns int, open bool, spans *spanLog) (reads, writes *tally, wall time.Duration) {
	conns = min(conns, len(s.readers))
	tallies := make([]*tally, conns+1)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < conns; i++ {
		o := driveOpts{id: i, conn: s.conns[i], gen: s.readers[i], dur: dur, v: s.v, spans: spans}
		if open && s.p.rate > 0 {
			o.rate = s.p.rate / float64(len(s.readers))
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tallies[i] = drive(o)
		}(i)
	}
	if s.feed != nil {
		o := driveOpts{id: conns, conn: s.feedCon, gen: s.feed, dur: dur, v: s.v, spans: spans,
			rate: ingestRate / ingestBatch}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[conns] = drive(o)
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	reads, writes = &tally{}, &tally{}
	for i := 0; i < conns; i++ {
		reads.pending = append(reads.pending, tallies[i].pending...)
		reads.merge(tallies[i])
	}
	if s.feed != nil {
		writes.merge(tallies[conns])
		s.inserted += writes.inserted
		s.deleted += writes.deleted
	}
	return reads, writes, wall
}

// segments is how many pieces a timed window is cut into. Each piece is
// measured on its own, corrected by the machine-speed reference timed just
// before and after it, and the run reports the median piece: a burst of
// noise from outside spoils one piece, not the run.
const segments = 10

// windowStats collects the segments of a timed window and reports the
// median segment, corrected to nominal machine speed and raw.
type windowStats struct{ p50, p95, ops, tiles, rawP50, rawOps, slows []float64 }

// add records one segment: its browse latencies, its rates, and the
// reference timed just before and after it. An open loop completes what it
// is offered, however fast the machine, so its rates stay as measured.
func (w *windowStats) add(browse *latencies, ops, tiles float64, open bool, before, after speed) {
	rate := rateSlowdown(before, after)
	lat := medianSlowdown(time.Duration(browse.p50()), before, after)
	w.slows = append(w.slows, rate)
	if open {
		rate = 1
	}
	w.p50 = append(w.p50, browse.ms(50)/lat)
	w.p95 = append(w.p95, browse.ms(95)/lat)
	w.ops = append(w.ops, ops*rate)
	w.tiles = append(w.tiles, tiles*rate)
	w.rawP50 = append(w.rawP50, browse.ms(50))
	w.rawOps = append(w.rawOps, ops)
}

func (w *windowStats) report(res *runResult) {
	res.set("browse_p50_ms", median(w.p50))
	res.set("ops_per_s", median(w.ops))
	res.set("tiles_per_s", median(w.tiles))
	res.info("browse_p95_ms", median(w.p95), "ms")
	res.info("browse_p50_raw_ms", median(w.rawP50), "ms")
	res.info("ops_raw_per_s", median(w.rawOps), "1/s")
	res.info("machine_slowdown", median(w.slows), "ratio")
}

// timed is the untraced, timed run of an HTTP workload: a discarded
// warm-up, then the window in segments. It sets every end-to-end metric
// that comes from load and returns everything the connections measured.
func (s *session) timed(res *runResult, ref *reference) (reads, writes *tally) {
	e, p := s.e, s.p
	s.load(time.Duration(e.size.warmup*float64(time.Second)), len(s.readers), true, nil) // discarded
	reads, writes = &tally{}, &tally{}
	var win windowStats
	before := ref.measure()
	for i := 0; i < segments; i++ {
		r, w, wall := s.load(e.dur(1.0/segments), len(s.readers), true, nil)
		after := ref.measure()
		browse := &r.lat[kindBrowse]
		win.add(browse, float64(r.attempted-r.failed)/wall.Seconds(), float64(r.tiles)/wall.Seconds(), p.rate > 0, before, after)
		before = after
		reads.pending = append(reads.pending, r.pending...)
		reads.merge(r)
		writes.merge(w)
	}
	reads.verifyPending(s.v)
	win.report(res)
	browse := &reads.lat[kindBrowse]
	res.info("browse_p99_raw_ms", browse.ms(99), "ms")
	res.info("browse_samples", float64(browse.n()), "count")
	for _, k := range []reqKind{kindQuery, kindDrill} {
		if l := &reads.lat[k]; l.n() > 0 {
			res.info(kindNames[k]+"_p50_raw_ms", l.ms(50), "ms")
			res.info(kindNames[k]+"_samples", float64(l.n()), "count")
		}
	}
	if reads.late.n() > 0 {
		res.info("late_p95_ms", reads.late.ms(95), "ms")
		res.info("rate_rps", p.rate, "1/s")
	}
	if p.feed {
		res.info("ingest_ack_p50_raw_ms", writes.lat[kindIngest].ms(50), "ms")
		res.info("publish_ack_p50_raw_ms", writes.publish.ms(50), "ms")
		res.info("feed_late_p95_ms", writes.late.ms(95), "ms")
		res.info("mutations_per_s", float64(writes.inserted+writes.deleted)/e.seconds, "1/s")
	}
	return reads, writes
}

// runHTTP is the body shared by the four workloads that measure the
// geobrowsed binary from outside: generate the dataset from the seed, hand
// the child only the file and requests, and check what comes back against
// an estimator built in this process from the same file.
func runHTTP(e *env, p *httpPlan) (*runResult, error) {
	res := newResult(e, p.name)
	d, err := dataset.Generate("adl", p.objects, e.seed)
	if err != nil {
		return nil, err
	}
	data := filepath.Join(e.work, "data.bin")
	if err := d.Save(data); err != nil {
		return nil, err
	}
	g := grid.New(d.Extent, p.nx, p.ny)
	oracle, err := core.NewMEuler(g, accuracyAreas, d.Rects)
	if err != nil {
		return nil, err
	}
	s := &session{e: e, p: p, g: g, readers: p.readers(e.seed, g),
		v: &verifier{g: g, est: oracle, corrupt: e.corrupt}}
	if p.feed {
		s.feed = newIngestGen(e.seed, g)
		s.v.est = nil // the child's data moves; equality is checked at the end instead
	}
	hashGens := p.readers(e.seed, g)
	if p.feed {
		hashGens = append(hashGens, newIngestGen(e.seed, g))
	}
	res.TraceHash = fmt.Sprintf("%016x", traceHash(hashGens, 256))

	ref, err := newReference(true, wallClock)
	if err != nil {
		return nil, err
	}
	if p.rate > 0 {
		ref.pace = time.Duration(float64(len(s.readers)) / p.rate * float64(time.Second))
	}
	defer ref.close()

	// Cold starts: the last child stays up for the run.
	var ready []float64
	wal := ""
	for i := 0; moreSetups(e.size, ready); i++ {
		if s.c != nil {
			s.c.stop()
		}
		if p.feed {
			wal = filepath.Join(e.work, fmt.Sprintf("store-%d.wal", i))
		}
		s.c, err = startChild(e.bin, filepath.Join(e.work, "geobrowsed.log"), p.args(data, wal)...)
		if err != nil {
			return nil, err
		}
		ready = append(ready, s.c.ready.Seconds())
	}
	defer s.c.stop()
	for range s.readers {
		s.conns = append(s.conns, newConn(s.c.base))
	}
	if p.feed {
		s.feedCon = newConn(s.c.base)
	}
	defer s.close()

	var reads, writes *tally
	if e.trace == 0 {
		res.set("setup_s", median(ready))
		reads, writes = s.timed(res, ref)
	} else {
		reads, writes = s.traced(res)
	}
	res.count(reads)
	res.count(writes)

	// What the user is shown, against the exact answer — and, for a live
	// store, proof that the child holds exactly the acknowledged mutations,
	// before and after a crash.
	rects := d.Rects
	if p.feed {
		var recover time.Duration
		rects, recover, err = s.settle(res, d.Rects, data, wal)
		if err != nil {
			return nil, err
		}
		if e.trace != 0 {
			res.set("geobrowsed.recover_s", recover.Seconds())
		} else {
			res.info("recover_s", recover.Seconds(), "s")
		}
	}
	acc, err := avgRelError(g, exact.Spans(g, rects), accuracyMaps, func(cols, rows int) ([]int64, error) {
		var resp geobrowse.BrowseResponse
		r := browseRequest(g, fullSpan(g), cols, rows)
		if err := s.conns[0].getJSON(r.path, &resp); err != nil {
			return nil, err
		}
		out := make([]int64, len(resp.Tiles))
		for k, t := range resp.Tiles {
			out[k] = t.Contains
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB(s.c.cmd.Process.Pid)
	if e.trace == 0 {
		res.set("avg_rel_error", acc)
		res.set("rss_mb", rss)
	}
	if e.trace != 0 {
		if err := e.ladder(res, p, oracle, d.Rects, g); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// settle ends an ingest run: a last published batch, then /api/info must
// count exactly the seed plus the acknowledged inserts minus the
// acknowledged deletes — now, and again after the child is killed and
// restarted on the same WAL. It returns the objects the child now holds
// and how long the restart took to become ready.
func (s *session) settle(res *runResult, seed []geom.Rect, data, wal string) ([]geom.Rect, time.Duration, error) {
	last := s.feed.next()
	if !last.flush {
		last.flush, last.path = true, last.path+"?flush=1"
	}
	var ack geobrowse.MutationResponse
	status, body, _, _, err := s.feedCon.do(&last)
	if err == nil && status == 200 {
		err = json.Unmarshal(body, &ack)
	}
	if err != nil || ack.Applied != len(last.rects) {
		return nil, 0, fmt.Errorf("final flush: status %d: %s: %v", status, body, err)
	}
	if last.kind == kindIngest {
		s.inserted += int64(ack.Applied)
	} else {
		s.deleted += int64(ack.Applied)
	}
	seedInside := int64(len(exact.Spans(s.g, seed)))
	want := seedInside + s.inserted - s.deleted
	check := func(when string) error {
		var info geobrowse.Info
		if err := s.conns[0].getJSON("/api/info", &info); err != nil {
			return err
		}
		res.Attempted++
		if info.Objects != want {
			res.Failed++
			res.FirstError = fmt.Sprintf("%s: /api/info counts %d objects, want %d (seed %d + %d inserted - %d deleted)",
				when, info.Objects, want, seedInside, s.inserted, s.deleted)
		}
		return nil
	}
	if err := check("after the final flush"); err != nil {
		return nil, 0, err
	}
	s.c.stop()
	s.close()
	c, err := startChild(s.e.bin, filepath.Join(s.e.work, "geobrowsed.log"), s.p.args(data, wal)...)
	if err != nil {
		return nil, 0, fmt.Errorf("restart on the WAL: %w", err)
	}
	s.c = c
	s.conns = []*conn{newConn(c.base)}
	s.feedCon = newConn(c.base)
	if err := check("after the WAL restart"); err != nil {
		return nil, 0, err
	}
	// The live objects: the feed's stream is deterministic, so replaying it
	// up to the last batch sent reconstructs what was applied.
	return append(append([]geom.Rect(nil), seed...), s.feedLive()...), c.ready, nil
}

// feedLive replays a fresh copy of the feed up to the point the real one
// reached and returns the inserted rectangles that were not deleted again.
func (s *session) feedLive() []geom.Rect {
	replay := newIngestGen(s.e.seed, s.g)
	live := map[geom.Rect]int{}
	var order []geom.Rect
	for replay.n < s.feed.n {
		r := replay.next()
		for _, q := range r.rects {
			if r.kind == kindIngest {
				if live[q] == 0 {
					order = append(order, q)
				}
				live[q]++
			} else {
				live[q]--
			}
		}
	}
	var out []geom.Rect
	for _, q := range order {
		for k := 0; k < live[q]; k++ {
			out = append(out, q)
		}
	}
	return out
}

// moreSetups reports whether another cold start should be measured.
func moreSetups(sz size, done []float64) bool {
	spent := 0.0
	for _, d := range done {
		spent += d
	}
	return len(done) < sz.setupStarts || (sz.setupStarts > 1 && len(done) < maxSetupStarts && spent < setupBudget)
}

// newWorkDir makes the run's scratch directory under the build directory.
func newWorkDir(build string) (string, error) {
	if err := os.MkdirAll(build, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(build, "run-")
}
