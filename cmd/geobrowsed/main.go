// Command geobrowsed serves the GeoBrowsing HTTP service over a spatial
// dataset: a built-in heat-map client at /, and a JSON API for tiled
// Level 2 relation counts (see internal/geobrowse for the endpoints).
//
// Usage:
//
//	geobrowsed -dataset adl -n 500000 -algo meuler -addr :8080
//	geobrowsed -file ca_road.bin -algo seuler
//	geobrowsed -live -wal store.wal -rebuild-every 1024
//	geobrowsed -live -shards 4 -wal store.wal -checkpoint store.ckpt
//
// With -live the service fronts a mutable ingestion store instead of a
// fixed summary: POST /api/ingest and /api/delete mutate it, every
// mutation is journaled to the -wal file (replayed on restart), and
// browse traffic reads generational snapshots published by the rebuild
// policy. SIGINT/SIGTERM shut down gracefully, syncing the journal and
// writing the -checkpoint file if one is configured.
//
// -shards N splits the live store across N column-band shards behind an
// in-process coordinator that sums them into one plane (per-shard WAL and
// checkpoint files get a .0, .1, ... suffix).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spatialhist"
	"spatialhist/internal/core"
	"spatialhist/internal/dataset"
	"spatialhist/internal/euler"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
	"spatialhist/internal/shard"
	"spatialhist/internal/telemetry"
)

// config is geobrowsed's flag set, parsed: everything assemble needs to
// build a serving mode, so a test can build one without a command line.
type config struct {
	addr, dataset, file, algo, areas string
	n, gridW, gridH                  int
	seed                             int64
	load, save                       string
	cache                            int
	pprof, logRequests               bool
	report                           time.Duration

	pyramidLevels int

	maxInflight int
	shedAfter   time.Duration

	live                    bool
	wal, checkpoint         string
	rebuildEvery, syncEvery int
	rebuildInterval         time.Duration
	shards                  int
}

// register binds every flag to its field of c.
func (c *config) register(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", "localhost:8080", "listen address")
	fs.StringVar(&c.dataset, "dataset", "adl", "dataset to generate: "+strings.Join(dataset.Names(), ", "))
	fs.IntVar(&c.n, "n", 200_000, "number of objects to generate")
	fs.Int64Var(&c.seed, "seed", 2002, "generator seed")
	fs.StringVar(&c.file, "file", "", "load a dataset file instead of generating")
	fs.StringVar(&c.algo, "algo", "meuler", "estimator: seuler, euler, meuler")
	fs.StringVar(&c.areas, "areas", "1,9,100", "meuler area thresholds in unit cells")
	fs.IntVar(&c.gridW, "gw", 360, "grid cells in x")
	fs.IntVar(&c.gridH, "gh", 180, "grid cells in y")
	fs.StringVar(&c.load, "load", "", "serve a saved summary file instead of building one")
	fs.StringVar(&c.save, "save", "", "after building, save the summary to this file")
	fs.IntVar(&c.cache, "cache", 0, "browse-response cache entries: at most N responses of at most 128 KiB each, a larger one served but not stored (0 = default 64; negative disables)")
	fs.BoolVar(&c.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	fs.DurationVar(&c.report, "report", time.Minute, "self-report interval (QPS, p50/p99, cache hit rate and bytes; 0 disables)")
	fs.BoolVar(&c.logRequests, "log-requests", false, "log one structured JSON line per API request to stderr")

	fs.IntVar(&c.pyramidLevels, "pyramid-levels", 4, "coarse histogram levels above the base for zoom-native browse routing (0 disables the pyramid)")

	fs.IntVar(&c.maxInflight, "max-inflight", 0, "admission control: concurrent browse-path requests admitted (0 disables)")
	fs.DurationVar(&c.shedAfter, "shed-after", geobrowse.DefaultShedAfter, "admission control: bounded wait before a queued request is shed with 429")

	fs.BoolVar(&c.live, "live", false, "serve a mutable ingestion store (POST /api/ingest, /api/delete) instead of a fixed summary")
	fs.StringVar(&c.wal, "wal", "", "live mode: write-ahead log file (empty = in-memory, no durability)")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "live mode: checkpoint file written on shutdown and loaded on start")
	fs.IntVar(&c.rebuildEvery, "rebuild-every", live.DefaultRebuildEvery, "live mode: publish a snapshot every N mutations (negative disables)")
	fs.DurationVar(&c.rebuildInterval, "rebuild-interval", 0, "live mode: also publish a snapshot at this interval when mutations are pending (0 disables)")
	fs.IntVar(&c.syncEvery, "sync-every", 0, "live mode: fsync the WAL every N mutations (0 = on flush/checkpoint/shutdown only)")

	fs.IntVar(&c.shards, "shards", 0, "live mode: split the store across N column-band shards behind an in-process scatter-gather coordinator")
}

func main() {
	var cfg config
	cfg.register(flag.CommandLine)
	flag.Parse()
	nd, err := assemble(cfg)
	if err != nil {
		log.Fatalf("geobrowsed: %v", err)
	}
	if err := run(cfg, nd); err != nil {
		log.Fatalf("geobrowsed: %v", err)
	}
}

// node is one assembled serving mode — what run needs of it and nothing of
// how it was composed.
type node struct {
	// gb serves every request, and its cache feeds the self-report.
	gb *geobrowse.Server
	// store is the single live store whose rebuilds the self-report
	// reports (nil otherwise).
	store *live.Store
	// close releases what the mode holds — stores and coordinators — after
	// the listener has drained.
	close func() error
	// lattice is the resident lattice bytes of a fixed summary, which run
	// leaves out of the GC allowance; 0 for live modes, whose lattice
	// bytes move with arena leases and cell width.
	lattice int
}

// assemble composes the serving mode cfg selects: a saved summary, a live
// store (one, or -shards of them behind an in-process coordinator) or a
// summary built from the dataset.
func assemble(cfg config) (node, error) {
	for _, c := range []struct {
		flag string
		n    int
	}{{"-shards", cfg.shards}, {"-max-inflight", cfg.maxInflight}, {"-n", cfg.n}} {
		if c.n < 0 {
			return node{}, fmt.Errorf("%s must not be negative, got %d", c.flag, c.n)
		}
	}
	for _, c := range []struct {
		flag string
		n    int
	}{{"-gw", cfg.gridW}, {"-gh", cfg.gridH}} {
		if c.n <= 0 {
			return node{}, fmt.Errorf("%s must be positive, got %d", c.flag, c.n)
		}
	}
	if flag, why := cfg.droppedFlag(); flag != "" {
		return node{}, fmt.Errorf("%s would be ignored: %s", flag, why)
	}
	opts := geobrowse.Options{CacheSize: cfg.cache}
	if cfg.logRequests {
		opts.AccessLog = os.Stderr
	}
	if cfg.maxInflight > 0 {
		opts.Limiter = geobrowse.NewLimiter(geobrowse.AdmissionConfig{
			MaxInflight: cfg.maxInflight,
			ShedAfter:   cfg.shedAfter,
			Telemetry:   telemetry.Default(),
		})
		log.Printf("admission control: %d in-flight, shed after %v", cfg.maxInflight, cfg.shedAfter)
	}

	switch {
	case cfg.live && cfg.load != "":
		return node{}, errors.New("-live builds its own store; it cannot serve a -load summary")
	case cfg.shards != 0 && !cfg.live:
		return node{}, errors.New("-shards partitions a live store; it requires -live")
	case cfg.load != "":
		sum, err := spatialhist.LoadFile(cfg.load)
		if err != nil {
			return node{}, err
		}
		log.Printf("loaded summary: %s, %d objects, %d buckets",
			sum.Algorithm(), sum.Count(), sum.StorageBuckets())
		return staticNode(cfg, cfg.load, sum.Estimator(), opts)
	}

	var d *dataset.Dataset
	var err error
	if cfg.file != "" {
		d, err = dataset.Load(cfg.file)
	} else {
		d, err = dataset.Generate(cfg.dataset, cfg.n, cfg.seed)
	}
	if err != nil {
		return node{}, err
	}
	log.Printf("loaded %v", d)
	g := grid.New(d.Extent, cfg.gridW, cfg.gridH)
	if cfg.live {
		return assembleLive(cfg, opts, g, d)
	}
	return assembleStatic(cfg, opts, g, d)
}

// assembleStatic builds the fixed summary of d's objects and serves it.
// The summary holds all the server needs of the objects, so d.Rects is let
// go once it is built: the objects weigh about half as much as the lattice
// of a 1440×720 grid, and nothing would read them again.
func assembleStatic(cfg config, opts geobrowse.Options, g *grid.Grid, d *dataset.Dataset) (node, error) {
	start := time.Now()
	est, err := buildEstimator(cfg.algo, cfg.areas, g, d)
	if err != nil {
		return node{}, err
	}
	log.Printf("built %s (%d buckets, %s) in %v", est.Name(), est.StorageBuckets(), latticeSummary(est), time.Since(start).Round(time.Millisecond))
	d.Rects = nil
	if cfg.save != "" {
		sum, err := spatialhist.SummaryOf(est)
		if err != nil {
			return node{}, err
		}
		if err := sum.SaveFile(cfg.save); err != nil {
			return node{}, err
		}
		log.Printf("saved summary to %s", cfg.save)
	}
	return staticNode(cfg, d.Name, est, opts)
}

// droppedFlag names a flag the selected mode would accept and then ignore,
// and why, so assemble refuses it before any store is opened; "" when
// every flag given takes effect.
func (c *config) droppedFlag() (flag, why string) {
	if c.live && c.shards > 1 && c.cache != 0 {
		return "-cache", "the coordinator pins no generation, so nothing can key a cache entry"
	}
	if !c.live {
		const fixed = "it configures the live store, and without -live the summary is fixed"
		switch {
		case c.wal != "":
			return "-wal", fixed
		case c.checkpoint != "":
			return "-checkpoint", fixed
		case c.syncEvery != 0:
			return "-sync-every", fixed
		case c.rebuildInterval != 0:
			return "-rebuild-interval", fixed
		case c.rebuildEvery != live.DefaultRebuildEvery:
			return "-rebuild-every", fixed
		}
	}
	if c.live && c.save != "" {
		return "-save", "-live serves a store, not a built summary to save"
	}
	return "", ""
}

// staticNode serves a fixed estimator, stacked over its pyramid. It
// collects first, so that the pyramid reuses the pages of what building
// the base left behind — the objects, the group index, a loaded file's
// buffers — instead of raising the peak beside them.
func staticNode(cfg config, name string, est core.Estimator, opts geobrowse.Options) (node, error) {
	runtime.GC()
	est, err := zoomWrap(est, cfg.pyramidLevels)
	if err != nil {
		return node{}, err
	}
	nd := node{gb: geobrowse.New(name, geobrowse.StaticSource(est), opts)}
	if ls, ok := est.(core.LatticeSizer); ok {
		nd.lattice = ls.LatticeBytes()
	}
	return nd, nil
}

// assembleLive opens the mutable store over the dataset's objects — split
// across -shards column bands when asked.
func assembleLive(cfg config, opts geobrowse.Options, g *grid.Grid, d *dataset.Dataset) (node, error) {
	spec, err := parseSpec(cfg.algo, cfg.areas)
	if err != nil {
		return node{}, err
	}
	lc := live.Config{
		Grid:            g,
		Algo:            spec.Algo,
		Areas:           spec.Areas,
		Seed:            d.Rects,
		WALPath:         cfg.wal,
		CheckpointPath:  cfg.checkpoint,
		RebuildEvery:    cfg.rebuildEvery,
		RebuildInterval: cfg.rebuildInterval,
		SyncEvery:       cfg.syncEvery,
		PyramidLevels:   cfg.pyramidLevels,
	}
	if cfg.shards > 1 {
		return assembleSharded(cfg, opts, lc, d)
	}
	start := time.Now()
	store, err := live.Open(lc)
	if err != nil {
		return node{}, err
	}
	st := store.Status()
	log.Printf("live store open in %v: %s, %d objects, generation %d, %d replayed mutations (wal %q, %d bytes)",
		time.Since(start).Round(time.Millisecond), st.Algorithm, st.LiveObjects, st.Generation, st.Mutations, cfg.wal, st.WALBytes)
	return node{gb: geobrowse.New(d.Name, store, opts), store: store, close: func() error { return closeStore("live store", store) }}, nil
}

// closeStore closes a live store — syncing its journal and writing its
// checkpoint — and logs where it stopped.
func closeStore(what string, s *live.Store) error {
	st := s.Status()
	if err := s.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", what, err)
	}
	log.Printf("%s closed at generation %d (%d mutations journaled)", what, st.Generation, st.Mutations)
	return nil
}

// latticeSummary renders the resident lattice bytes of an estimator and the
// cell width they come to — 4 bytes per bucket unless a histogram outgrew
// the narrow cells — so the start-up log says which width a dataset got.
func latticeSummary(est core.Estimator) string {
	ls, ok := est.(core.LatticeSizer)
	if !ok {
		return "no resident lattice"
	}
	bytes := ls.LatticeBytes()
	return fmt.Sprintf("%.1f MB of lattice at %.3g B/bucket", float64(bytes)/1e6, float64(bytes)/float64(est.StorageBuckets()))
}

// zoomWrap stacks a multi-resolution pyramid over a fixed-summary
// estimator so aligned browse requests are served from coarse levels.
// Grids too small (or too odd) to coarsen keep the plain estimator.
func zoomWrap(est core.Estimator, levels int) (core.Estimator, error) {
	if levels <= 0 {
		return est, nil
	}
	spec, pyrs, ok := core.Pyramids(est, euler.PyramidOpts{MaxLevels: levels})
	if !ok {
		return est, nil
	}
	z, err := spec.FromPyramids(pyrs)
	if err != nil {
		return nil, fmt.Errorf("assembling zoom stack: %w", err)
	}
	if n := core.NumLevels(z); n > 1 {
		log.Printf("pyramid: %d levels over the base grid (%d buckets total)", n-1, z.StorageBuckets())
	}
	return z, nil
}

// assembleSharded opens one live store per column band, routes the
// dataset's seed objects to their owning shards, and serves an in-process
// coordinator over them that sums every map into one plane. Per-shard WAL
// and checkpoint files derive from the configured paths by suffix, so each
// shard recovers its own band independently on restart.
func assembleSharded(cfg config, opts geobrowse.Options, base live.Config, d *dataset.Dataset) (node, error) {
	n := cfg.shards
	part, err := shard.NewPartition(base.Grid, n)
	if err != nil {
		return node{}, err
	}
	seeds := part.RouteRects(d.Rects)
	start := time.Now()
	stores := make([]*live.Store, 0, n)
	closeStores := func() error {
		var first error
		for i, s := range stores {
			if err := closeStore(fmt.Sprintf("shard %d", i), s); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	groups := make([]shard.Backends, n)
	for i := 0; i < n; i++ {
		sc := base
		sc.Seed = seeds[i]
		if base.WALPath != "" {
			sc.WALPath = fmt.Sprintf("%s.%d", base.WALPath, i)
		}
		if base.CheckpointPath != "" {
			sc.CheckpointPath = fmt.Sprintf("%s.%d", base.CheckpointPath, i)
		}
		s, err := live.Open(sc)
		if err != nil {
			closeStores()
			return node{}, fmt.Errorf("opening shard %d: %w", i, err)
		}
		stores = append(stores, s)
		groups[i] = shard.Backends{Leader: &shard.LocalHandle{
			Store: s, Label: fmt.Sprintf("%s/shard%d", d.Name, i),
		}}
	}
	c, err := shard.NewCoordinator(shard.Config{Name: d.Name, Shards: groups, Telemetry: telemetry.Default()})
	if err != nil {
		closeStores()
		return node{}, err
	}
	var objects int64
	for i, s := range stores {
		st := s.Status()
		objects += st.LiveObjects
		c1, c2 := part.Band(i)
		log.Printf("shard %d: columns [%d,%d], %d objects, generation %d", i, c1, c2, st.LiveObjects, st.Generation)
	}
	log.Printf("sharded live store open in %v: %d shards, %d objects total",
		time.Since(start).Round(time.Millisecond), n, objects)
	return node{gb: shard.Front(c, opts), close: func() error {
		err := c.Close()
		if serr := closeStores(); err == nil {
			err = serr
		}
		return err
	}}, nil
}

// run serves the node's server (which exposes Prometheus metrics at
// /metrics), optionally mounts net/http/pprof, and starts the periodic
// self-report loop. On SIGINT/SIGTERM it drains — flipping /healthz to 503
// so load balancers stop routing here — then waits out in-flight requests
// and closes the node, which for a live store syncs the journal and writes
// the checkpoint, so a clean shutdown never loses acknowledged mutations.
func run(cfg config, nd node) error {
	var handler http.Handler = nd.gb
	if cfg.pprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("pprof enabled at http://%s/debug/pprof/", cfg.addr)
	}
	if cfg.report > 0 {
		go selfReport(nd.gb, cfg.report, nd.store)
	}
	// The runtime last collected while start-up garbage — dataset buffers,
	// build scratch — was still live, and paces the next collection at
	// twice that. Collect once here so the heap under load is paced by what
	// the server keeps; a fixed summary's lattice is then left out of that.
	runtime.GC()
	if nd.lattice > 0 {
		setGCAllowance(nd.lattice)
	}
	srv := &http.Server{
		Addr:         cfg.addr,
		Handler:      handler,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving GeoBrowse on http://%s/ (metrics at /metrics)", cfg.addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case got := <-sig:
		log.Printf("received %v, shutting down", got)
	}
	nd.gb.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("geobrowsed: draining requests: %v", err)
	}
	if nd.close != nil {
		return nd.close()
	}
	return nil
}

// minGCHeap is the runtime's own minimum heap goal (4 MiB at GOGC=100):
// the least allowance a static node is given.
const minGCHeap = 4 << 20

// gcPercent is the GC percent that lets a live heap, lattice bytes of which
// are a fixed summary's lattice, grow by the rest of it — at least
// minGCHeap — before the next collection: ⌈100·max(live−lattice,
// minGCHeap)/live⌉, and at most 100, the default.
func gcPercent(live, lattice uint64) int {
	rest := uint64(minGCHeap)
	if live > lattice+rest {
		rest = live - lattice
	}
	return int(min(100, (100*rest+live-1)/max(live, 1)))
}

// setGCAllowance leaves a fixed summary's lattice out of the GC allowance,
// and returns the percent it set. The lattice never becomes garbage, so the
// default lets the heap grow by as much again for nothing; the allowance
// is instead what the rest of the live heap, measured now, comes to. An
// explicit GOGC in the environment wins: then nothing is set, and ok is
// false.
func setGCAllowance(lattice int) (percent int, ok bool) {
	if v, set := os.LookupEnv("GOGC"); set {
		log.Printf("gc: GOGC=%s from the environment", v)
		return 0, false
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	percent = gcPercent(ms.HeapAlloc, uint64(lattice))
	debug.SetGCPercent(percent)
	log.Printf("gc: percent %d: %.1f MB live heap, %.1f MB of it lattice (GOGC overrides)",
		percent, float64(ms.HeapAlloc)/1e6, float64(lattice)/1e6)
	return percent, true
}

// selfReport emits one structured line per interval with the window's
// request rate, latency quantiles (from the merged per-endpoint latency
// histograms in telemetry.Default()), browse-cache hit rate and the bytes
// of response bodies the cache holds. When a
// pyramid is serving it appends the window's per-level hit distribution —
// how much traffic the coarse levels absorbed. When fronting a live store
// it appends a rebuild line: publish latency p50/p99 and the mean dirty
// lattice fraction over the window, so an operator can see at a glance
// whether ingestion is being absorbed by dirty-region repair or falling
// back to full passes.
func selfReport(s *geobrowse.Server, every time.Duration, store *live.Store) {
	logger := telemetry.NewLogger(os.Stderr)
	reg := telemetry.Default()
	prev := reg.FamilySnapshot("geobrowse_http_request_seconds")
	prevRebuild := reg.FamilySnapshot("live_rebuild_seconds")
	prevDirty := reg.FamilySnapshot("live_rebuild_dirty_frac")
	prevHits, prevMisses := s.CacheStats()
	prevLevels := reg.CounterValues(pyramidHitsMetric)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for range ticker.C {
		snap := reg.FamilySnapshot("geobrowse_http_request_seconds")
		delta := snap.Sub(prev)
		hits, misses := s.CacheStats()
		dh, dm := hits-prevHits, misses-prevMisses
		hitRate := 0.0
		if dh+dm > 0 {
			hitRate = float64(dh) / float64(dh+dm)
		}
		logger.Log("self-report",
			"requests", delta.Count,
			"qps", float64(delta.Count)/every.Seconds(),
			"p50_ms", delta.Quantile(0.50)*1000,
			"p99_ms", delta.Quantile(0.99)*1000,
			"cache_hit_rate", hitRate,
			"cache_bytes", s.CacheBytes(),
		)
		prev, prevHits, prevMisses = snap, hits, misses

		levels := reg.CounterValues(pyramidHitsMetric)
		if len(levels) > 0 {
			logger.Log("pyramid-report", pyramidReportFields(prevLevels, levels)...)
		}
		prevLevels = levels

		if store == nil {
			continue
		}
		rebuild := reg.FamilySnapshot("live_rebuild_seconds")
		dirty := reg.FamilySnapshot("live_rebuild_dirty_frac")
		rd := rebuild.Sub(prevRebuild)
		dd := dirty.Sub(prevDirty)
		meanDirty := 0.0
		if dd.Count > 0 {
			meanDirty = dd.Sum / float64(dd.Count)
		}
		logger.Log("rebuild-report",
			"rebuilds", rd.Count,
			"rebuild_p50_ms", rd.Quantile(0.50)*1000,
			"rebuild_p99_ms", rd.Quantile(0.99)*1000,
			"dirty_frac_mean", meanDirty,
			"generation", store.Generation(),
		)
		prevRebuild, prevDirty = rebuild, dirty
	}
}

// pyramidHitsMetric is the per-level routing counter family registered by
// core.NewZoom; empty until a pyramid-backed estimator serves a query.
const pyramidHitsMetric = "core_pyramid_level_hits_total"

// pyramidReportFields turns the window's per-level hit deltas into log
// fields: how many queries the pyramid routed and each level's share.
func pyramidReportFields(prev, cur map[string]int64) []any {
	type lv struct {
		label string
		delta int64
	}
	lvs := make([]lv, 0, len(cur))
	var total int64
	for label, v := range cur {
		d := v - prev[label]
		lvs = append(lvs, lv{label, d})
		total += d
	}
	sort.Slice(lvs, func(i, j int) bool { return lvs[i].label < lvs[j].label })
	fields := []any{"routed", total}
	for _, l := range lvs {
		level := strings.TrimSuffix(strings.TrimPrefix(l.label, `{level="`), `"}`)
		rate := 0.0
		if total > 0 {
			rate = float64(l.delta) / float64(total)
		}
		fields = append(fields, "level_"+level+"_hit_rate", rate)
	}
	return fields
}

// parseSpec reads -algo and, for meuler, -areas.
func parseSpec(algo, areasArg string) (core.Spec, error) {
	switch algo {
	case "seuler":
		return core.Spec{Algo: core.AlgoSEuler}, nil
	case "euler":
		return core.Spec{Algo: core.AlgoEuler}, nil
	case "meuler":
		areas, err := parseAreas(areasArg)
		return core.Spec{Algo: core.AlgoMEuler, Areas: areas}, err
	}
	return core.Spec{}, fmt.Errorf("unknown algorithm %q (want seuler, euler or meuler)", algo)
}

func buildEstimator(algo, areasArg string, g *grid.Grid, d *dataset.Dataset) (core.Estimator, error) {
	spec, err := parseSpec(algo, areasArg)
	if err != nil {
		return nil, err
	}
	return spec.FromRects(g, d.Rects)
}

func parseAreas(areasArg string) ([]float64, error) {
	var areas []float64
	for _, p := range strings.Split(areasArg, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("area list %q: %v", areasArg, err)
		}
		areas = append(areas, v)
	}
	return areas, nil
}
