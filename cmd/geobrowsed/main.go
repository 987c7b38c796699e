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
//	geobrowsed -replica-of http://leader:8080 -checkpoint replica.ckpt
//	geobrowsed -coordinator "http://s0:8080,http://s0r:8081;http://s1:8082"
//
// With -live the service fronts a mutable ingestion store instead of a
// fixed summary: POST /api/ingest and /api/delete mutate it, every
// mutation is journaled to the -wal file (replayed on restart), and
// browse traffic reads generational snapshots published by the rebuild
// policy. SIGINT/SIGTERM shut down gracefully, syncing the journal and
// writing the -checkpoint file if one is configured. A live node also
// serves the shard/replication API (/api/shard/*, /api/replica/*) so it
// can act as a scatter-gather backend or a replication leader.
//
// -shards N splits the live store across N column-band shards behind an
// in-process coordinator that sums them into one plane (per-shard WAL and
// checkpoint files get a .0, .1, ... suffix). -replica-of runs a
// WAL-shipped read replica of a remote leader, and -coordinator
// scatter-gathers over remote shard nodes: ';'-separated shards, each a
// ','-separated backend list with the leader first.
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
	"slices"
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
	overviewEps   float64

	tenants      string
	tenantBudget int64
	maxInflight  int
	shedAfter    time.Duration

	live                        bool
	wal, checkpoint             string
	rebuildEvery, syncEvery     int
	rebuildInterval             time.Duration
	shards                      int
	replicaOf, coordinator      string
	maxLag                      int64
	probeInterval, pollInterval time.Duration
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
	fs.IntVar(&c.cache, "cache", 0, "browse-response cache entries, each worth 128 KiB of stored bodies: at most N responses in at most N x 128 KiB (0 = default 64, i.e. 8 MiB; negative disables)")
	fs.BoolVar(&c.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	fs.DurationVar(&c.report, "report", time.Minute, "self-report interval (QPS, p50/p99, cache hit rate and bytes; 0 disables)")
	fs.BoolVar(&c.logRequests, "log-requests", false, "log one structured JSON line per API request to stderr")

	fs.IntVar(&c.pyramidLevels, "pyramid-levels", 4, "coarse histogram levels above the base for zoom-native browse routing (0 disables the pyramid)")
	fs.Float64Var(&c.overviewEps, "overview-epsilon", 0, "serve overview browse maps from the reduced tier when every tile certifies within eps*|tile| objects of exact (0 = always exact; needs pyramids)")

	fs.StringVar(&c.tenants, "tenants", "", `serve multiple datasets behind /api/{tenant}/: comma-separated name=dataset[:n] specs (e.g. "west=adl:100000,east=uni")`)
	fs.Int64Var(&c.tenantBudget, "tenant-budget", 0, "memory budget in MiB for resident tenant estimators (0 = unlimited); cold tenants are evicted LRU-first")
	fs.IntVar(&c.maxInflight, "max-inflight", 0, "admission control: concurrent browse-path requests admitted (0 disables)")
	fs.DurationVar(&c.shedAfter, "shed-after", geobrowse.DefaultShedAfter, "admission control: bounded wait before a queued request is shed with 429")

	fs.BoolVar(&c.live, "live", false, "serve a mutable ingestion store (POST /api/ingest, /api/delete) instead of a fixed summary")
	fs.StringVar(&c.wal, "wal", "", "live mode: write-ahead log file (empty = in-memory, no durability)")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "live mode: checkpoint file written on shutdown and loaded on start")
	fs.IntVar(&c.rebuildEvery, "rebuild-every", live.DefaultRebuildEvery, "live mode: publish a snapshot every N mutations (negative disables)")
	fs.DurationVar(&c.rebuildInterval, "rebuild-interval", 0, "live mode: also publish a snapshot at this interval when mutations are pending (0 disables)")
	fs.IntVar(&c.syncEvery, "sync-every", 0, "live mode: fsync the WAL every N mutations (0 = on flush/checkpoint/shutdown only)")

	fs.IntVar(&c.shards, "shards", 0, "live mode: split the store across N column-band shards behind an in-process scatter-gather coordinator")
	fs.StringVar(&c.replicaOf, "replica-of", "", "serve a WAL-shipped read replica of the live leader at this base URL (requires -checkpoint)")
	fs.StringVar(&c.coordinator, "coordinator", "", `scatter-gather over remote shard nodes: ';'-separated shards, each a ','-separated list of backend URLs with the leader first`)
	fs.Int64Var(&c.maxLag, "max-lag-bytes", 1<<20, "coordinator: WAL bytes a follower may lag before its reads route back to the leader (0 = fully caught-up only)")
	fs.DurationVar(&c.probeInterval, "probe-interval", 250*time.Millisecond, "coordinator: backend liveness/lag probe interval")
	fs.DurationVar(&c.pollInterval, "poll-interval", 50*time.Millisecond, "replica mode: WAL tail poll interval when caught up")
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
	handler http.Handler
	// drain flips /healthz to 503 ahead of a shutdown.
	drain func()
	// gb and store feed the self-report: the server whose cache is
	// reported (nil for a registry front) and the single live store whose
	// rebuilds are (nil otherwise).
	gb    *geobrowse.Server
	store *live.Store
	// close releases what the mode holds — stores, followers, coordinators
	// — after the listener has drained.
	close func() error
}

// front is the node of a single-dataset front: every mode but the tenant
// registry.
func front(gb *geobrowse.Server, store *live.Store, close func() error) node {
	return node{handler: gb, drain: gb.StartDrain, gb: gb, store: store, close: close}
}

// assemble composes the serving mode cfg selects: a coordinator over remote
// shards, a read replica, a tenant registry, a saved summary, a live store
// (one, or -shards of them behind an in-process coordinator) or a summary
// built from the dataset.
func assemble(cfg config) (node, error) {
	if flag, why := cfg.droppedFlag(); flag != "" {
		return node{}, fmt.Errorf("%s would be ignored: %s", flag, why)
	}
	opts := geobrowse.Options{CacheSize: cfg.cache, OverviewEpsilon: cfg.overviewEps}
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
	case (cfg.replicaOf != "" || cfg.coordinator != "") && (cfg.live || cfg.tenants != "" || cfg.load != ""):
		return node{}, errors.New("-replica-of and -coordinator are serving topologies of their own; they do not compose with -live, -tenants or -load")
	case cfg.coordinator != "":
		return assembleCoordinator(cfg, opts)
	case cfg.replicaOf != "":
		return assembleReplica(cfg, opts)
	case cfg.tenants != "":
		return assembleTenants(cfg, opts)
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

	start := time.Now()
	est, err := buildEstimator(cfg.algo, cfg.areas, g, d)
	if err != nil {
		return node{}, err
	}
	log.Printf("built %s (%d buckets, %s) in %v", est.Name(), est.StorageBuckets(), latticeSummary(est), time.Since(start).Round(time.Millisecond))
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
// and why, so assemble refuses it before any store is opened or backend
// probed; "" when every flag given takes effect.
func (c *config) droppedFlag() (flag, why string) {
	if c.coordinator != "" || c.live && c.shards > 1 {
		const uncached = "the coordinator pins no generation, so nothing can key a cache entry or certify ε"
		switch {
		case c.cache != 0:
			return "-cache", uncached
		case c.overviewEps != 0:
			return "-overview-epsilon", uncached
		}
	}
	switch {
	case c.live && c.save != "":
		return "-save", "-live serves a store, not a built summary to save"
	}
	return "", ""
}

// staticNode serves a fixed estimator, stacked over its pyramid.
func staticNode(cfg config, name string, est core.Estimator, opts geobrowse.Options) (node, error) {
	est, err := zoomWrap(est, cfg.pyramidLevels)
	if err != nil {
		return node{}, err
	}
	return front(geobrowse.New(name, geobrowse.StaticSource(est), opts), nil, nil), nil
}

// assembleCoordinator scatter-gathers over the remote shard nodes of
// -coordinator.
func assembleCoordinator(cfg config, opts geobrowse.Options) (node, error) {
	groups, err := parseShardSpec(cfg.coordinator)
	if err != nil {
		return node{}, err
	}
	c, err := shard.NewCoordinator(shard.Config{
		Shards:        groups,
		MaxLagBytes:   cfg.maxLag,
		ProbeInterval: cfg.probeInterval,
		Telemetry:     telemetry.Default(),
	})
	if err != nil {
		return node{}, err
	}
	log.Printf("coordinator over %d shards (max follower lag %d bytes, probe every %v)",
		c.Shards(), cfg.maxLag, cfg.probeInterval)
	return front(shard.Front(c, opts), nil, c.Close), nil
}

// assembleReplica tails the live leader at -replica-of into a store of its
// own and serves it, with the shard-node API a coordinator reads it by.
// The follower is the source: it refuses writes itself.
func assembleReplica(cfg config, opts geobrowse.Options) (node, error) {
	if cfg.checkpoint == "" {
		return node{}, errors.New("-replica-of needs -checkpoint for the replica's own durable state")
	}
	leader := &shard.HTTPHandle{Base: strings.TrimSuffix(cfg.replicaOf, "/")}
	info, err := leader.Info()
	if err != nil {
		return node{}, fmt.Errorf("probing leader %s: %w", cfg.replicaOf, err)
	}
	f, err := shard.StartFollower(shard.FollowerConfig{
		Source:          leader,
		CheckpointPath:  cfg.checkpoint,
		PollInterval:    cfg.pollInterval,
		RebuildEvery:    cfg.rebuildEvery,
		RebuildInterval: cfg.rebuildInterval,
		PyramidLevels:   cfg.pyramidLevels,
		Telemetry:       telemetry.Default(),
	})
	if err != nil {
		return node{}, fmt.Errorf("starting replica: %w", err)
	}
	log.Printf("replica of %s (%s) tailing from seq %d, polling every %v",
		cfg.replicaOf, info.Dataset, f.Seq(), cfg.pollInterval)
	gb := geobrowse.New(info.Dataset, f, opts)
	shard.ServeNode(gb, f.Store(), telemetry.Default())
	return front(gb, nil, f.Close), nil
}

// assembleTenants serves the generated datasets of -tenants behind one
// registry front.
func assembleTenants(cfg config, opts geobrowse.Options) (node, error) {
	if cfg.live || cfg.load != "" || cfg.file != "" {
		return node{}, errors.New("-tenants generates its datasets; it composes with -algo/-n/-seed only")
	}
	tenants, err := parseTenants(cfg.tenants, cfg.n, func(dsName string, count int, seed int64) (core.Estimator, error) {
		d, err := dataset.Generate(dsName, count, seed)
		if err != nil {
			return nil, err
		}
		est, err := buildEstimator(cfg.algo, cfg.areas, grid.New(d.Extent, cfg.gridW, cfg.gridH), d)
		if err != nil {
			return nil, err
		}
		return zoomWrap(est, cfg.pyramidLevels)
	}, cfg.seed)
	if err != nil {
		return node{}, err
	}
	reg, err := geobrowse.NewRegistry(tenants, geobrowse.RegistryOptions{
		MemoryBudget: cfg.tenantBudget << 20,
		Server:       opts,
	})
	if err != nil {
		return node{}, err
	}
	ms := geobrowse.NewMultiServer(reg)
	log.Printf("serving %d tenants (%s), budget %d MiB, lazy-loaded on first touch",
		len(tenants), strings.Join(reg.Tenants(), ", "), cfg.tenantBudget)
	return node{handler: ms, drain: ms.StartDrain}, nil
}

// assembleLive opens the mutable store over the dataset's objects — split
// across -shards column bands when asked — with the shard/replication API
// mounted beside the browse API, so the node can serve as a scatter-gather
// backend or a replication leader.
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
	gb := geobrowse.New(d.Name, store, opts)
	shard.ServeNode(gb, store, telemetry.Default())
	return front(gb, store, func() error { return closeStore("live store", store) }), nil
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
	c, err := shard.NewCoordinator(shard.Config{
		Name:          d.Name,
		Shards:        groups,
		MaxLagBytes:   cfg.maxLag,
		ProbeInterval: cfg.probeInterval,
		Telemetry:     telemetry.Default(),
	})
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
	return front(shard.Front(c, opts), nil, func() error {
		err := c.Close()
		if serr := closeStores(); err == nil {
			err = serr
		}
		return err
	}), nil
}

// parseShardSpec expands a -coordinator spec into backend groups:
// ';' separates shards (in band order), ',' separates a shard's backend
// URLs, and the first URL of each group is the writer/leader.
func parseShardSpec(spec string) ([]shard.Backends, error) {
	var groups []shard.Backends
	for _, group := range strings.Split(spec, ";") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		var b shard.Backends
		for j, u := range strings.Split(group, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				return nil, fmt.Errorf("coordinator spec %q: empty backend URL", spec)
			}
			h := &shard.HTTPHandle{Base: strings.TrimSuffix(u, "/")}
			if j == 0 {
				b.Leader = h
			} else {
				b.Followers = append(b.Followers, h)
			}
		}
		groups = append(groups, b)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("coordinator spec %q declares no shards", spec)
	}
	return groups, nil
}

// run serves the node's handler (which exposes Prometheus metrics at
// /metrics), optionally mounts net/http/pprof, and starts the periodic
// self-report loop. On SIGINT/SIGTERM it drains — flipping /healthz to 503
// so load balancers stop routing here — then waits out in-flight requests
// and closes the node, which for a live store syncs the journal and writes
// the checkpoint, so a clean shutdown never loses acknowledged mutations.
func run(cfg config, nd node) error {
	handler := nd.handler
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
	// the builders' difference arrays, each as large as a lattice — was
	// still live, and paces the next collection at twice that. Collect once
	// here so the heap under load is paced by what the server keeps.
	runtime.GC()
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
	nd.drain()
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
	cacheStats := func() (hits, misses, bytes int64) {
		if s == nil { // multi-tenant mode: caches are per tenant
			return 0, 0, 0
		}
		hits, misses = s.CacheStats()
		return hits, misses, s.CacheBytes()
	}
	prevHits, prevMisses, _ := cacheStats()
	prevLevels := reg.CounterValues(pyramidHitsMetric)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for range ticker.C {
		snap := reg.FamilySnapshot("geobrowse_http_request_seconds")
		delta := snap.Sub(prev)
		hits, misses, cacheBytes := cacheStats()
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
			"cache_bytes", cacheBytes,
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

// parseTenants expands a "-tenants" spec — comma-separated
// name=dataset[:n] entries — into registry TenantConfigs whose loaders
// call build. Each tenant derives its generation seed from the base seed
// and its position in the spec, so tenant datasets are distinct but the
// whole fleet stays reproducible from one -seed.
func parseTenants(spec string, defaultN int,
	build func(dsName string, n int, seed int64) (core.Estimator, error),
	baseSeed int64) ([]geobrowse.TenantConfig, error) {
	var tenants []geobrowse.TenantConfig
	for idx, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok || name == "" || rest == "" {
			return nil, fmt.Errorf("tenant spec %q: want name=dataset[:n]", entry)
		}
		dsName, count := rest, defaultN
		if ds, nStr, hasN := strings.Cut(rest, ":"); hasN {
			v, err := strconv.Atoi(nStr)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("tenant spec %q: bad object count %q", entry, nStr)
			}
			dsName, count = ds, v
		}
		// Validate eagerly: loaders run lazily on first touch, and a
		// typo'd dataset name must fail at startup, not as 500s under
		// traffic hours later.
		if !slices.Contains(dataset.Names(), dsName) {
			return nil, fmt.Errorf("tenant spec %q: unknown dataset %q (want one of %v)",
				entry, dsName, dataset.Names())
		}
		seed := baseSeed + int64(idx)
		tenants = append(tenants, geobrowse.TenantConfig{
			Name: name,
			Load: func() (core.Estimator, error) { return build(dsName, count, seed) },
		})
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("tenant spec %q declares no tenants", spec)
	}
	return tenants, nil
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
