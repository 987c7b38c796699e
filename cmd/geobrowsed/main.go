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
// in-process scatter-gather coordinator (per-shard WAL and checkpoint
// files get a .0, .1, ... suffix). -replica-of runs a WAL-shipped read
// replica of a remote leader, and -coordinator scatter-gathers over
// remote shard nodes: ';'-separated shards, each a ','-separated backend
// list with the leader first.
package main

import (
	"context"
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

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "listen address")
		name     = flag.String("dataset", "adl", "dataset to generate: "+strings.Join(dataset.Names(), ", "))
		n        = flag.Int("n", 200_000, "number of objects to generate")
		seed     = flag.Int64("seed", 2002, "generator seed")
		file     = flag.String("file", "", "load a dataset file instead of generating")
		algo     = flag.String("algo", "meuler", "estimator: seuler, euler, meuler")
		areasArg = flag.String("areas", "1,9,100", "meuler area thresholds in unit cells")
		gridW    = flag.Int("gw", 360, "grid cells in x")
		gridH    = flag.Int("gh", 180, "grid cells in y")
		loadSum  = flag.String("load", "", "serve a saved summary file instead of building one")
		saveSum  = flag.String("save", "", "after building, save the summary to this file")
		cacheSz  = flag.Int("cache", 0, "browse-response cache entries, each worth 128 KiB of stored bodies: at most N responses in at most N x 128 KiB (0 = default 64, i.e. 8 MiB; negative disables)")
		workers  = flag.Int("workers", 0, "tile-map worker pool size (0 = GOMAXPROCS)")
		pprofOn  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		report   = flag.Duration("report", time.Minute, "self-report interval (QPS, p50/p99, cache hit rate and bytes; 0 disables)")
		logReq   = flag.Bool("log-requests", false, "log one structured JSON line per API request to stderr")

		pyrLevels   = flag.Int("pyramid-levels", 4, "coarse histogram levels above the base for zoom-native browse routing (0 disables the pyramid)")
		pyrMinGrid  = flag.Int("pyramid-min-grid", euler.DefaultPyramidMinGrid, "stop pyramid coarsening before either grid axis would drop below this many cells")
		overviewEps = flag.Float64("overview-epsilon", 0, "serve overview browse maps from the reduced tier when every tile certifies within eps*|tile| objects of exact (0 = always exact; needs pyramids)")

		tenantsArg   = flag.String("tenants", "", `serve multiple datasets behind /api/{tenant}/: comma-separated name=dataset[:n] specs (e.g. "west=adl:100000,east=uni")`)
		tenantBudget = flag.Int64("tenant-budget", 0, "memory budget in MiB for resident tenant estimators (0 = unlimited); cold tenants are evicted LRU-first")
		maxInflight  = flag.Int("max-inflight", 0, "admission control: concurrent browse-path requests admitted (0 disables)")
		shedAfter    = flag.Duration("shed-after", geobrowse.DefaultShedAfter, "admission control: bounded wait before a queued request is shed with 429")

		liveMode  = flag.Bool("live", false, "serve a mutable ingestion store (POST /api/ingest, /api/delete) instead of a fixed summary")
		walPath   = flag.String("wal", "", "live mode: write-ahead log file (empty = in-memory, no durability)")
		ckptPath  = flag.String("checkpoint", "", "live mode: checkpoint file written on shutdown and loaded on start")
		rebuildN  = flag.Int("rebuild-every", live.DefaultRebuildEvery, "live mode: publish a snapshot every N mutations (negative disables)")
		rebuildT  = flag.Duration("rebuild-interval", 0, "live mode: also publish a snapshot at this interval when mutations are pending (0 disables)")
		syncEvery = flag.Int("sync-every", 0, "live mode: fsync the WAL every N mutations (0 = on flush/checkpoint/shutdown only)")
		crossover = flag.Float64("rebuild-crossover", 0, "live mode: dirty-fraction cost threshold above which a rebuild falls back to a full pass (0 = tuned default, negative = always repair)")

		shards    = flag.Int("shards", 0, "live mode: split the store across N column-band shards behind an in-process scatter-gather coordinator")
		replicaOf = flag.String("replica-of", "", "serve a WAL-shipped read replica of the live leader at this base URL (requires -checkpoint)")
		coordSpec = flag.String("coordinator", "", `scatter-gather over remote shard nodes: ';'-separated shards, each a ','-separated list of backend URLs with the leader first`)
		maxLag    = flag.Int64("max-lag-bytes", 1<<20, "coordinator: WAL bytes a follower may lag before its reads route back to the leader (0 = fully caught-up only)")
		probeIvl  = flag.Duration("probe-interval", 250*time.Millisecond, "coordinator: backend liveness/lag probe interval")
		pollIvl   = flag.Duration("poll-interval", 50*time.Millisecond, "replica mode: WAL tail poll interval when caught up")
	)
	flag.Parse()

	opts := geobrowse.Options{CacheSize: *cacheSz, Workers: *workers, OverviewEpsilon: *overviewEps}
	if *logReq {
		opts.AccessLog = os.Stderr
	}
	if *maxInflight > 0 {
		opts.Limiter = geobrowse.NewLimiter(geobrowse.AdmissionConfig{
			MaxInflight: *maxInflight,
			ShedAfter:   *shedAfter,
			Telemetry:   telemetry.Default(),
		})
		log.Printf("admission control: %d in-flight, shed after %v", *maxInflight, *shedAfter)
	}

	if *liveMode && *loadSum != "" {
		log.Fatal("geobrowsed: -live builds its own store; it cannot serve a -load summary")
	}
	if *shards != 0 && !*liveMode {
		log.Fatal("geobrowsed: -shards partitions a live store; it requires -live")
	}
	if (*replicaOf != "" || *coordSpec != "") && (*liveMode || *tenantsArg != "" || *loadSum != "") {
		log.Fatal("geobrowsed: -replica-of and -coordinator are serving topologies of their own; they do not compose with -live, -tenants or -load")
	}

	if *coordSpec != "" {
		groups, err := parseShardSpec(*coordSpec)
		if err != nil {
			log.Fatalf("geobrowsed: %v", err)
		}
		c, err := shard.NewCoordinator(shard.Config{
			Shards:        groups,
			MaxLagBytes:   *maxLag,
			ProbeInterval: *probeIvl,
			Telemetry:     telemetry.Default(),
		})
		if err != nil {
			log.Fatalf("geobrowsed: %v", err)
		}
		log.Printf("coordinator over %d shards (max follower lag %d bytes, probe every %v)",
			c.Shards(), *maxLag, *probeIvl)
		run(*addr, shard.NewServer(c, telemetry.Default()), nil, nil, *pprofOn, *report, nil,
			func() {
				if err := c.Close(); err != nil {
					log.Printf("geobrowsed: closing coordinator: %v", err)
				}
			})
		return
	}

	if *replicaOf != "" {
		if *ckptPath == "" {
			log.Fatal("geobrowsed: -replica-of needs -checkpoint for the replica's own durable state")
		}
		leader := &shard.HTTPHandle{Base: strings.TrimSuffix(*replicaOf, "/")}
		info, err := leader.Info()
		if err != nil {
			log.Fatalf("geobrowsed: probing leader %s: %v", *replicaOf, err)
		}
		f, err := shard.StartFollower(shard.FollowerConfig{
			Source:          leader,
			CheckpointPath:  *ckptPath,
			PollInterval:    *pollIvl,
			RebuildEvery:    *rebuildN,
			RebuildInterval: *rebuildT,
			PyramidLevels:   *pyrLevels,
			Telemetry:       telemetry.Default(),
		})
		if err != nil {
			log.Fatalf("geobrowsed: starting replica: %v", err)
		}
		log.Printf("replica of %s (%s) tailing from seq %d, polling every %v",
			*replicaOf, info.Dataset, f.Seq(), *pollIvl)
		gb := geobrowse.NewLiveServer(info.Dataset, f.Store(), opts)
		run(*addr, replicaHandler(gb, f.Store()), gb.StartDrain, gb, *pprofOn, *report, nil,
			func() {
				if err := f.Close(); err != nil {
					log.Printf("geobrowsed: closing replica: %v", err)
				}
			})
		return
	}

	if *tenantsArg != "" {
		if *liveMode || *loadSum != "" || *file != "" {
			log.Fatal("geobrowsed: -tenants generates its datasets; it composes with -algo/-n/-seed only")
		}
		tenants, err := parseTenants(*tenantsArg, *n, func(dsName string, count int, seed int64) (core.Estimator, error) {
			d, err := dataset.Generate(dsName, count, seed)
			if err != nil {
				return nil, err
			}
			est, err := buildEstimator(*algo, *areasArg, grid.New(d.Extent, *gridW, *gridH), d)
			if err != nil {
				return nil, err
			}
			return zoomWrap(est, *pyrLevels, *pyrMinGrid), nil
		}, *seed)
		if err != nil {
			log.Fatalf("geobrowsed: %v", err)
		}
		reg, err := geobrowse.NewRegistry(tenants, geobrowse.RegistryOptions{
			MemoryBudget: *tenantBudget << 20,
			Server:       opts,
		})
		if err != nil {
			log.Fatalf("geobrowsed: %v", err)
		}
		ms := geobrowse.NewMultiServer(reg)
		log.Printf("serving %d tenants (%s), budget %d MiB, lazy-loaded on first touch",
			len(tenants), strings.Join(reg.Tenants(), ", "), *tenantBudget)
		run(*addr, ms, ms.StartDrain, nil, *pprofOn, *report, nil)
		return
	}

	if *loadSum != "" {
		sum, err := spatialhist.LoadFile(*loadSum)
		if err != nil {
			log.Fatalf("geobrowsed: %v", err)
		}
		log.Printf("loaded summary: %s, %d objects, %d buckets",
			sum.Algorithm(), sum.Count(), sum.StorageBuckets())
		serve(*addr, *loadSum, zoomWrap(sum.Estimator(), *pyrLevels, *pyrMinGrid), opts, *pprofOn, *report)
		return
	}

	var d *dataset.Dataset
	var err error
	if *file != "" {
		d, err = dataset.Load(*file)
	} else {
		d, err = dataset.Generate(*name, *n, *seed)
	}
	if err != nil {
		log.Fatalf("geobrowsed: %v", err)
	}
	log.Printf("loaded %v", d)

	g := grid.New(d.Extent, *gridW, *gridH)

	if *liveMode {
		algoV, err := live.ParseAlgo(*algo)
		if err != nil {
			log.Fatalf("geobrowsed: %v", err)
		}
		cfg := live.Config{
			Grid:             g,
			Algo:             algoV,
			Seed:             d.Rects,
			WALPath:          *walPath,
			CheckpointPath:   *ckptPath,
			RebuildEvery:     *rebuildN,
			RebuildInterval:  *rebuildT,
			SyncEvery:        *syncEvery,
			RebuildCrossover: *crossover,
			PyramidLevels:    *pyrLevels,
			PyramidMinGrid:   *pyrMinGrid,
		}
		if algoV == live.AlgoMEuler {
			if cfg.Areas, err = parseAreas(*areasArg); err != nil {
				log.Fatalf("geobrowsed: %v", err)
			}
		}
		if *shards > 1 {
			serveSharded(*addr, cfg, d, *shards, *maxLag, *probeIvl, *pprofOn, *report)
			return
		}
		start := time.Now()
		store, err := live.Open(cfg)
		if err != nil {
			log.Fatalf("geobrowsed: %v", err)
		}
		st := store.Status()
		log.Printf("live store open in %v: %s, %d objects, generation %d, %d replayed mutations (wal %q, %d bytes)",
			time.Since(start).Round(time.Millisecond), st.Algorithm, st.LiveObjects, st.Generation, st.Mutations, *walPath, st.WALBytes)
		gb := geobrowse.NewLiveServer(d.Name, store, opts)
		// Mount the shard/replication API beside the browse API so this
		// node can serve as a scatter-gather backend or replication leader.
		nh := shard.NodeHandler(store, telemetry.Default())
		mux := http.NewServeMux()
		mux.Handle("/", gb)
		mux.Handle("/api/shard/", nh)
		mux.Handle("/api/replica/", nh)
		run(*addr, mux, gb.StartDrain, gb, *pprofOn, *report, store)
		return
	}

	start := time.Now()
	est, err := buildEstimator(*algo, *areasArg, g, d)
	if err != nil {
		log.Fatalf("geobrowsed: %v", err)
	}
	log.Printf("built %s (%d buckets, %s) in %v", est.Name(), est.StorageBuckets(), latticeSummary(est), time.Since(start).Round(time.Millisecond))

	if *saveSum != "" {
		sum, err := spatialhist.SummaryOf(est)
		if err != nil {
			log.Fatalf("geobrowsed: %v", err)
		}
		if err := sum.SaveFile(*saveSum); err != nil {
			log.Fatalf("geobrowsed: %v", err)
		}
		log.Printf("saved summary to %s", *saveSum)
	}
	serve(*addr, d.Name, zoomWrap(est, *pyrLevels, *pyrMinGrid), opts, *pprofOn, *report)
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
func zoomWrap(est core.Estimator, levels, minGrid int) core.Estimator {
	if levels <= 0 {
		return est
	}
	opts := euler.PyramidOpts{MaxLevels: levels, MinGrid: minGrid}
	var z *core.Zoom
	var pyrs []*euler.Pyramid
	switch e := est.(type) {
	case *core.SEuler:
		p := euler.NewPyramid(e.Histogram(), opts)
		if p.Levels() < 2 {
			return est
		}
		z, pyrs = core.ZoomSEuler(p), []*euler.Pyramid{p}
	case *core.Euler:
		p := euler.NewPyramid(e.Histogram(), opts)
		if p.Levels() < 2 {
			return est
		}
		z, pyrs = core.ZoomEuler(p), []*euler.Pyramid{p}
	case *core.MEuler:
		hists := e.Histograms()
		pyrs = make([]*euler.Pyramid, len(hists))
		for i, h := range hists {
			pyrs[i] = euler.NewPyramid(h, opts)
		}
		if pyrs[0].Levels() < 2 {
			return est
		}
		zm, err := core.ZoomMEuler(e.Areas(), pyrs)
		if err != nil {
			log.Fatalf("geobrowsed: assembling zoom stack: %v", err)
		}
		z = zm
	default:
		return est
	}
	// The reduced tier shares the coarse pyramid lattices, so attaching
	// the overview is free; geobrowse only consults it when the server
	// (or tenant) opted in with a positive OverviewEpsilon.
	depth := pyrs[0].Levels()
	for _, p := range pyrs[1:] {
		depth = min(depth, p.Levels())
	}
	if o, ok := core.OverviewFromPyramids(pyrs, core.OverviewShift(depth)); ok {
		z.AttachOverview(o)
	}
	log.Printf("pyramid: %d levels over the base grid (%d buckets total)",
		z.NumLevels()-1, z.StorageBuckets())
	return z
}

// serveSharded opens n live stores — one per column band — routes the
// dataset's seed objects to their owning shards, and serves an
// in-process scatter-gather coordinator over them. Per-shard WAL and
// checkpoint files derive from the configured paths by suffix, so each
// shard recovers its own band independently on restart.
func serveSharded(addr string, base live.Config, d *dataset.Dataset, n int, maxLag int64, probe time.Duration, pprofOn bool, report time.Duration) {
	part, err := shard.NewPartition(base.Grid, n)
	if err != nil {
		log.Fatalf("geobrowsed: %v", err)
	}
	seeds := part.RouteRects(d.Rects)
	start := time.Now()
	stores := make([]*live.Store, n)
	groups := make([]shard.Backends, n)
	for i := 0; i < n; i++ {
		cfg := base
		cfg.Seed = seeds[i]
		if base.WALPath != "" {
			cfg.WALPath = fmt.Sprintf("%s.%d", base.WALPath, i)
		}
		if base.CheckpointPath != "" {
			cfg.CheckpointPath = fmt.Sprintf("%s.%d", base.CheckpointPath, i)
		}
		s, err := live.Open(cfg)
		if err != nil {
			log.Fatalf("geobrowsed: opening shard %d: %v", i, err)
		}
		stores[i] = s
		groups[i] = shard.Backends{Leader: &shard.LocalHandle{
			Store: s, Label: fmt.Sprintf("%s/shard%d", d.Name, i),
		}}
	}
	c, err := shard.NewCoordinator(shard.Config{
		Name:          d.Name,
		Shards:        groups,
		MaxLagBytes:   maxLag,
		ProbeInterval: probe,
		Telemetry:     telemetry.Default(),
	})
	if err != nil {
		log.Fatalf("geobrowsed: %v", err)
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
	run(addr, shard.NewServer(c, telemetry.Default()), nil, nil, pprofOn, report, nil, func() {
		if err := c.Close(); err != nil {
			log.Printf("geobrowsed: closing coordinator: %v", err)
		}
		for i, s := range stores {
			st := s.Status()
			if err := s.Close(); err != nil {
				log.Fatalf("geobrowsed: closing shard %d: %v", i, err)
			}
			log.Printf("shard %d closed at generation %d (%d mutations journaled)", i, st.Generation, st.Mutations)
		}
	})
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

// replicaHandler fronts a follower's store: browse reads and the shard
// estimate API are served locally, but local mutations are refused —
// writes belong to the leader, and a replica that accepted one would
// silently diverge from the stream it tails.
func replicaHandler(gb *geobrowse.Server, store *live.Store) http.Handler {
	nh := shard.NodeHandler(store, telemetry.Default())
	mux := http.NewServeMux()
	mux.Handle("/", gb)
	mux.Handle("/api/shard/", nh)
	mux.Handle("/api/replica/", nh)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && (r.URL.Path == "/api/ingest" || r.URL.Path == "/api/delete") {
			http.Error(w, "read-only replica: send writes to the leader", http.StatusForbidden)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// serve runs the GeoBrowse handler over a fixed estimator.
func serve(addr, name string, est core.Estimator, opts geobrowse.Options, pprofOn bool, report time.Duration) {
	gb := geobrowse.NewServerOpts(name, est, opts)
	run(addr, gb, gb.StartDrain, gb, pprofOn, report, nil)
}

// run serves handler (which exposes Prometheus metrics at /metrics),
// optionally mounts net/http/pprof, and starts the periodic self-report
// loop (gb may be nil in multi-tenant mode; cache stats are skipped). On
// SIGINT/SIGTERM it calls drain — flipping /healthz to 503 so load
// balancers stop routing here — then drains in-flight requests and, when
// fronting a live store, closes it — syncing the journal and writing the
// checkpoint — so a clean shutdown never loses acknowledged mutations.
func run(addr string, handler http.Handler, drain func(), gb *geobrowse.Server, pprofOn bool, report time.Duration, store *live.Store, cleanup ...func()) {
	if pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("pprof enabled at http://%s/debug/pprof/", addr)
	}
	if report > 0 {
		go selfReport(gb, report, store)
	}
	// The runtime last collected while start-up garbage — dataset buffers,
	// the builders' difference arrays, each as large as a lattice — was
	// still live, and paces the next collection at twice that. Collect once
	// here so the heap under load is paced by what the server keeps.
	runtime.GC()
	srv := &http.Server{
		Addr:         addr,
		Handler:      handler,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving GeoBrowse on http://%s/ (metrics at /metrics)", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case got := <-sig:
		log.Printf("received %v, shutting down", got)
		if drain != nil {
			drain()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("geobrowsed: draining requests: %v", err)
		}
		if store != nil {
			st := store.Status()
			if err := store.Close(); err != nil {
				log.Fatalf("geobrowsed: closing live store: %v", err)
			}
			log.Printf("live store closed at generation %d (%d mutations journaled)", st.Generation, st.Mutations)
		}
		for _, fn := range cleanup {
			fn()
		}
	}
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

func buildEstimator(algo, areasArg string, g *grid.Grid, d *dataset.Dataset) (core.Estimator, error) {
	switch algo {
	case "seuler":
		return core.SEulerFromRects(g, d.Rects), nil
	case "euler":
		return core.EulerFromRects(g, d.Rects), nil
	case "meuler":
		areas, err := parseAreas(areasArg)
		if err != nil {
			return nil, err
		}
		return core.NewMEuler(g, areas, d.Rects)
	}
	return nil, fmt.Errorf("unknown algorithm %q (want seuler, euler or meuler)", algo)
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
