package main

// The benchmark's contract: its workloads, and the metrics each kind of run
// owes. BENCHMARK.json at the root of the repository mirrors these tables
// (TestManifestMatchesSpec keeps them equal).

// accuracyAreas are the M-EulerApprox area thresholds every workload serves
// with: the paper's three-histogram configuration.
var accuracyAreas = []float64{1, 9, 100}

// size fixes how much data and time a workload uses. The smoke size keeps
// `go test` fast; measurements are only ever taken at full size.
type size struct {
	objects     int // seed objects of the standard dataset
	bigObjects  int // cold-maps dataset
	bigNX       int // cold-maps grid (bigNX × bigNX/2)
	coldMin     int // cold-maps tiles per map
	coldMax     int
	fanMin      int // shard-fanout tiles per map
	fanMax      int
	setupStarts int     // fewest cold starts per run; setup_s is their median
	warmup      float64 // seconds of discarded load before the timed window
}

var (
	fullSize = size{objects: 200_000, bigObjects: 1_000_000, bigNX: 1440, coldMin: 4000, coldMax: 16000,
		fanMin: 648, fanMax: 4050, setupStarts: 3, warmup: 1}
	smokeSize = size{objects: 20_000, bigObjects: 20_000, bigNX: 360, coldMin: 648, coldMax: 4050,
		fanMin: 648, fanMax: 4050, setupStarts: 1, warmup: 0.1}
)

const (
	// Cheap set-ups are repeated beyond size.setupStarts, up to
	// maxSetupStarts or until setupBudget seconds are spent, so that the
	// median of a 50 ms start is as steady as that of a 1.3 s one.
	maxSetupStarts = 9
	setupBudget    = 1.0

	// sessionRate is the fixed arrival rate of the open-loop session
	// workload, requests per second over both connections: about 40 % of
	// what two closed-loop connections reach on the commit that introduced
	// the benchmark. Frozen here; changing it starts a new series.
	sessionRate = 1500.0
	// ingestRate is the fixed mutation rate of the ingest feed.
	ingestRate = 5000.0
)

type workload struct {
	name string
	why  string
	run  func(*env) (*runResult, error)
}

var workloads = []workload{
	{"paper-queries", "library only, one goroutine: paper Q_n estimates and full-space tile maps, so core/euler/prefixsum are all of the time and HTTP, cache or encoder changes show nothing", runPaperQueries},
	{"session-mix", "open loop at a fixed 1500 req/s of small re-asked session maps: HTTP, mux, admission and the browse cache do the work, the sweep is under 5 %", runSessionMix},
	{"cold-maps", "closed loop of never-repeating 4k-16k-tile maps over a 1440x720 grid: every request sweeps, encodes and writes up to 1.5 MB, cache hit ratio near 0", runColdMaps},
	{"ingest-browse", "session reads beside a 5000 mutations/s write feed on a WAL-backed live store: publishes invalidate the cache and compete for the two cores", runIngestBrowse},
	{"shard-fanout", "closed loop of never-repeating maps through the in-process 2-shard coordinator: the only workload that crosses scatter-gather and merge", runShardFanout},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees; every workload reports every
// one of them from its untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"browse_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"tiles_per_s", "1/s", "higher", 0.25},
	{"rss_mb", "MB", "lower", 0.20},
	{"avg_rel_error", "ratio", "lower", 0.20},
}

// perLayer is what single layers cost, named layer.metric after the
// package measured; every workload reports every one of them from its
// traced run, 0 where the workload does not reach the layer.
var perLayer = []metricSpec{
	{name: "prefixsum.lookup_ns", unit: "ns", better: "lower"},
	{name: "prefixsum.build_ns_per_cell", unit: "ns", better: "lower"},
	{name: "prefixsum.repair_ns_per_cell", unit: "ns", better: "lower"},

	{name: "euler.sweep_ns_per_tile", unit: "ns", better: "lower"},
	{name: "euler.sweep_packed_ns_per_tile", unit: "ns", better: "lower"},
	{name: "euler.inside_sum_ns", unit: "ns", better: "lower"},
	{name: "euler.build_ms", unit: "ms", better: "lower"},
	{name: "euler.pyramid_build_ms", unit: "ms", better: "lower"},
	{name: "euler.buildfrom_ms", unit: "ms", better: "lower"},
	{name: "euler.pyramid_repair_ms", unit: "ms", better: "lower"},
	{name: "euler.lattice_bytes", unit: "bytes", better: "lower"},

	{name: "core.estimate_ns.seuler", unit: "ns", better: "lower"},
	{name: "core.estimate_ns.euler", unit: "ns", better: "lower"},
	{name: "core.estimate_ns.meuler", unit: "ns", better: "lower"},
	{name: "core.estimate_ns.zoom", unit: "ns", better: "lower"},
	{name: "core.estimategrid_ns_per_tile.meuler", unit: "ns", better: "lower"},
	{name: "core.estimategrid_ns_per_tile.zoom", unit: "ns", better: "lower"},
	{name: "core.coarse_level_share", unit: "ratio", better: "higher"},
	{name: "core.drill_ms", unit: "ms", better: "lower"},
	{name: "core.sweeps", unit: "count", better: "lower"},

	{name: "geobrowse.handler_hit_us", unit: "us", better: "lower"},
	{name: "geobrowse.handler_miss_us", unit: "us", better: "lower"},
	{name: "geobrowse.encode_ns_per_tile", unit: "ns", better: "lower"},
	{name: "geobrowse.bytes_per_tile", unit: "bytes", better: "lower"},
	{name: "geobrowse.self_us", unit: "us", better: "lower"},
	{name: "geobrowse.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "geobrowse.shed", unit: "count", better: "lower"},
	{name: "geobrowse.ingest_handler_us_per_mut", unit: "us", better: "lower"},

	{name: "live.insert_ns", unit: "ns", better: "lower"},
	{name: "live.flush_ms", unit: "ms", better: "lower"},
	{name: "live.wal_bytes_per_mut", unit: "bytes", better: "lower"},
	{name: "live.replay_muts_per_s", unit: "1/s", better: "higher"},
	{name: "live.rebuilds_incremental", unit: "count", better: "higher"},
	{name: "live.rebuilds_full", unit: "count", better: "lower"},
	{name: "live.generations", unit: "count", better: "higher"},
	{name: "live.pin_ns", unit: "ns", better: "lower"},

	{name: "shard.estimategrid_us", unit: "us", better: "lower"},
	{name: "shard.fanout_ratio", unit: "ratio", better: "lower"},
	{name: "shard.route_ns_per_rect", unit: "ns", better: "lower"},

	{name: "geobrowsed.browse_p50_ms", unit: "ms", better: "lower"},
	{name: "geobrowsed.query_p50_ms", unit: "ms", better: "lower"},
	{name: "geobrowsed.drill_p50_ms", unit: "ms", better: "lower"},
	{name: "geobrowsed.ingest_ack_p50_ms", unit: "ms", better: "lower"},
	{name: "geobrowsed.publish_ack_p50_ms", unit: "ms", better: "lower"},
	{name: "geobrowsed.recover_s", unit: "s", better: "lower"},
	{name: "geobrowsed.wire_us", unit: "us", better: "lower"},
	{name: "geobrowsed.cpu_s_per_kreq", unit: "s", better: "lower"},
	{name: "geobrowsed.body_mb_per_s", unit: "MB/s", better: "higher"},

	{name: "client.late_p95_ms", unit: "ms", better: "lower"},
	{name: "client.cpu_share", unit: "ratio", better: "lower"},
	{name: "client.trace_overhead_pct", unit: "%", better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     int    `json:"trace"`
	TraceHash string `json:"trace_hash"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Correct   bool   `json:"correct"`
	// Metrics holds the metrics the run owes: every end-to-end metric for
	// an untraced run, every per-layer metric for a traced one.
	Metrics map[string]metric `json:"metrics"`
	// Info holds what is printed beside them but never gated: tail
	// percentiles, sample counts, the rates the load was fixed at.
	Info       map[string]metric `json:"info,omitempty"`
	Rungs      []rung            `json:"rungs,omitempty"`
	FirstError string            `json:"first_error,omitempty"`
}

func newResult(e *env, name string) *runResult {
	return &runResult{Workload: name, Seed: e.seed, Trace: e.trace,
		Metrics: map[string]metric{}, Info: map[string]metric{}}
}

// owed lists the metrics a run in this mode must report.
func owed(trace int) []metricSpec {
	if trace != 0 {
		return perLayer
	}
	return endToEnd
}

// set records one owed metric, taking the unit from the spec tables.
func (r *runResult) set(name string, v float64) {
	for _, m := range owed(r.Trace) {
		if m.name == name {
			r.Metrics[name] = metric{v, m.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the spec for this mode")
}

func (r *runResult) info(name string, v float64, unit string) { r.Info[name] = metric{v, unit} }

// count adds one tally's operations to the run's totals.
func (r *runResult) count(t *tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	if t.firstErr != nil && r.FirstError == "" {
		r.FirstError = t.firstErr.Error()
	}
}

// finish reports per-layer metrics the workload does not reach as 0 and
// settles correctness.
func (r *runResult) finish() {
	if r.Trace != 0 {
		for _, m := range perLayer {
			if _, ok := r.Metrics[m.name]; !ok {
				r.Metrics[m.name] = metric{0, m.unit}
			}
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}
