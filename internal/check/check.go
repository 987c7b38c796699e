// Package check is the differential verification harness of the repo: one
// place that knows how to prove, with randomized evidence, that every
// estimation path agrees with every other path that must be its equal.
//
// The paper's claim (§4–§5) is that Euler-histogram estimators agree with
// exact Level 2 counts wherever their assumptions hold; after the batch,
// live-ingestion and incremental-rebuild work this repo has four
// independent implementations that must agree bit-for-bit:
//
//	estimator vs exact      S/M/EulerApprox vs internal/exact (N_d and
//	                        conservation always; all four counts on
//	                        assumption-clean configurations), plus the
//	                        exact evaluators cross-checked against each
//	                        other (EvaluateQuery vs EvaluateSet vs the
//	                        4-d prefix-sum Oracle).
//	batch vs per-tile       core.EstimateGrid / EstimateGridParallel /
//	                        EstimateGridInto (dirty plane, row bands) —
//	                        every caller of core.PlanGrid's exact path —
//	                        vs a per-tile Estimate loop.
//	incremental vs fresh    euler.BuildFrom chains (dirty-region repair,
//	                        scratch reuse, crossover fallback) vs a fresh
//	                        Build over the same objects.
//	replay vs live          WAL replay and checkpoint resume of a
//	                        live.Store vs an uninterrupted in-memory
//	                        store fed the identical mutations.
//
// plus the metamorphic properties the paper implies (per-tile
// conservation, translation and refinement consistency of tile maps,
// error collapse once the N_cd = 0 assumption holds) and deterministic
// failpoint crash checks over the WAL/checkpoint machinery
// (internal/check/failpoint).
//
// The checks read a live store the one way there is: estimators are pinned
// (AcquireEstimator) for as long as they are compared and released after
// (storeDiff), so the harness models the use it verifies.
//
// Every check is a pure function of a seed. On divergence the harness
// shrinks the dataset, query or mutation stream to a minimal reproducing
// counterexample and reports it with the seed, so a red soak run is
// immediately debuggable. Consumer packages run short budgets as ordinary
// `go test` property suites; cmd/checker soaks the same checks for a time
// budget and emits a JSON report; CI runs both on every PR.
package check

import (
	"fmt"
	"math/rand"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// Divergence is a minimized counterexample: two paths that must agree,
// disagreeing. It is the harness's only failure currency — checks either
// return nil or one of these.
type Divergence struct {
	// Check names the check that failed.
	Check string `json:"check"`
	// Seed reproduces the round (pass it to Run with rounds = 1).
	Seed int64 `json:"seed"`
	// Detail says which comparison diverged, in prose.
	Detail string `json:"detail"`
	// Grid describes the grid configuration of the counterexample.
	Grid string `json:"grid,omitempty"`
	// Rects is the minimized dataset, when the check is dataset-shaped.
	Rects []geom.Rect `json:"rects,omitempty"`
	// Polys and PolysB are the minimized polygon datasets (per join side),
	// for the rasterized-object checks.
	Polys  []geom.Polygon `json:"polys,omitempty"`
	PolysB []geom.Polygon `json:"polysB,omitempty"`
	// Mutations is the minimized mutation stream, for the live checks.
	Mutations []gen.Mutation `json:"mutations,omitempty"`
	// Query is the minimized diverging query span, when query-shaped.
	Query *grid.Span `json:"query,omitempty"`
	// Got and Want render the two sides of the disagreement.
	Got  string `json:"got,omitempty"`
	Want string `json:"want,omitempty"`
}

// Error implements error, so a Divergence can flow through error plumbing.
func (d *Divergence) Error() string { return d.String() }

// String renders the counterexample compactly.
func (d *Divergence) String() string {
	s := fmt.Sprintf("%s (seed %d): %s", d.Check, d.Seed, d.Detail)
	if d.Grid != "" {
		s += "\n  grid:  " + d.Grid
	}
	if d.Query != nil {
		s += fmt.Sprintf("\n  query: %v", *d.Query)
	}
	if len(d.Rects) > 0 {
		s += fmt.Sprintf("\n  rects (%d, minimized): %v", len(d.Rects), d.Rects)
	}
	if len(d.Polys) > 0 {
		s += fmt.Sprintf("\n  polys (%d, minimized): %v", len(d.Polys), d.Polys)
	}
	if len(d.PolysB) > 0 {
		s += fmt.Sprintf("\n  polysB (%d, minimized): %v", len(d.PolysB), d.PolysB)
	}
	if len(d.Mutations) > 0 {
		s += fmt.Sprintf("\n  mutations (%d, minimized):", len(d.Mutations))
		for _, m := range d.Mutations {
			if m.Op == gen.OpUpdate {
				s += fmt.Sprintf("\n    %v %v -> %v", m.Op, m.Old, m.R)
			} else {
				s += fmt.Sprintf("\n    %v %v", m.Op, m.R)
			}
		}
	}
	if d.Got != "" || d.Want != "" {
		s += fmt.Sprintf("\n  got:   %s\n  want:  %s", d.Got, d.Want)
	}
	return s
}

// Kind classifies a check for reporting.
type Kind string

// The three check families.
const (
	KindOracle      Kind = "oracle"
	KindMetamorphic Kind = "metamorphic"
	KindFailpoint   Kind = "failpoint"
)

// Check is one randomized verification. Run executes a single round
// seeded by seed and returns nil (clean) or a minimized Divergence.
type Check struct {
	Name string
	Kind Kind
	// Doc is the one-line contract the check enforces.
	Doc string
	Run func(seed int64) *Divergence
}

// Oracles returns the four differential oracles, in deterministic order.
func Oracles() []Check {
	return []Check{
		{
			Name: "estimator-vs-exact",
			Kind: KindOracle,
			Doc:  "S/M/EulerApprox agree with internal/exact wherever the paper guarantees it; the exact evaluators agree with each other everywhere",
			Run:  runEstimatorVsExact,
		},
		{
			Name: "batch-vs-per-tile",
			Kind: KindOracle,
			Doc:  "EstimateGrid, EstimateGridParallel and EstimateGridInto (dirty plane, row bands) are bit-identical to a per-tile Estimate loop",
			Run:  runBatchVsPerTile,
		},
		{
			Name: "incremental-vs-fresh",
			Kind: KindOracle,
			Doc:  "BuildFrom chains (repair, scratch reuse, crossover) are bit-identical to fresh builds",
			Run:  runIncrementalVsFresh,
		},
		{
			Name: "replay-vs-live",
			Kind: KindOracle,
			Doc:  "WAL replay and checkpoint resume reconstruct a store bit-identical to an uninterrupted one",
			Run:  runReplayVsLive,
		},
		{
			Name: "pyramid-vs-fresh",
			Kind: KindOracle,
			Doc:  "every pyramid level — cold-built or incrementally repaired through donor generations — is bit-identical to a fresh build of that coarse grid",
			Run:  runPyramidVsFresh,
		},
		{
			Name: "registry-evict-reload",
			Kind: KindOracle,
			Doc:  "a tenant evicted by the registry memory budget and rebuilt by its loader estimates bit-identically to its first incarnation",
			Run:  runRegistryEvictReload,
		},
		{
			Name: "sharded-vs-single",
			Kind: KindOracle,
			Doc:  "a coordinator's merged scatter-gather answers over column-band shards are bit-identical to one store fed the same stream, including under concurrent reads",
			Run:  runShardedVsSingle,
		},
		{
			Name: widthCheck,
			Kind: KindOracle,
			Doc:  "one script of publishes, pyramid repairs, file round trips, tile maps and joins reads the same whether every lattice plane stays at 4 bytes per bucket or the builders outgrow them mid-script and go to 8",
			Run:  runNarrowVsWide,
		},
		{
			Name: "replica-failover",
			Kind: KindOracle,
			Doc:  "a WAL-shipped follower killed and restarted mid-stream catches up bit-identical to its leader, and serves failover reads identically",
			Run:  runReplicaFailover,
		},
		{
			Name: "join-vs-exact",
			Kind: KindOracle,
			Doc:  "the two-histogram join product sum equals the exact dual-rtree pair count for MBR datasets and the exact summed Euler characteristic for rasterized objects, directly and through the resampling path",
			Run:  runJoinVsExact,
		},
	}
}

// Metamorphic returns the paper-derived metamorphic property checks.
func Metamorphic() []Check {
	return []Check{
		{
			Name: "conservation",
			Kind: KindMetamorphic,
			Doc:  "N_d + N_o + N_cs + N_cd = N for every estimator, every query and every tile of every map",
			Run:  runConservation,
		},
		{
			Name: "translation",
			Kind: KindMetamorphic,
			Doc:  "translating dataset and query by whole cells leaves every estimate unchanged",
			Run:  runTranslation,
		},
		{
			Name: "refinement",
			Kind: KindMetamorphic,
			Doc:  "tile maps are consistent under refinement: each coarse tile equals its own sub-map's tiles re-estimated directly",
			Run:  runRefinement,
		},
		{
			Name: "error-collapse",
			Kind: KindMetamorphic,
			Doc:  "once no object can contain or cross a query (N_cd = 0 holds), S-EulerApprox error collapses to zero and stays there as queries grow",
			Run:  runErrorCollapse,
		},
		{
			Name: "epsilon-bound",
			Kind: KindMetamorphic,
			Doc:  "the reduced tier's sandwich and slack certificates contain the exact sums for every query, and every served overview map stays within its reported ε bound",
			Run:  runEpsilonBound,
		},
		{
			Name: "pyramid-drill-conservation",
			Kind: KindMetamorphic,
			Doc:  "zoom-stack estimates equal the base level's for every query, and drill-down through pyramid levels preserves Eq. 11 conservation at every leaf",
			Run:  runPyramidDrill,
		},
		{
			Name: "raster-vs-mbr-refinement",
			Kind: KindMetamorphic,
			Doc:  "for the same objects, the MBR join equals the exact bounding-span pair count, the raster join equals the exact summed Euler characteristic, rasterization never raises the join above its MBR coarsening when all pair characteristics are unit, and aligned-rectangle joins certify exact",
			Run:  runRasterVsMBR,
		},
	}
}

// Failpoints returns the deterministic fault-injection checks over the
// live store's durability machinery.
func Failpoints() []Check {
	return []Check{
		{
			Name: "wal-crash-boundary",
			Kind: KindFailpoint,
			Doc:  "a WAL crash at an arbitrary byte boundary recovers to a store bit-identical to replaying the surviving record prefix",
			Run:  runWALCrashBoundary,
		},
		{
			Name: "checkpoint-crash",
			Kind: KindFailpoint,
			Doc:  "a crash mid-checkpoint leaves the previous checkpoint intact and recovery consistent",
			Run:  runCheckpointCrash,
		},
		{
			Name: "fsync-failure",
			Kind: KindFailpoint,
			Doc:  "an injected fsync failure surfaces as an error without corrupting the served snapshot",
			Run:  runFsyncFailure,
		},
	}
}

// All returns every check of the harness.
func All() []Check {
	var all []Check
	all = append(all, Oracles()...)
	all = append(all, Metamorphic()...)
	all = append(all, Failpoints()...)
	return all
}

// Named returns the check with the given name.
func Named(name string) (Check, bool) {
	for _, c := range All() {
		if c.Name == name {
			return c, true
		}
	}
	return Check{}, false
}

// Run executes rounds rounds of c, deriving round seeds from seed, and
// returns the first divergence (nil when every round is clean). Each
// round is independently reproducible: the reported Divergence.Seed
// re-runs just that round.
func Run(c Check, seed int64, rounds int) *Divergence {
	for i := 0; i < rounds; i++ {
		if d := c.Run(RoundSeed(seed, i)); d != nil {
			return d
		}
	}
	return nil
}

// RoundSeed derives the i-th round's seed from a suite seed, splitting the
// stream so rounds stay independent. cmd/checker uses it to keep soaking
// past the fixed-round budgets of the go test suites while any reported
// Divergence.Seed still reproduces alone.
func RoundSeed(seed int64, i int) int64 {
	return rand.New(rand.NewSource(seed + int64(i)*0x9E3779B9)).Int63()
}
