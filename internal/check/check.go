// Package check is the verification harness of the repo: one place that
// knows how to prove, with randomized evidence, that every estimation path
// gives the answers the paper (§4–§5) says it must.
//
// Three families compare against truth:
//
//	estimator vs exact   S/M/EulerApprox vs internal/exact (N_d and
//	                     conservation always; all four counts on
//	                     assumption-clean configurations), and the exact
//	                     evaluators cross-checked against each other.
//	metamorphic          relations the paper implies: per-tile
//	                     conservation, translation and refinement of tile
//	                     maps, error collapse once N_cd = 0 holds,
//	                     zoom-stack drill-down.
//	failpoint            WAL and checkpoint crashes (internal/check/failpoint),
//	                     recovery held to a fresh build of what survived.
//
// The fourth compares paths with each other: the transcript checks carry
// out one seeded script (gen.Script) of mutations, publishes, checkpoints,
// restarts and probes with a set of interpreters — fresh builds, BuildFrom
// chains, live stores over journals, shard coordinators, every tile-map
// sweep, a lowered cell-width limit — and hold every transcript to
// the fresh reference's, entry for entry.
//
// Stores are read the one way there is: estimators are pinned
// (AcquireEstimator) for as long as they are read and released after, so
// the harness models the use it verifies.
//
// Every check is a pure function of a seed. On divergence the harness
// shrinks the dataset, query or script to a minimal reproducing
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
	// Steps is the minimized script, for the transcript checks.
	Steps []gen.Step `json:"steps,omitempty"`
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
	if len(d.Steps) > 0 {
		s += fmt.Sprintf("\n  script (%d steps, minimized):", len(d.Steps))
		for _, st := range d.Steps {
			s += "\n    " + st.String()
		}
	}
	if d.Got != "" || d.Want != "" {
		s += fmt.Sprintf("\n  got:   %s\n  want:  %s", d.Got, d.Want)
	}
	return s
}

// Kind classifies a check for reporting.
type Kind string

// The four check families.
const (
	KindOracle      Kind = "oracle"
	KindTranscript  Kind = "transcript"
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

// Oracles returns the checks against exact ground truth.
func Oracles() []Check {
	return []Check{
		{"estimator-vs-exact", KindOracle,
			"S/M/EulerApprox agree with internal/exact wherever the paper guarantees it; the exact evaluators agree with each other everywhere", runEstimatorVsExact},
	}
}

// Transcripts returns the transcript checks: the fresh reference against
// one interpreter per axis, then against compositions of the axes.
func Transcripts() []Check {
	// lowered draws the narrow limit: a few dozen updates one time in n,
	// so that builders start narrow and widen mid-script, else the real one.
	lowered := func(r *rand.Rand, n int) int64 {
		if r.Intn(n) == 0 {
			return int64(r.Intn(48))
		}
		return -1
	}
	sw := func(r *rand.Rand) sweep { return sweep(r.Intn(3)) }
	// store draws a store interpreter on the axes given — up to
	// axes.shards shards — with the dice.
	store := func(axes storeOpts) func(r *rand.Rand) []config {
		return func(r *rand.Rand) []config {
			o := drawStore(r)
			o.wal = axes.wal
			if axes.shards > 0 {
				o.shards = 1 + r.Intn(axes.shards)
			}
			return []config{storeConfig(o, lowered(r, 4), sw(r), r.Int63())}
		}
	}
	return []Check{
		transcriptCheck("sweeps-vs-per-tile", "EstimateGrid and Plan.Add (onto a dirty plane, in random row bands) answer every tile map as a per-tile Estimate loop does",
			func(r *rand.Rand) []config { return []config{freshConfig(sweep(1+r.Intn(2)), r.Int63())} }),
		transcriptCheck("chain-vs-fresh", "BuildFrom chains (repair and full rebuild as the script's data choose, with and without scratch donation) and PyramidFrom repairs read as fresh and direct coarse builds, at either cell width, and each width follows its builder's count of updates",
			func(r *rand.Rand) []config { return []config{chainConfig(lowered(r, 2), sw(r), r.Int63())} }),
		transcriptCheck("store-vs-fresh", "a live.Store publishing on its own schedule, through its arena and pyramids, reads as fresh builds",
			store(storeOpts{})),
		transcriptCheck("durable-vs-fresh", "a journaled live.Store, checkpointed and reopened mid-script — by full replay or from its checkpoint and the journal tail — reads as fresh builds",
			store(storeOpts{wal: true})),
		transcriptCheck("sharded-vs-fresh", "a coordinator over 1–4 column-band shards, written and read through while a concurrent reader maps the space, reads as fresh builds",
			store(storeOpts{shards: 4})),
		transcriptCheck("composed-vs-fresh", "compositions read as fresh builds: a journaled, checkpointed store under a lowered cell-width limit, reopened mid-script; a 2-shard coordinator over journaled shards restarted from their WALs",
			func(r *rand.Rand) []config {
				durable, shards := drawStore(r), drawStore(r)
				durable.wal, durable.ckpt = true, true
				shards.wal, shards.shards = true, 2
				return []config{
					storeConfig(durable, int64(r.Intn(48)), sw(r), r.Int63()),
					storeConfig(shards, lowered(r, 2), sw(r), r.Int63()),
				}
			}),
	}
}

// Metamorphic returns the paper-derived metamorphic property checks.
func Metamorphic() []Check {
	return []Check{
		{"conservation", KindMetamorphic,
			"N_d + N_o + N_cs + N_cd = N for every estimator, every query and every tile of every map", runConservation},
		{"translation", KindMetamorphic,
			"translating dataset and query by whole cells leaves every estimate unchanged", runTranslation},
		{"refinement", KindMetamorphic,
			"tile maps are consistent under refinement: each coarse tile equals its own sub-map's tiles re-estimated directly", runRefinement},
		{"error-collapse", KindMetamorphic,
			"once no object can contain or cross a query (N_cd = 0 holds), S-EulerApprox error collapses to zero and stays there as queries grow", runErrorCollapse},
		{"pyramid-drill-conservation", KindMetamorphic,
			"drill-down through the zoom stack's pyramid levels preserves Eq. 11 conservation at every leaf", runPyramidDrill},
	}
}

// Failpoints returns the deterministic fault-injection checks over the
// live store's durability machinery.
func Failpoints() []Check {
	return []Check{
		{"wal-crash-boundary", KindFailpoint,
			"a WAL crash at an arbitrary byte boundary recovers to a store bit-identical to replaying the surviving record prefix", runWALCrashBoundary},
		{"checkpoint-crash", KindFailpoint,
			"a crash mid-checkpoint leaves the previous checkpoint intact and recovery consistent", runCheckpointCrash},
		{"fsync-failure", KindFailpoint,
			"an injected fsync failure surfaces as an error without corrupting the served snapshot", runFsyncFailure},
	}
}

// All returns every check of the harness.
func All() []Check {
	var all []Check
	all = append(all, Oracles()...)
	all = append(all, Transcripts()...)
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
