package check

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"spatialhist/internal/check/failpoint"
	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
	"spatialhist/internal/telemetry"
)

// applyMut feeds one generated mutation to a store.
func applyMut(s *live.Store, m gen.Mutation) (bool, error) {
	switch m.Op {
	case gen.OpInsert:
		return s.Insert(m.R)
	case gen.OpDelete:
		return s.Delete(m.R)
	default:
		return s.Update(m.Old, m.R)
	}
}

// estDiff sweeps two estimators that must be bit-identical over the probe
// queries, reporting the first disagreement.
func estDiff(got, want core.Estimator, queries []grid.Span) (string, string, bool) {
	if got.Count() != want.Count() {
		return fmt.Sprintf("Count=%d", got.Count()), fmt.Sprintf("Count=%d", want.Count()), true
	}
	for _, q := range queries {
		ge, we := got.Estimate(q), want.Estimate(q)
		if ge != we {
			return fmt.Sprintf("Estimate(%v)=%v", q, ge), fmt.Sprintf("Estimate(%v)=%v", q, we), true
		}
	}
	return "", "", false
}

// storeDiff is estDiff over two stores' published generations, pinned for
// as long as they are read and released after — as every reader of a live
// store does.
func storeDiff(got, want *live.Store, queries []grid.Span) (string, string, bool) {
	estA, _, releaseA := got.AcquireEstimator()
	defer releaseA()
	estB, _, releaseB := want.AcquireEstimator()
	defer releaseB()
	return estDiff(estA, estB, queries)
}

// randLiveAlgo draws a store algorithm (with thresholds for M-EulerApprox).
func randLiveAlgo(r *rand.Rand) (live.Algo, []float64) {
	switch r.Intn(3) {
	case 0:
		return live.AlgoSEuler, nil
	case 1:
		return live.AlgoEuler, nil
	default:
		return live.AlgoMEuler, randAreas(r)
	}
}

// liveCase is one randomized store configuration under differential test.
type liveCase struct {
	g            *grid.Grid
	algo         live.Algo
	areas        []float64
	seed         []geom.Rect
	rebuildEvery int
	syncEvery    int
	crossover    float64
	// ckptAt is the mutation index after which Checkpoint fires; < 0 means
	// no checkpoint (recovery replays the full WAL over the seed).
	ckptAt int
}

// configs returns the durable config (journal, and checkpoint when the
// case uses one) and its purely in-memory twin.
func (lc liveCase) configs(dir string) (durable, memory live.Config) {
	base := live.Config{
		Grid: lc.g, Algo: lc.algo, Areas: lc.areas, Seed: lc.seed,
		RebuildEvery: lc.rebuildEvery, SyncEvery: lc.syncEvery,
		RebuildCrossover: lc.crossover,
	}
	durable = base
	durable.WALPath = filepath.Join(dir, "journal.wal")
	if lc.ckptAt >= 0 {
		durable.CheckpointPath = filepath.Join(dir, "state.ckpt")
	}
	durable.Telemetry = telemetry.NewRegistry()
	memory = base
	memory.Telemetry = telemetry.NewRegistry()
	return durable, memory
}

// replayDiverges runs one full differential round: mutate a durable store
// and its in-memory twin identically, recover the durable one from disk,
// and sweep-compare the recovered estimator against the twin's. Any
// infrastructure failure is reported as a divergence — the harness treats
// "could not even run" as a red result, not a skip.
func replayDiverges(lc liveCase, muts []gen.Mutation, queries []grid.Span) (got, want string, bad bool) {
	dir, err := os.MkdirTemp("", "spcheck-replay-")
	if err != nil {
		return "creating temp dir: " + err.Error(), "", true
	}
	defer os.RemoveAll(dir)
	dcfg, mcfg := lc.configs(dir)

	a, err := live.Open(dcfg)
	if err != nil {
		return "opening durable store: " + err.Error(), "", true
	}
	defer a.Close()
	b, err := live.Open(mcfg)
	if err != nil {
		return "opening in-memory twin: " + err.Error(), "", true
	}
	defer b.Close()

	for i, m := range muts {
		okA, errA := applyMut(a, m)
		okB, errB := applyMut(b, m)
		if errA != nil || errB != nil {
			return fmt.Sprintf("mutation %d errored: durable=%v memory=%v", i, errA, errB), "", true
		}
		if okA != okB {
			return fmt.Sprintf("mutation %d accepted=%v (durable)", i, okA), fmt.Sprintf("accepted=%v (memory)", okB), true
		}
		if i == lc.ckptAt && dcfg.CheckpointPath != "" {
			if err := a.Checkpoint(); err != nil {
				return fmt.Sprintf("checkpoint after mutation %d: %v", i, err), "", true
			}
		}
	}
	if err := b.Flush(); err != nil {
		return "flushing twin: " + err.Error(), "", true
	}

	if lc.ckptAt >= 0 {
		// Checkpoint-resume path: leave the first handle open (its journal
		// is fully synced by Flush) and recover from the mid-stream
		// checkpoint plus the journal tail behind its offset.
		if err := a.Flush(); err != nil {
			return "flushing durable store: " + err.Error(), "", true
		}
	} else if err := a.Close(); err != nil {
		// Full-replay path: clean close, then recover from seed + journal.
		return "closing durable store: " + err.Error(), "", true
	}

	a2, err := live.Open(dcfg)
	if err != nil {
		return "recovering store: " + err.Error(), "", true
	}
	defer a2.Close()
	if err := a2.Flush(); err != nil {
		return "flushing recovered store: " + err.Error(), "", true
	}
	return storeDiff(a2, b, queries)
}

// ---------------------------------------------------------------------------
// Oracle 4: WAL replay / checkpoint resume vs the uninterrupted store.

func runReplayVsLive(seed int64) *Divergence {
	const name = "replay-vs-live"
	r := gen.Rand(seed)
	g := gen.Grid(r, 24, 24)
	algo, areas := randLiveAlgo(r)
	lc := liveCase{
		g: g, algo: algo, areas: areas,
		seed:         gen.Rects(r, g, 5+r.Intn(30), gen.RectOpts{}),
		rebuildEvery: []int{-1, 1, 7, 0}[r.Intn(4)],
		syncEvery:    r.Intn(4), // 0 (deferred) through 3
		crossover:    []float64{0, -1}[r.Intn(2)],
		ckptAt:       -1,
	}
	n := 30 + r.Intn(120)
	if r.Intn(2) == 0 {
		lc.ckptAt = r.Intn(n)
	}
	muts := gen.Mutations(r, g, lc.seed, n, gen.RectOpts{PointFrac: 0.1})
	queries := randQueries(r, g, 20)

	got, want, bad := replayDiverges(lc, muts, queries)
	if !bad {
		return nil
	}
	muts = shrinkSlice(muts, 40, func(ms []gen.Mutation) bool {
		_, _, bad := replayDiverges(lc, ms, queries)
		return bad
	})
	got, want, _ = replayDiverges(lc, muts, queries)
	return &Divergence{
		Check: name, Seed: seed, Grid: gridDesc(g),
		Detail: fmt.Sprintf("recovered store (%v, ckptAt=%d, syncEvery=%d) differs from the uninterrupted twin",
			lc.algo, lc.ckptAt, lc.syncEvery),
		Mutations: muts, Got: got, Want: want,
	}
}

// ---------------------------------------------------------------------------
// Failpoint checks: deterministic crashes inside the durability machinery.

// walRecordBytes is the journal wire size of one mutation: op byte, one
// rect (two for updates), CRC-32. Kept in sync with internal/live's format
// by TestWALRecordSizes in the live package.
func walRecordBytes(m gen.Mutation) int64 {
	if m.Op == gen.OpUpdate {
		return 1 + 2*4*8 + 4
	}
	return 1 + 4*8 + 4
}

func runWALCrashBoundary(seed int64) *Divergence {
	const name = "wal-crash-boundary"
	r := gen.Rand(seed)
	g := gen.Grid(r, 20, 20)
	algo, areas := randLiveAlgo(r)
	seedRects := gen.Rects(r, g, 5+r.Intn(20), gen.RectOpts{})
	muts := gen.Mutations(r, g, seedRects, 30+r.Intn(70), gen.RectOpts{PointFrac: 0.1})
	queries := randQueries(r, g, 24)

	var total int64
	for _, m := range muts {
		total += walRecordBytes(m)
	}
	// A crash boundary anywhere in the record stream: possibly before the
	// first byte, possibly mid-CRC of the last record.
	budget := r.Int63n(total)

	dir, err := os.MkdirTemp("", "spcheck-walcrash-")
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Detail: "creating temp dir: " + err.Error()}
	}
	defer os.RemoveAll(dir)
	defer failpoint.Reset()

	cfg := live.Config{
		Grid: g, Algo: algo, Areas: areas, Seed: seedRects,
		WALPath:   filepath.Join(dir, "journal.wal"),
		SyncEvery: 1, RebuildEvery: -1,
		Telemetry: telemetry.NewRegistry(),
	}
	a, err := live.Open(cfg)
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "opening store: " + err.Error()}
	}

	failpoint.SetWriteBudget(live.FailpointWALWrite, budget)
	surviving, rem := 0, budget
	var tripErr error
	for _, m := range muts {
		sz := walRecordBytes(m)
		if _, err := applyMut(a, m); err != nil {
			tripErr = err
			break
		}
		if sz > rem {
			failpoint.Reset()
			a.Close()
			return &Divergence{
				Check: name, Seed: seed, Grid: gridDesc(g),
				Detail: fmt.Sprintf("mutation %d (%d bytes) crossed the %d-byte budget yet reported success — WAL byte accounting is off", surviving, sz, budget),
			}
		}
		rem -= sz
		surviving++
	}
	switch {
	case tripErr == nil:
		failpoint.Reset()
		a.Close()
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: fmt.Sprintf("no injected failure although the %d-byte budget is below the %d-byte stream", budget, total)}
	case !errors.Is(tripErr, failpoint.ErrInjected):
		failpoint.Reset()
		a.Close()
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: "mutation failed with a foreign error instead of the injected one", Got: tripErr.Error()}
	}
	// The "crash": close with the failpoint still tripped, so nothing past
	// the cut can reach the file. What is on disk is records 0..surviving-1
	// plus a torn prefix of the next one.
	_ = a.Close()
	failpoint.Reset()

	a2, err := live.Open(cfg)
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: fmt.Sprintf("recovery after a crash at byte %d failed: %v", budget, err)}
	}
	defer a2.Close()
	mcfg := cfg
	mcfg.WALPath = ""
	mcfg.Telemetry = telemetry.NewRegistry()
	b, err := live.Open(mcfg)
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "opening reference twin: " + err.Error()}
	}
	defer b.Close()
	for _, m := range muts[:surviving] {
		if _, err := applyMut(b, m); err != nil {
			return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "mutating reference twin: " + err.Error()}
		}
	}
	if err := a2.Flush(); err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "flushing recovered store: " + err.Error()}
	}
	if err := b.Flush(); err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "flushing reference twin: " + err.Error()}
	}
	if got, want, bad := storeDiff(a2, b, queries); bad {
		return &Divergence{
			Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: fmt.Sprintf("store recovered from a crash at record-stream byte %d is not bit-identical to replaying the %d surviving records", budget, surviving),
			Got:    got, Want: want,
		}
	}
	return nil
}

// ckptMinBytes is a safe lower bound on any checkpoint payload (magic +
// config header + offsets), so budgets below it always cut mid-file.
const ckptMinBytes = 57

func runCheckpointCrash(seed int64) *Divergence {
	const name = "checkpoint-crash"
	r := gen.Rand(seed)
	g := gen.Grid(r, 16, 16)
	algo, areas := randLiveAlgo(r)
	seedRects := gen.Rects(r, g, 5+r.Intn(15), gen.RectOpts{})
	muts := gen.Mutations(r, g, seedRects, 40+r.Intn(40), gen.RectOpts{PointFrac: 0.1})
	half := len(muts) / 2
	queries := randQueries(r, g, 24)

	dir, err := os.MkdirTemp("", "spcheck-ckptcrash-")
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Detail: "creating temp dir: " + err.Error()}
	}
	defer os.RemoveAll(dir)
	defer failpoint.Reset()

	ckptPath := filepath.Join(dir, "state.ckpt")
	cfg := live.Config{
		Grid: g, Algo: algo, Areas: areas, Seed: seedRects,
		WALPath:        filepath.Join(dir, "journal.wal"),
		CheckpointPath: ckptPath,
		RebuildEvery:   -1,
		Telemetry:      telemetry.NewRegistry(),
	}
	a, err := live.Open(cfg)
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "opening store: " + err.Error()}
	}
	fail := func(detail string) *Divergence {
		a.Close()
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: detail}
	}
	for i, m := range muts[:half] {
		if _, err := applyMut(a, m); err != nil {
			return fail(fmt.Sprintf("mutation %d: %v", i, err))
		}
	}
	if err := a.Checkpoint(); err != nil {
		return fail("baseline checkpoint failed: " + err.Error())
	}
	before, err := os.ReadFile(ckptPath)
	if err != nil {
		return fail("reading baseline checkpoint: " + err.Error())
	}
	for i, m := range muts[half:] {
		if _, err := applyMut(a, m); err != nil {
			return fail(fmt.Sprintf("mutation %d: %v", half+i, err))
		}
	}

	// Crash the checkpoint writer mid-payload. The temp-and-rename protocol
	// must leave the baseline checkpoint byte-identical.
	failpoint.SetWriteBudget(live.FailpointCheckpointWrite, r.Int63n(ckptMinBytes))
	err = a.Checkpoint()
	if err == nil {
		return fail("checkpoint with a tripped write budget reported success")
	}
	if !errors.Is(err, failpoint.ErrInjected) {
		return fail("checkpoint failed with a foreign error instead of the injected one: " + err.Error())
	}
	if failpoint.Hits(live.FailpointCheckpointWrite) == 0 {
		return fail("checkpoint write failpoint never fired")
	}
	after, err := os.ReadFile(ckptPath)
	if err != nil {
		return fail("baseline checkpoint unreadable after crashed rewrite: " + err.Error())
	}
	if string(after) != string(before) {
		return fail("crashed checkpoint rewrite altered the previous checkpoint file")
	}
	// Keep the failpoint armed through Close so its checkpoint attempt dies
	// too: recovery must then come from the baseline checkpoint plus the
	// journal tail behind it.
	_ = a.Close()
	failpoint.Reset()

	a2, err := live.Open(cfg)
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: "recovery from baseline checkpoint + WAL tail failed: " + err.Error()}
	}
	defer a2.Close()
	mcfg := cfg
	mcfg.WALPath, mcfg.CheckpointPath = "", ""
	mcfg.Telemetry = telemetry.NewRegistry()
	b, err := live.Open(mcfg)
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "opening reference twin: " + err.Error()}
	}
	defer b.Close()
	for _, m := range muts {
		if _, err := applyMut(b, m); err != nil {
			return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "mutating reference twin: " + err.Error()}
		}
	}
	if err := a2.Flush(); err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "flushing recovered store: " + err.Error()}
	}
	if err := b.Flush(); err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "flushing reference twin: " + err.Error()}
	}
	if got, want, bad := storeDiff(a2, b, queries); bad {
		return &Divergence{
			Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: "store recovered from the surviving checkpoint + WAL tail differs from the uninterrupted twin",
			Got:    got, Want: want,
		}
	}
	return nil
}

func runFsyncFailure(seed int64) *Divergence {
	const name = "fsync-failure"
	r := gen.Rand(seed)
	g := gen.Grid(r, 16, 16)
	algo, areas := randLiveAlgo(r)
	seedRects := gen.Rects(r, g, 5+r.Intn(15), gen.RectOpts{})
	muts := gen.Mutations(r, g, seedRects, 20+r.Intn(40), gen.RectOpts{PointFrac: 0.1})
	queries := randQueries(r, g, 24)

	dir, err := os.MkdirTemp("", "spcheck-fsync-")
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Detail: "creating temp dir: " + err.Error()}
	}
	defer os.RemoveAll(dir)
	defer failpoint.Reset()

	cfg := live.Config{
		Grid: g, Algo: algo, Areas: areas, Seed: seedRects,
		WALPath:   filepath.Join(dir, "journal.wal"),
		SyncEvery: 0, RebuildEvery: -1,
		Telemetry: telemetry.NewRegistry(),
	}
	a, err := live.Open(cfg)
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "opening store: " + err.Error()}
	}
	defer a.Close()
	for i, m := range muts {
		if _, err := applyMut(a, m); err != nil {
			return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: fmt.Sprintf("mutation %d: %v", i, err)}
		}
	}

	failpoint.SetError(live.FailpointWALSync, nil)
	if err := a.Flush(); !errors.Is(err, failpoint.ErrInjected) {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: fmt.Sprintf("Flush with a failing fsync returned %v, want the injected error", err)}
	}
	failpoint.Clear(live.FailpointWALSync)
	// The failed sync must not have poisoned the store: the next Flush
	// succeeds and the published snapshot matches the in-memory twin's.
	if err := a.Flush(); err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "Flush after clearing the failpoint still fails: " + err.Error()}
	}
	mcfg := cfg
	mcfg.WALPath = ""
	mcfg.Telemetry = telemetry.NewRegistry()
	b, err := live.Open(mcfg)
	if err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "opening reference twin: " + err.Error()}
	}
	defer b.Close()
	for _, m := range muts {
		if _, err := applyMut(b, m); err != nil {
			return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "mutating reference twin: " + err.Error()}
		}
	}
	if err := b.Flush(); err != nil {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: "flushing reference twin: " + err.Error()}
	}
	if got, want, bad := storeDiff(a, b, queries); bad {
		return &Divergence{
			Check: name, Seed: seed, Grid: gridDesc(g),
			Detail: "snapshot served across a failed fsync differs from the uninterrupted twin",
			Got:    got, Want: want,
		}
	}
	return nil
}
