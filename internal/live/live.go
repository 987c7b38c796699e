// Package live is the ingestion subsystem between the histogram builders
// and the serving path: a mutable Euler-histogram store that accepts
// streaming inserts, deletes and updates of object MBRs while browse
// traffic keeps reading immutable snapshots.
//
// The paper builds its histograms once over a static dataset; a production
// browsing service sees objects arrive and disappear continuously. The
// store exploits the O(1) incremental Add/Remove of euler.Builder's
// difference array: every mutation is journaled to a write-ahead log
// (crash recovery), applied to the builders of the planes it counts in, and made
// visible by the rebuild policy, which finalizes the builders into a fresh
// generation — difference array → cumulative form → core estimator — published
// by atomic pointer swap. Readers never lock: they pin the current Snapshot
// (AcquireEstimator), query it and release it; a snapshot is exactly as
// stale as the mutations applied since its generation was built, which
// Status reports.
//
// Rebuilds are triggered every RebuildEvery mutations, every
// RebuildInterval of wall time, or by an explicit Flush. An M-EulerApprox
// store's builders hold its nested planes: a mutation goes to its area
// group's plane and every plane above, the group chosen by NewMEuler's
// rule (core.ObjectAreaGroup), so deletes find the planes their insert
// chose and an Update re-routes an object in one atomic journal record.
package live

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

// Algo selects which estimator snapshots are rebuilt into: core's, whose
// values are the on-disk tags of the WAL and checkpoint formats.
type Algo = core.Algo

// The three paper algorithms.
const (
	AlgoSEuler = core.AlgoSEuler
	AlgoEuler  = core.AlgoEuler
	AlgoMEuler = core.AlgoMEuler
)

// DefaultRebuildEvery is the mutation count between snapshot rebuilds when
// Config.RebuildEvery is zero.
const DefaultRebuildEvery = 4096

// ErrClosed is returned by mutations on a closed store.
var ErrClosed = errors.New("live: store is closed")

// Config configures Open.
type Config struct {
	// Grid fixes the resolution; required.
	Grid *grid.Grid
	// Algo selects the estimator rebuilt at each generation; required.
	Algo Algo
	// Areas are the M-EulerApprox area thresholds (unit cells, ascending,
	// starting at 1); required iff Algo == AlgoMEuler.
	Areas []float64
	// Seed are the base objects inserted before any journaled mutation.
	// They are NOT journaled: recovery replays the WAL over the same seed
	// (or over a checkpoint, which supersedes the seed).
	Seed []geom.Rect
	// WALPath is the journal file, created if absent and replayed if
	// present. Empty disables durability (a purely in-memory store).
	WALPath string
	// CheckpointPath, when set, is loaded at Open (if present) in place of
	// Seed, with only the WAL tail past the checkpoint replayed; Close and
	// Checkpoint write it.
	CheckpointPath string
	// RebuildEvery triggers a snapshot rebuild every K applied mutations.
	// 0 means DefaultRebuildEvery; negative disables count-based rebuilds.
	RebuildEvery int
	// RebuildInterval triggers a rebuild whenever mutations are pending
	// and this much time has passed since the last one. 0 disables.
	RebuildInterval time.Duration
	// SyncEvery fsyncs the WAL every N records. 0 defers durability to
	// Flush/Checkpoint/Close (fastest; a crash may lose buffered records —
	// never corrupt the store). 1 makes every mutation durable.
	SyncEvery int
	// PyramidLevels enables multi-resolution serving: each generation
	// carries up to this many coarse histogram levels above the base, kept
	// incrementally by propagating the rebuild's dirty region up the stack,
	// and the published estimator routes level-aligned tile maps to the
	// coarsest level that answers them exactly. <= 0 disables pyramids.
	PyramidLevels int
	// PyramidMinGrid stops coarsening before either axis would drop below
	// this many cells. 0 means euler.DefaultPyramidMinGrid.
	PyramidMinGrid int
	// Telemetry receives the store's metrics; nil means telemetry.Default().
	Telemetry *telemetry.Registry
}

func (c Config) validate() error {
	if c.Grid == nil {
		return errors.New("live: Config.Grid is required")
	}
	if err := c.spec().Validate(); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	return nil
}

// spec is the estimator the config names; its Groups is how many builders
// (planes) the store keeps.
func (c Config) spec() core.Spec { return core.Spec{Algo: c.Algo, Areas: c.Areas} }

// header is the config-pinning header of the store's WAL and checkpoints.
func (c Config) header() []byte { return encodeHeader(uint8(c.Algo), c.Grid, c.Areas) }

// Snapshot is one immutable generation of the store: a finalized estimator
// plus its provenance. Snapshots are safe for unlimited concurrent queries
// and never change after publication.
type Snapshot struct {
	// Gen is the generation number, strictly increasing from 1.
	Gen uint64
	// Est answers queries at this generation.
	Est core.Estimator
	// Count is the number of live objects in this generation.
	Count int64
	// Mutations is how many journal mutations (including replayed ones)
	// were folded in when the generation was built.
	Mutations int64
	// BuiltAt is when the generation was published.
	BuiltAt time.Time
	// CellWidth is the widest cell, in bytes per bucket, of the lattices
	// serving this generation: 4 for every store until a plane has seen
	// more than MaxInt32 mutations, 8 once the planes are held that wide.
	CellWidth int

	// refs pins the generation's histogram buffers against arena reuse:
	// initialized to 1 (the published ref, dropped on retirement), raised
	// by pinned readers, terminal at 0.
	refs atomic.Int64
}

// Store is a WAL-backed mutable histogram store with generational
// snapshots. All methods are safe for concurrent use.
type Store struct {
	cfg    Config
	spec   core.Spec // cfg's algorithm and thresholds
	header []byte    // config-pinning WAL/checkpoint header

	mu       sync.Mutex // guards builders, wal appends, applied, closed
	builders []*euler.Builder
	wal      *wal
	applied  int64 // mutations applied to the builders (incl. replayed)
	closed   bool

	// ckptOff is the journal offset of the checkpoint Open loaded: a
	// journal-less store writes it back, so its checkpoint still tells a
	// later journaled Open where its journal resumes.
	ckptOff int64

	rebuildMu sync.Mutex // serializes rebuilds so generations publish in order
	lastHists []*euler.Histogram
	lastPyrs  []*euler.Pyramid // nil entries when pyramids are disabled

	arena   *genArena
	snap    atomic.Pointer[Snapshot]
	gen     atomic.Uint64
	pending atomic.Int64 // mutations applied since the last rebuild

	rejected atomic.Int64

	stop chan struct{} // closes the interval-rebuild goroutine
	done chan struct{}

	m *metrics
}

// Open builds (or recovers) a store. It starts from the checkpoint if one
// is configured and present, else from Seed. It then replays its journal
// past the checkpoint's offset (or the whole log): one buffer through
// decodeRecords, each record applied as it is decoded, through the apply
// path of a live mutation. Last it publishes generation 1 and starts the
// rebuild timer. Replay is
// deterministic, so a recovered store's estimates are bit-identical to an
// uninterrupted one's.
func Open(cfg Config) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	spec := cfg.spec()
	s := &Store{
		cfg:       cfg,
		spec:      spec,
		header:    cfg.header(),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		m:         newMetrics(cfg.Telemetry),
		lastHists: make([]*euler.Histogram, spec.Groups()),
		lastPyrs:  make([]*euler.Pyramid, spec.Groups()),
		arena:     newGenArena(spec.Groups()),
	}

	seeded := false
	if cfg.CheckpointPath != "" {
		builders, off, applied, err := loadCheckpoint(cfg.CheckpointPath, s.header, spec.Groups())
		switch {
		case err == nil:
			s.builders, s.ckptOff, s.applied = builders, off, applied
			seeded = true
		case errors.Is(err, errNoCheckpoint):
			// First start: fall through to the seed.
		default:
			return nil, err
		}
	}
	if !seeded {
		// Each seed object goes into its own group's builder, and each
		// builder then takes in the one below: one insert an object.
		s.builders = make([]*euler.Builder, spec.Groups())
		for i := range s.builders {
			s.builders[i] = euler.NewBuilder(cfg.Grid)
		}
		for _, r := range cfg.Seed {
			if gi, ok := spec.Group(cfg.Grid, r); ok {
				s.builders[gi].Add(r)
			}
		}
		for i := 1; i < len(s.builders); i++ {
			s.builders[i].Merge(s.builders[i-1])
		}
	}

	if cfg.WALPath != "" {
		w, torn, err := openWAL(cfg.WALPath, s.header, s.ckptOff, cfg.SyncEvery, s.replayed)
		if err != nil {
			return nil, err
		}
		s.wal = w
		if torn {
			s.m.tornTails.Inc()
		}
		s.m.walBytes.Add(w.size)
	}

	s.rebuild()
	if cfg.RebuildInterval > 0 {
		go s.rebuildLoop(cfg.RebuildInterval)
	} else {
		close(s.done)
	}
	return s, nil
}

// Grid returns the store's resolution; constant across generations.
func (s *Store) Grid() *grid.Grid { return s.cfg.Grid }

// Algo returns the configured estimator algorithm.
func (s *Store) Algo() Algo { return s.cfg.Algo }

// Insert adds one object MBR. It reports whether the object landed inside
// the data space (objects entirely outside are journaled but rejected,
// exactly as a batch build skips them).
func (s *Store) Insert(r geom.Rect) (bool, error) {
	return s.mutate(Record{Op: OpInsert, Rect: r})
}

// Delete removes one previously inserted object MBR. It reports whether
// the delete was applied: deletes of objects outside the space, or against
// an empty area group (which would underflow its count), are rejected.
func (s *Store) Delete(r geom.Rect) (bool, error) {
	return s.mutate(Record{Op: OpDelete, Rect: r})
}

// Update replaces an object's MBR in one atomic journal record. When the
// object's area class changes, it is re-routed between M-EulerApprox
// area groups: removed from the planes its old MBR counts in and inserted
// into those of the new one.
func (s *Store) Update(old, new geom.Rect) (bool, error) {
	return s.mutate(Record{Op: OpUpdate, Old: old, Rect: new})
}

// Apply feeds one batch of inserts (OpInsert) or deletes (OpDelete) through
// the store, publishing and syncing at the end when flush is set — the body
// of every mutation endpoint. applied counts the mutations that changed the
// store, rejected those that did not (journaled regardless); gen is the
// generation published after the batch. An error — the store is closed, its
// journal failed — stops the batch where it is, since nothing later in it
// can succeed, with the counts so far.
func (s *Store) Apply(op byte, rects []geom.Rect, flush bool) (applied, rejected int, gen uint64, err error) {
	if op != OpInsert && op != OpDelete {
		return 0, 0, 0, fmt.Errorf("live: unsupported mutation opcode %d", op)
	}
	for _, r := range rects {
		ok, err := s.mutate(Record{Op: op, Rect: r})
		if err != nil {
			return applied, rejected, 0, err
		}
		if ok {
			applied++
		} else {
			rejected++
		}
	}
	if flush {
		if err := s.Flush(); err != nil {
			return applied, rejected, 0, err
		}
	}
	return applied, rejected, s.Generation(), nil
}

// mutate journals rec (write-ahead), applies it to the builders, counts
// it and runs the count-based rebuild policy. A record that cannot be
// journaled is not applied.
func (s *Store) mutate(rec Record) (bool, error) {
	s.mu.Lock()
	if err := s.journal(rec); err != nil {
		s.mu.Unlock()
		return false, err
	}
	ok := s.apply(rec)
	s.applied++
	s.mu.Unlock()

	s.m.mutation(rec.Op)
	if !ok {
		s.rejected.Add(1)
		s.m.rejected.Inc()
	}
	p := s.pending.Add(1)
	s.m.pendingG.Set(p)
	if every := s.rebuildEvery(); every > 0 && p >= int64(every) {
		s.rebuild()
	}
	return ok, nil
}

// journal appends rec to the WAL, when there is one, before it is applied.
// Called with mu held.
func (s *Store) journal(rec Record) error {
	if s.closed {
		return ErrClosed
	}
	if s.wal == nil {
		return nil
	}
	n, err := s.wal.append(rec)
	if err != nil {
		return fmt.Errorf("live: journaling mutation: %w", err)
	}
	s.m.walBytes.Add(n)
	return nil
}

// replayed applies one record read back from the journal at Open: the
// apply of every mutation, with the telemetry and the publish policy left
// to the generation Open publishes once the journal is consumed.
func (s *Store) replayed(rec Record) {
	if !s.apply(rec) {
		s.rejected.Add(1)
	}
	s.applied++
}

func (s *Store) rebuildEvery() int {
	switch {
	case s.cfg.RebuildEvery > 0:
		return s.cfg.RebuildEvery
	case s.cfg.RebuildEvery == 0:
		return DefaultRebuildEvery
	}
	return 0
}

// apply routes one journal record into the builders. Called with mu held
// (or, during Open, before the store is shared); the identical code path
// serves live and replayed mutations, which is what makes recovery
// bit-identical.
func (s *Store) apply(rec Record) bool {
	switch rec.Op {
	case OpInsert:
		return s.applyInsert(rec.Rect)
	case OpDelete:
		return s.applyDelete(rec.Rect)
	case OpUpdate:
		removed := s.applyDelete(rec.Old)
		added := s.applyInsert(rec.Rect)
		return removed || added
	}
	return false
}

// applyInsert adds r to every plane that counts it. Add refuses only what
// snaps outside the grid, so the first builder speaks for all.
func (s *Store) applyInsert(r geom.Rect) bool {
	gi, ok := s.spec.Group(s.cfg.Grid, r)
	if !ok || !s.builders[gi].Add(r) {
		return false
	}
	for _, b := range s.builders[gi+1:] {
		b.Add(r)
	}
	return true
}

// applyDelete removes r from every plane that counts it, refusing one from
// an empty area group: its plane holds no more objects than the one below.
func (s *Store) applyDelete(r geom.Rect) bool {
	gi, ok := s.spec.Group(s.cfg.Grid, r)
	if !ok || gi > 0 && s.builders[gi].Count() == s.builders[gi-1].Count() || !s.builders[gi].Remove(r) {
		return false
	}
	for _, b := range s.builders[gi+1:] {
		b.Remove(r)
	}
	return true
}

// rebuild finalizes the builders into a new generation and publishes it.
// Each partition goes through euler.BuildFrom against the last published
// histogram: untouched partitions are shared by pointer, touched ones are
// repaired on a recycled buffer from the arena (or a clone when none is
// free) or, when their dirty box is too wide for repair to pay, rebuilt in
// full into that buffer — BuildFrom decides from the box alone. When every
// partition is untouched the current snapshot already represents the store
// and no new generation is published.
func (s *Store) rebuild() {
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	start := time.Now()

	lattice := (2*s.cfg.Grid.NX() - 1) * (2*s.cfg.Grid.NY() - 1)
	hists := make([]*euler.Histogram, len(s.builders))
	// moved bounds where a partition's new histogram differs from the last
	// published one: its builder's dirty box. dmg bounds where it differs
	// from the buffers the build was handed — moved, widened by a donated
	// lease's staleness — which is what the pyramid over that lease lags.
	moved := make([]euler.DirtyRegion, len(s.builders))
	dmg := make([]euler.DirtyRegion, len(s.builders))
	leases := make([]*histLease, len(s.builders))
	incremental := true
	var dirtyArea float64

	s.mu.Lock()
	// The planes share one cell width: once one builder is wide, all are.
	if slices.ContainsFunc(s.builders, func(b *euler.Builder) bool { return b.CellWidth() == 8 }) {
		for _, b := range s.builders {
			b.Widen()
		}
	}
	for i, b := range s.builders {
		prev := s.lastHists[i]
		if prev != nil && b.Dirty().Empty() {
			hists[i] = prev
			dmg[i] = euler.EmptyRegion()
			continue
		}
		var opts euler.BuildFromOpts
		if lease := s.arena.take(i, b.CellWidth()); lease != nil {
			opts.Scratch, opts.Stale = lease.hist, lease.stale
			leases[i] = lease
		}
		moved[i] = b.Dirty()
		h, stats := b.BuildFrom(prev, opts)
		hists[i] = h
		dmg[i] = stats.Dirty
		if !stats.Incremental {
			incremental = false
		}
		dirtyArea += stats.DirtyFrac * float64(lattice)
	}
	applied := s.applied
	s.mu.Unlock()

	prevSnap := s.snap.Load()
	changed := false
	for i := range hists {
		if hists[i] != s.lastHists[i] {
			changed = true
		}
	}
	if !changed && prevSnap != nil {
		// Every mutation since the last publish was rejected or net-zero:
		// the published snapshot is already exact. Skip the generation
		// bump so browse caches stay warm.
		s.pending.Store(0)
		s.m.pendingG.Set(0)
		s.m.rebuildIncremental.Inc()
		s.m.dirtyFrac.Observe(0)
		s.m.rebuilds.ObserveDuration(time.Since(start))
		return
	}

	pyrs := s.derivePyramids(hists, dmg, leases)
	est := s.estimatorFor(hists, pyrs)
	width := 4
	var fullBytes, packedBytes int
	for _, h := range hists {
		if h.CellWidth() == 4 {
			packedBytes += h.LatticeBytes()
		} else {
			fullBytes += h.LatticeBytes()
			width = 8
		}
	}
	snap := &Snapshot{
		Gen:       s.gen.Add(1),
		Est:       est,
		Count:     est.Count(),
		Mutations: applied,
		BuiltAt:   time.Now(),
		CellWidth: width,
	}
	snap.refs.Store(1) // the published ref, dropped at retirement

	for i := range hists {
		if hists[i] == s.lastHists[i] && s.lastHists[i] != nil {
			s.arena.attach(i, hists[i], s.pyrAt(pyrs, i), snap)
			continue
		}
		// Everything retained for this partition now lags the published
		// content by what moved; record that before tracking the new
		// histogram (whose lag is empty). Not dmg: a lease's own
		// staleness, handed to the build, is no lag of the others', and
		// charging it to them would spread one wide publish to every later
		// one.
		s.arena.damage(i, moved[i])
		s.arena.track(i, hists[i], s.pyrAt(pyrs, i), snap)
		s.arena.prune(i)
		s.lastHists[i] = hists[i]
		if pyrs != nil {
			s.lastPyrs[i] = pyrs[i]
		}
	}

	old := s.snap.Swap(snap)
	s.pending.Store(0)
	if old != nil {
		s.release(old)
	}

	s.m.latticeFull.Set(int64(fullBytes))
	s.m.latticePacked.Set(int64(packedBytes))

	if incremental {
		s.m.rebuildIncremental.Inc()
	} else {
		s.m.rebuildFull.Inc()
	}
	s.m.dirtyFrac.Observe(dirtyArea / float64(lattice*len(s.builders)))
	s.m.rebuilds.ObserveDuration(time.Since(start))
	s.m.generation.Set(int64(snap.Gen))
	s.m.objects.Set(snap.Count)
	s.m.pendingG.Set(0)
	s.m.lastRebuild.Set(snap.BuiltAt.Unix())
}

// derivePyramids builds the generation's coarse levels — nil when
// pyramids are disabled. An untouched partition shares the previous
// pyramid wholesale. A rebuilt one is repaired from a donor: when the
// rebuild recycled an arena lease, the lease's pyramid is repaired in
// place (its base arrays are already the new histogram's, and the
// collectible condition guarantees no snapshot still reads its coarse
// buffers); otherwise the last published pyramid is clone-repaired.
// Either way the dirty bound is BuildStats.Dirty — the builder's dirty
// region unioned with the donated buffer's staleness — which is exactly
// where the donor's content can differ from the new base.
func (s *Store) derivePyramids(hists []*euler.Histogram, dmg []euler.DirtyRegion, leases []*histLease) []*euler.Pyramid {
	if s.cfg.PyramidLevels <= 0 {
		return nil
	}
	popts := euler.PyramidOpts{
		MaxLevels: s.cfg.PyramidLevels,
		MinGrid:   s.cfg.PyramidMinGrid,
	}
	pyrs := make([]*euler.Pyramid, len(hists))
	for i, h := range hists {
		if h == s.lastHists[i] && s.lastPyrs[i] != nil {
			pyrs[i] = s.lastPyrs[i]
			continue
		}
		opts := euler.PyramidFromOpts{
			Opts:  popts,
			Donor: s.lastPyrs[i],
			Stale: dmg[i],
		}
		if lease := leases[i]; lease != nil && lease.pyr != nil {
			opts.Donor, opts.InPlace = lease.pyr, true
		}
		pyrs[i] = euler.PyramidFrom(h, opts)
	}
	return pyrs
}

// pyrAt indexes pyrs tolerating the disabled (nil) case.
func (s *Store) pyrAt(pyrs []*euler.Pyramid, i int) *euler.Pyramid {
	if pyrs == nil {
		return nil
	}
	return pyrs[i]
}

// estimatorFor assembles the estimator for a publish: the configured spec
// over the generation's lattices — its pyramids when they are enabled. The
// config was validated at Open and every histogram shares the store's grid,
// so assembly cannot fail.
func (s *Store) estimatorFor(hists []*euler.Histogram, pyrs []*euler.Pyramid) core.Estimator {
	var est core.Estimator
	var err error
	if pyrs != nil {
		est, err = s.spec.FromPyramids(pyrs)
	} else {
		est, err = s.spec.FromHistograms(hists)
	}
	if err != nil {
		panic(fmt.Sprintf("live: rebuilding validated config: %v", err))
	}
	return est
}

// rebuildLoop is the interval half of the rebuild policy: whenever
// mutations are pending at a tick, publish a generation.
func (s *Store) rebuildLoop(every time.Duration) {
	defer close(s.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if s.pending.Load() > 0 {
				s.rebuild()
			}
		}
	}
}

// Flush forces a rebuild and makes every journaled mutation durable. The
// published snapshot includes every mutation applied before the call.
func (s *Store) Flush() error {
	s.rebuild()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		return s.wal.sync()
	}
	return nil
}

// Status is a point-in-time view of the store for operators — the
// /api/store/status payload.
type Status struct {
	Algorithm       string  `json:"algorithm"`
	Generation      uint64  `json:"generation"`
	Objects         int64   `json:"objects"`     // in the current snapshot
	LiveObjects     int64   `json:"liveObjects"` // including pending mutations
	Mutations       int64   `json:"mutations"`   // applied, incl. replayed
	Rejected        int64   `json:"rejected"`
	Pending         int64   `json:"pendingMutations"`
	WALBytes        int64   `json:"walBytes"`
	SnapshotAge     float64 `json:"snapshotAgeSeconds"`
	RebuildEvery    int     `json:"rebuildEvery"`
	RebuildInterval float64 `json:"rebuildIntervalSeconds"`
	SnapshotBuiltAt string  `json:"snapshotBuiltAt"`
	SnapshotSwapped int64   `json:"snapshotMutations"`
	GridNX          int     `json:"gridNX"`
	GridNY          int     `json:"gridNY"`
	// PyramidLevels is the number of coarse levels above the base in the
	// current snapshot's zoom stack; 0 when pyramids are disabled.
	PyramidLevels int `json:"pyramidLevels"`
	// CellWidth is the published snapshot's Snapshot.CellWidth: 4 or 8
	// bytes per bucket.
	CellWidth int `json:"cellWidth"`
}

// Status reports the store's current generation, staleness and journal
// size.
func (s *Store) Status() Status {
	snap := s.acquireSnapshot()
	defer s.release(snap)
	s.mu.Lock()
	live := s.builders[len(s.builders)-1].Count() // the plane of every group
	applied := s.applied
	var walBytes int64
	if s.wal != nil {
		walBytes = s.wal.size
	}
	s.mu.Unlock()
	return Status{
		Algorithm:       snap.Est.Name(),
		Generation:      snap.Gen,
		Objects:         snap.Count,
		LiveObjects:     live,
		Mutations:       applied,
		Rejected:        s.rejected.Load(),
		Pending:         s.pending.Load(),
		WALBytes:        walBytes,
		SnapshotAge:     time.Since(snap.BuiltAt).Seconds(),
		RebuildEvery:    s.rebuildEvery(),
		RebuildInterval: s.cfg.RebuildInterval.Seconds(),
		SnapshotBuiltAt: snap.BuiltAt.UTC().Format(time.RFC3339Nano),
		SnapshotSwapped: snap.Mutations,
		GridNX:          s.cfg.Grid.NX(),
		GridNY:          s.cfg.Grid.NY(),
		PyramidLevels:   core.NumLevels(snap.Est) - 1,
		CellWidth:       snap.CellWidth,
	}
}

// Close stops the rebuild timer, writes a checkpoint if one is configured,
// and syncs and closes the WAL. The store rejects mutations afterwards;
// the last snapshot remains queryable.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	close(s.stop)
	<-s.done

	var firstErr error
	if s.cfg.CheckpointPath != "" {
		if err := s.writeCheckpoint(s.cfg.CheckpointPath); err != nil {
			firstErr = err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		if err := s.wal.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.wal = nil
	}
	return firstErr
}
