// Store interpreters: the live store and what is built around it — its
// journal and checkpoints, and a shard coordinator — composed by storeOpts
// and held to the fresh reference by the transcript checks.
package check

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
	"spatialhist/internal/shard"
	"spatialhist/internal/telemetry"
)

// storeOpts are the axes of a store interpreter; they compose.
type storeOpts struct {
	wal, ckpt    bool // journal, reopened at restarts; and a checkpoint file
	shards       int  // > 0: that many column-band stores behind a coordinator
	syncEvery    int
	rebuildEvery int
}

// drawStore draws the dice every store takes: how often it publishes and
// syncs, and whether it keeps a checkpoint file.
func drawStore(r *rand.Rand) storeOpts {
	return storeOpts{syncEvery: r.Intn(4), rebuildEvery: []int{-1, 1, 7, 0}[r.Intn(4)], ckpt: r.Intn(2) == 0}
}

func storeConfig(o storeOpts, limit int64, sw sweep, seed int64) config {
	return config{name: fmt.Sprintf("store%+v (limit %d, %v)", o, limit, sw), limit: limit, open: func(sc *scenario) (interpreter, error) {
		if o.shards > 0 {
			return newFleet(sc, o)
		}
		return o.open(sc, sc.Seed, reader{sw, gen.Rand(seed)})
	}}
}

// tempDir makes a store's directory, on tmpfs where the machine has one:
// the checks crash stores by dropping handles, never the machine, so an
// fsync to disk would buy them nothing but time.
func tempDir() (string, error) {
	if dir, err := os.MkdirTemp("/dev/shm", "spcheck-"); err == nil {
		return dir, nil
	}
	return os.MkdirTemp("", "spcheck-")
}

// store is one live.Store of a run, pinned for every probe, its files in a
// directory of its own.
type store struct {
	reader
	cfg live.Config
	st  *live.Store
	dir string
}

// open opens a store of the run over seed.
func (o storeOpts) open(sc *scenario, seed []geom.Rect, rd reader) (*store, error) {
	dir, err := tempDir()
	if err != nil {
		return nil, err
	}
	s := &store{reader: rd, dir: dir, cfg: live.Config{Grid: sc.Grid, Algo: sc.spec.Algo, Areas: sc.spec.Areas, Seed: seed,
		RebuildEvery: o.rebuildEvery, SyncEvery: o.syncEvery,
		PyramidLevels: 8, PyramidMinGrid: popts.MinGrid, Telemetry: telemetry.NewRegistry()}}
	if o.wal {
		s.cfg.WALPath = filepath.Join(dir, "journal.wal")
	}
	if o.ckpt {
		s.cfg.CheckpointPath = filepath.Join(dir, "state.ckpt")
	}
	if s.st, err = live.Open(s.cfg); err != nil {
		os.RemoveAll(dir)
	}
	return s, err
}

func (s *store) Apply(m gen.Mutation) (bool, error) { return applyMut(s.st, m) }

func (s *store) Publish() error { return s.st.Flush() }

func (s *store) Checkpoint() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	return s.st.Checkpoint()
}

// Restart reopens a journaled store. Without a checkpoint file it closes
// cleanly and replays the whole journal over the seed; with one it
// crashes — the journal synced, the handle dropped unclosed for the
// collector to reap — and resumes from the last checkpoint, replaying the
// journal tail behind it.
func (s *store) Restart() error {
	var err error
	switch {
	case s.cfg.WALPath == "":
		return nil
	case s.cfg.CheckpointPath == "":
		err = s.st.Close()
	default:
		err = s.st.Flush()
	}
	if err != nil {
		return err
	}
	st, err := live.Open(s.cfg)
	if err == nil {
		s.st = st
	}
	return err
}

func (s *store) Observe(p gen.Probe) string {
	est, _, release := s.st.AcquireEstimator()
	defer release()
	return s.observe(est, p)
}

func (s *store) Close() error {
	defer os.RemoveAll(s.dir)
	return s.st.Close()
}

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

// fleet is column-band shards behind a coordinator, written and read
// through it while a reader maps the whole space all along: its answers
// cannot be held to a store mid-stream, but it must never fail.
type fleet struct {
	shards []*store
	c      *shard.Coordinator
	halt   func() error // stops the reader, reporting what it saw
}

func newFleet(sc *scenario, o storeOpts) (*fleet, error) {
	part, err := shard.NewPartition(sc.Grid, o.shards)
	if err != nil {
		return nil, err
	}
	seeds := make([][]geom.Rect, part.N())
	for _, r := range sc.Seed {
		seeds[part.ShardFor(r)] = append(seeds[part.ShardFor(r)], r)
	}
	s := &fleet{}
	for _, seed := range seeds {
		st, err := o.open(sc, seed, reader{})
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, st)
	}
	return s, s.start()
}

// start puts a coordinator and its reader over the shards.
func (s *fleet) start() error {
	cfg := shard.Config{Telemetry: telemetry.NewRegistry()}
	for i, st := range s.shards {
		cfg.Shards = append(cfg.Shards, shard.Backends{Leader: &shard.LocalHandle{Store: st.st, Label: fmt.Sprint("s", i)}})
	}
	c, err := shard.NewCoordinator(cfg)
	if err != nil {
		return err
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var readErr error
	full := grid.Span{I2: c.Grid().NX() - 1, J2: c.Grid().NY() - 1}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if ests, err := c.EstimateGrid(full, 1, 1); err != nil || len(ests) != 1 {
				readErr = fmt.Errorf("concurrent 1x1 map: %d tiles, %v", len(ests), err)
				return
			}
		}
	}()
	s.c, s.halt = c, func() error {
		stop.Store(true)
		wg.Wait()
		return readErr
	}
	return nil
}

// stop halts the reader.
func (s *fleet) stop() (err error) {
	if s.halt != nil {
		err, s.halt = s.halt(), nil
	}
	return err
}

// Apply routes the mutation through the coordinator: an update is a delete
// of the pre-image at its owner and an insert of the image at its own.
func (s *fleet) Apply(m gen.Mutation) (bool, error) {
	applied := 0
	ingest := func(op byte, r geom.Rect) error {
		a, _, _, err := s.c.Apply(op, []geom.Rect{r}, false)
		applied += a
		return err
	}
	var err error
	if old, ok := m.Removed(); ok {
		err = ingest(live.OpDelete, old)
	}
	if m.Op != gen.OpDelete && err == nil {
		err = ingest(live.OpInsert, m.R)
	}
	return applied > 0, err
}

func (s *fleet) each(fn func(*store) error) error {
	for _, st := range s.shards {
		if err := fn(st); err != nil {
			return err
		}
	}
	return nil
}

// Publish flushes the shards.
func (s *fleet) Publish() error { return s.each((*store).Publish) }

func (s *fleet) Checkpoint() error { return s.each((*store).Checkpoint) }

func (s *fleet) Restart() error {
	err := s.stop()
	if err == nil {
		err = s.each((*store).Restart)
	}
	if err == nil {
		err = s.start()
	}
	return err
}

// Observe answers the estimator probes through the coordinator's merge. It
// holds no histograms.
func (s *fleet) Observe(p gen.Probe) string {
	switch p.Kind {
	case gen.ProbeEstimates:
		return render(s.c.EstimateSpans(p.Spans))
	case gen.ProbeMap:
		ests, err := s.c.EstimateGrid(p.Region, p.Cols, p.Rows)
		return render(mapPrint(ests), err)
	}
	return ""
}

func (s *fleet) Close() error {
	err := s.stop()
	if e := s.each((*store).Close); err == nil {
		err = e
	}
	return err
}
