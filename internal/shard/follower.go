package shard

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"spatialhist/internal/live"
	"spatialhist/internal/telemetry"
)

// logf reports replication problems; a variable so tests can capture it.
var logf = log.Printf

// defaultSegmentBytes is the WAL segment size a follower fetches.
const defaultSegmentBytes = 1 << 20

// SegmentSource is where a follower gets its leader's state: a checkpoint
// stream to bootstrap from and WAL segments to tail. LocalSource is the
// one over a leader store in the same process.
type SegmentSource interface {
	// Segment returns up to max journal bytes from byte offset from, plus
	// the journal's current size. The data may end mid-record.
	Segment(from int64, max int) (data []byte, size int64, err error)
	// Checkpoint streams a checkpoint of the leader's current state to w.
	Checkpoint(w io.Writer) error
}

// LocalSource adapts an in-process leader store to SegmentSource.
type LocalSource struct{ Store *live.Store }

// Segment implements SegmentSource.
func (s LocalSource) Segment(from int64, max int) ([]byte, int64, error) {
	return s.Store.WALSegment(from, max)
}

// Checkpoint implements SegmentSource.
func (s LocalSource) Checkpoint(w io.Writer) error { return s.Store.StreamCheckpoint(w) }

// FollowerConfig configures StartFollower.
type FollowerConfig struct {
	// Source is the leader to replicate from; required.
	Source SegmentSource
	// CheckpointPath is the follower's own checkpoint file; required. When
	// absent, the follower bootstraps by fetching a leader checkpoint into
	// it; when present (a restart), the follower resumes from its own
	// state and tails from the sequence the checkpoint embodies.
	CheckpointPath string
	// PollInterval is how often the tailer polls when caught up. 0 means
	// 50ms.
	PollInterval time.Duration
	// RebuildEvery / RebuildInterval / PyramidLevels tune the follower's
	// store exactly as live.Config does; the replication protocol is
	// correct under any rebuild cadence.
	RebuildEvery    int
	RebuildInterval time.Duration
	PyramidLevels   int
	// Telemetry receives replica_* metrics; nil means telemetry.Default().
	Telemetry *telemetry.Registry
}

// Follower is a read replica: a journal-less live store bootstrapped from
// a leader checkpoint and kept fresh by tailing the leader's WAL. Every
// shipped record is applied through the same code path as a local
// mutation, so a caught-up follower's snapshots are bit-identical to its
// leader's. The follower's own checkpoint (written on Close) records the
// leader offset it reached, so a restart resumes tailing exactly there —
// no re-bootstrap, no double apply.
type Follower struct {
	store *live.Store
	src   SegmentSource
	poll  time.Duration

	stop chan struct{}
	done chan struct{}

	applied      *telemetry.Counter
	fetches      *telemetry.Counter
	fetchErrors  *telemetry.Counter
	decodeErrors *telemetry.Counter
	lag          *telemetry.Gauge
	bootstraps   *telemetry.Counter
}

// StartFollower bootstraps (or resumes) a follower and starts its tail
// loop.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("shard: FollowerConfig.Source is required")
	}
	if cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("shard: FollowerConfig.CheckpointPath is required")
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	f := &Follower{
		src:  cfg.Source,
		poll: cfg.PollInterval,
		stop: make(chan struct{}),
		done: make(chan struct{}),
		applied: reg.Counter("replica_applied_records_total",
			"WAL records applied from the leader."),
		fetches: reg.Counter("replica_fetches_total",
			"WAL segment fetches from the leader."),
		fetchErrors: reg.Counter("replica_fetch_errors_total",
			"Failed WAL segment fetches."),
		decodeErrors: reg.Counter("replica_decode_errors_total",
			"Shipped segments with a corrupt complete record."),
		lag: reg.Gauge("replica_lag_bytes",
			"Leader journal bytes not yet applied by this replica."),
		bootstraps: reg.Counter("replica_bootstraps_total",
			"Checkpoint bootstraps fetched from the leader."),
	}
	if f.poll <= 0 {
		f.poll = 50 * time.Millisecond
	}

	if _, err := os.Stat(cfg.CheckpointPath); os.IsNotExist(err) {
		if err := f.bootstrap(cfg.CheckpointPath); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	}

	// The checkpoint is self-describing: grid, algorithm and area
	// thresholds come from its config-pinning header, so a follower needs
	// no out-of-band dataset configuration.
	lc, err := live.PeekCheckpoint(cfg.CheckpointPath)
	if err != nil {
		return nil, err
	}
	lc.WALPath = "" // journal-less: the leader's WAL is the journal
	lc.CheckpointPath = cfg.CheckpointPath
	lc.RebuildEvery = cfg.RebuildEvery
	lc.RebuildInterval = cfg.RebuildInterval
	lc.PyramidLevels = cfg.PyramidLevels
	lc.Telemetry = reg
	store, err := live.Open(lc)
	if err != nil {
		return nil, err
	}
	f.store = store

	go f.tail()
	return f, nil
}

// bootstrap fetches a leader checkpoint into path through the store's
// own checkpoint writer, so a crash or a failure mid-fetch leaves no
// half-written checkpoint to resume from.
func (f *Follower) bootstrap(path string) error {
	if err := live.SaveCheckpoint(path, f.src.Checkpoint); err != nil {
		return fmt.Errorf("shard: bootstrapping from leader checkpoint: %w", err)
	}
	f.bootstraps.Inc()
	return nil
}

// Store returns the follower's live store, read through a LocalHandle.
// The store is owned by the Follower; mutate it only through the
// replication stream.
func (f *Follower) Store() *live.Store { return f.store }

// Seq returns the leader journal offset the follower has applied through.
func (f *Follower) Seq() int64 { return f.store.Seq() }

// tail is the replication loop: fetch the segment past the applied
// sequence, apply each whole record through the shared live apply path as
// DecodeRecords decodes it — the loop Store.Open runs over its own
// journal — publish when caught up, sleep only when there is nothing to
// pull.
func (f *Follower) tail() {
	defer close(f.done)
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		seq := f.store.Seq()
		data, size, err := f.src.Segment(seq, defaultSegmentBytes)
		f.fetches.Inc()
		if err != nil {
			f.fetchErrors.Inc()
			f.sleep()
			continue
		}
		f.lag.Set(size - seq)
		var stopped error
		consumed, derr := live.DecodeRecords(data, func(rec live.Record) error {
			seq += rec.EncodedLen()
			if _, err := f.store.ApplyReplicated(rec, seq); err != nil {
				stopped = err
				return err
			}
			f.applied.Inc()
			return nil
		})
		if stopped != nil {
			// Closed underneath us (shutdown) — or a protocol bug; either
			// way the loop cannot continue.
			if stopped != live.ErrClosed {
				logf("shard: replica apply at seq %d: %v", seq, stopped)
			}
			return
		}
		if derr != nil {
			// A complete record failed its CRC: the valid prefix is applied,
			// the rest is re-fetched — a transient torn read heals, real
			// corruption keeps counting here.
			f.decodeErrors.Inc()
			f.sleep()
			continue
		}
		if seq >= size {
			// Caught up: publish what was applied so readers (and the
			// coordinator's lag gate) see it. With nothing newly applied the
			// rebuild skip path just advances the visibility watermark.
			if consumed > 0 {
				f.store.Flush()
				f.lag.Set(0)
			}
			f.sleep()
		}
		// Mid-backlog: loop immediately for the next segment.
	}
}

func (f *Follower) sleep() {
	t := time.NewTimer(f.poll)
	defer t.Stop()
	select {
	case <-f.stop:
	case <-t.C:
	}
}

// Close stops the tail loop and closes the store, writing the follower's
// checkpoint (state plus the leader offset to resume from).
func (f *Follower) Close() error {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	<-f.done
	return f.store.Close()
}
