package shard

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"spatialhist/internal/check/failpoint"
	"spatialhist/internal/core"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
	"spatialhist/internal/telemetry"
)

// waitCaughtUp waits until the follower has applied and published through
// the leader's current sequence.
func waitCaughtUp(t *testing.T, f *Follower, leader *live.Store) {
	t.Helper()
	target := leader.Seq()
	deadline := time.Now().Add(5 * time.Second)
	for f.Store().VisibleSeq() < target {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d (visible %d), leader at %d",
				f.Seq(), f.Store().VisibleSeq(), target)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertStoresIdentical requires bit-identical full-grid estimates.
func assertStoresIdentical(t *testing.T, what string, a, b *live.Store) {
	t.Helper()
	g := a.Grid()
	full := grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
	ea, _, ra := a.AcquireEstimator()
	defer ra()
	eb, _, rb := b.AcquireEstimator()
	defer rb()
	for _, tc := range []struct{ cols, rows int }{{1, 1}, {8, 8}, {32, 32}} {
		va, err := core.EstimateGrid(ea, full, tc.cols, tc.rows)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := core.EstimateGrid(eb, full, tc.cols, tc.rows)
		if err != nil {
			t.Fatal(err)
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("%s: %dx%d tile %d: %+v vs %+v", what, tc.cols, tc.rows, i, va[i], vb[i])
			}
		}
	}
}

func startTestFollower(t *testing.T, src SegmentSource, path string) *Follower {
	t.Helper()
	f, err := StartFollower(FollowerConfig{
		Source:         src,
		CheckpointPath: path,
		PollInterval:   time.Millisecond,
		RebuildEvery:   1,
		Telemetry:      telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	return f
}

func TestFollowerReplicatesBitIdentical(t *testing.T) {
	g := testGrid(t)
	dir := t.TempDir()
	leader := openTestStore(t, g, dir, "leader")
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 100; k++ {
		leader.Insert(randTestRect(rng))
	}
	leader.Flush()

	f := startTestFollower(t, LocalSource{Store: leader}, filepath.Join(dir, "f.ckpt"))
	defer f.Close()
	waitCaughtUp(t, f, leader)
	assertStoresIdentical(t, "bootstrap", leader, f.Store())

	// Keep mutating: inserts, deletes, extra churn — all of which the
	// journal carries and the follower must mirror exactly.
	for k := 0; k < 150; k++ {
		r := randTestRect(rng)
		leader.Insert(r)
		if k%7 == 0 {
			leader.Delete(r)
		}
		if k%31 == 0 {
			leader.Insert(randTestRect(rng)) // extra churn
		}
	}
	leader.Flush()
	waitCaughtUp(t, f, leader)
	assertStoresIdentical(t, "after churn", leader, f.Store())
}

// chunkedSource caps every Segment fetch at a size that ends mid-record,
// exercising the tailer's partial-tail handling: the decoded prefix is
// applied, the torn tail is re-fetched from the record boundary.
type chunkedSource struct {
	inner SegmentSource
	max   int
	calls atomic.Int64
}

func (c *chunkedSource) Segment(from int64, max int) ([]byte, int64, error) {
	c.calls.Add(1)
	if max > c.max {
		max = c.max
	}
	return c.inner.Segment(from, max)
}

func (c *chunkedSource) Checkpoint(w io.Writer) error { return c.inner.Checkpoint(w) }

func TestFollowerTailsAcrossMidRecordChunks(t *testing.T) {
	g := testGrid(t)
	dir := t.TempDir()
	leader := openTestStore(t, g, dir, "leader")
	rng := rand.New(rand.NewSource(5))

	// 50 bytes = one whole insert record (37) plus 13 bytes of the next:
	// every fetch ends mid-record. The writes land after the follower
	// bootstraps, so every record arrives through the chunked tail.
	src := &chunkedSource{inner: LocalSource{Store: leader}, max: 50}
	f := startTestFollower(t, src, filepath.Join(dir, "f.ckpt"))
	defer f.Close()
	for k := 0; k < 80; k++ {
		leader.Insert(randTestRect(rng))
	}
	leader.Flush()
	waitCaughtUp(t, f, leader)
	assertStoresIdentical(t, "chunked tail", leader, f.Store())
	if src.calls.Load() < 80 {
		t.Fatalf("only %d fetches for 80 records at 1 record per chunk", src.calls.Load())
	}
}

// flakySource fails every other Segment call — a tailer reconnect storm.
type flakySource struct {
	inner SegmentSource
	n     atomic.Int64
}

func (s *flakySource) Segment(from int64, max int) ([]byte, int64, error) {
	if s.n.Add(1)%2 == 1 {
		return nil, 0, fmt.Errorf("connection reset")
	}
	return s.inner.Segment(from, max)
}

func (s *flakySource) Checkpoint(w io.Writer) error { return s.inner.Checkpoint(w) }

func TestFollowerSurvivesFetchErrors(t *testing.T) {
	g := testGrid(t)
	dir := t.TempDir()
	leader := openTestStore(t, g, dir, "leader")
	rng := rand.New(rand.NewSource(19))

	f := startTestFollower(t, &flakySource{inner: LocalSource{Store: leader}}, filepath.Join(dir, "f.ckpt"))
	defer f.Close()
	for k := 0; k < 60; k++ {
		leader.Insert(randTestRect(rng))
	}
	leader.Flush()
	waitCaughtUp(t, f, leader)
	assertStoresIdentical(t, "flaky source", leader, f.Store())
}

// countingSource counts records shipped past bootstrap, to prove the
// checkpoint-then-tail handoff does not re-ship or double-apply anything.
type countingSource struct {
	inner   SegmentSource
	shipped atomic.Int64
}

func (s *countingSource) Segment(from int64, max int) ([]byte, int64, error) {
	data, size, err := s.inner.Segment(from, max)
	s.shipped.Add(int64(len(data)))
	return data, size, err
}

func (s *countingSource) Checkpoint(w io.Writer) error { return s.inner.Checkpoint(w) }

func TestFollowerHandoffAtCheckpointBoundary(t *testing.T) {
	g := testGrid(t)
	dir := t.TempDir()
	leader := openTestStore(t, g, dir, "leader")
	rng := rand.New(rand.NewSource(23))
	for k := 0; k < 100; k++ {
		leader.Insert(randTestRect(rng))
	}
	leader.Flush()
	preSeq := leader.Seq()

	// Bootstrap exactly at the leader's current sequence: the checkpoint
	// covers [0, preSeq); the tail must start at preSeq and ship nothing
	// until new writes land.
	src := &countingSource{inner: LocalSource{Store: leader}}
	f := startTestFollower(t, src, filepath.Join(dir, "f.ckpt"))
	defer f.Close()
	waitCaughtUp(t, f, leader)
	if f.Seq() != preSeq {
		t.Fatalf("follower seq %d after bootstrap, checkpoint boundary %d", f.Seq(), preSeq)
	}
	if got := src.shipped.Load(); got != 0 {
		t.Fatalf("%d journal bytes shipped though the checkpoint already covered them", got)
	}
	assertStoresIdentical(t, "at boundary", leader, f.Store())

	// New writes: exactly the post-checkpoint bytes ship, applied once.
	for k := 0; k < 40; k++ {
		leader.Insert(randTestRect(rng))
	}
	leader.Flush()
	waitCaughtUp(t, f, leader)
	wantBytes := leader.Seq() - preSeq
	if got := src.shipped.Load(); got != wantBytes {
		t.Fatalf("shipped %d bytes past the boundary, want exactly %d", got, wantBytes)
	}
	assertStoresIdentical(t, "past boundary", leader, f.Store())
}

func TestFollowerRestartResumesFromOwnCheckpoint(t *testing.T) {
	g := testGrid(t)
	dir := t.TempDir()
	leader := openTestStore(t, g, dir, "leader")
	rng := rand.New(rand.NewSource(31))
	for k := 0; k < 70; k++ {
		leader.Insert(randTestRect(rng))
	}
	leader.Flush()

	ckpt := filepath.Join(dir, "f.ckpt")
	f := startTestFollower(t, LocalSource{Store: leader}, ckpt)
	waitCaughtUp(t, f, leader)
	resumeSeq := f.Seq()
	if err := f.Close(); err != nil { // writes the follower's own checkpoint
		t.Fatalf("close: %v", err)
	}

	// More leader writes while the follower is down.
	for k := 0; k < 50; k++ {
		leader.Insert(randTestRect(rng))
		if k%9 == 0 {
			leader.Delete(randTestRect(rng))
		}
	}
	leader.Flush()

	// Restart: no re-bootstrap (the checkpoint already exists), the tail
	// resumes from the follower's own persisted sequence, and only the
	// missed bytes ship.
	src := &countingSource{inner: LocalSource{Store: leader}}
	reg := telemetry.NewRegistry()
	f2, err := StartFollower(FollowerConfig{
		Source:         src,
		CheckpointPath: ckpt,
		PollInterval:   time.Millisecond,
		RebuildEvery:   1,
		Telemetry:      reg,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer f2.Close()
	waitCaughtUp(t, f2, leader)
	if got := src.shipped.Load(); got != leader.Seq()-resumeSeq {
		t.Fatalf("restart shipped %d bytes, want %d (resume at %d of %d)",
			got, leader.Seq()-resumeSeq, resumeSeq, leader.Seq())
	}
	assertStoresIdentical(t, "after restart", leader, f2.Store())
}

// TestFollowerBootstrapIsTornCheckpointSafe: the bootstrap writes its
// checkpoint through the store's checkpoint writer, failpoint site
// included. A bootstrap that dies mid-write fails StartFollower and leaves
// no checkpoint — not even a temp file — to resume from, and a retry
// bootstraps from scratch and serves the leader's answers.
func TestFollowerBootstrapIsTornCheckpointSafe(t *testing.T) {
	g := testGrid(t)
	dir := t.TempDir()
	leader := openTestStore(t, g, dir, "leader")
	rng := rand.New(rand.NewSource(37))
	for k := 0; k < 120; k++ {
		leader.Insert(randTestRect(rng))
	}
	leader.Flush()

	ckpt := filepath.Join(dir, "f.ckpt")
	defer failpoint.Reset()
	for _, arm := range []func(){
		func() { failpoint.SetError(live.FailpointCheckpointWrite, nil) },
		func() { failpoint.SetWriteBudget(live.FailpointCheckpointWrite, 100) },
	} {
		arm()
		f, err := StartFollower(FollowerConfig{Source: LocalSource{Store: leader}, CheckpointPath: ckpt,
			PollInterval: time.Millisecond, RebuildEvery: 1, Telemetry: telemetry.NewRegistry()})
		failpoint.Reset()
		if err == nil {
			f.Close()
			t.Fatal("StartFollower succeeded through a failing checkpoint write")
		}
		if !errors.Is(err, failpoint.ErrInjected) {
			t.Fatalf("StartFollower failed with %v, want the injected failure", err)
		}
		if left, _ := filepath.Glob(ckpt + "*"); len(left) != 0 {
			t.Fatalf("a failed bootstrap left %v", left)
		}
	}

	f := startTestFollower(t, LocalSource{Store: leader}, ckpt)
	defer f.Close()
	waitCaughtUp(t, f, leader)
	assertStoresIdentical(t, "bootstrap after a torn one", leader, f.Store())
}

func TestFollowerRejectsLocalWrites(t *testing.T) {
	g := testGrid(t)
	dir := t.TempDir()
	leader := openTestStore(t, g, dir, "leader")
	leader.Insert(randTestRect(rand.New(rand.NewSource(1))))
	leader.Flush()

	f := startTestFollower(t, LocalSource{Store: leader}, filepath.Join(dir, "f.ckpt"))
	defer f.Close()
	waitCaughtUp(t, f, leader)

	// The follower's store is journal-less; its WALSegment must refuse so
	// a misconfigured tailer pointed at a replica fails loudly instead of
	// silently shipping nothing.
	if _, _, err := f.Store().WALSegment(0, 1024); err == nil {
		t.Fatal("WALSegment on a journal-less follower succeeded")
	}
}
