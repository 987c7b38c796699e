// Failpoint checks: deterministic crashes inside the live store's
// durability machinery. Each holds what survives — the store recovered,
// or the one still serving — to the fresh interpreter fed exactly the
// mutations that should have survived.
package check

import (
	"errors"
	"fmt"
	"math/rand"
	"os"

	"spatialhist/internal/check/failpoint"
	"spatialhist/internal/check/gen"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
)

// walRecordBytes is the journal wire size of one mutation: op byte, one
// rect (two for updates), CRC-32. TestWALRecordBytes holds it to
// internal/live's format.
func walRecordBytes(m gen.Mutation) int64 {
	if m.Op == gen.OpUpdate {
		return 1 + 2*4*8 + 4
	}
	return 1 + 4*8 + 4
}

// ckptMinBytes is a safe lower bound on any checkpoint payload (magic +
// config header + offsets), so budgets below it always cut mid-file.
const ckptMinBytes = 57

// crash is what a failpoint round shares: a journaled store, the
// mutations it is fed, and the spans it is compared at.
type crash struct {
	name  string
	seed  int64
	r     *rand.Rand
	sc    *scenario // the spec, grid and seed objects
	st    *store
	muts  []gen.Mutation
	spans []grid.Span
}

// crashCheck is the Run of a failpoint check: body over a journaled store
// that publishes only when flushed, with every failpoint disarmed after.
func crashCheck(name string, o storeOpts, body func(*crash) *Divergence) func(int64) *Divergence {
	return func(seed int64) *Divergence {
		r := gen.Rand(seed)
		g := gen.Grid(r, 20, 20)
		sc := &scenario{paperSpecs(r)[r.Intn(3)], &gen.Script{Grid: g, Seed: gen.Rects(r, g, 5+r.Intn(15), gen.RectOpts{})}}
		c := &crash{name: name, seed: seed, r: r, sc: sc,
			muts:  gen.Mutations(r, g, sc.Seed, 30+r.Intn(50), gen.RectOpts{PointFrac: 0.1}),
			spans: randQueries(r, g, 24)}
		defer failpoint.Reset()
		o.wal, o.rebuildEvery = true, -1
		var err error
		if c.st, err = o.open(sc, sc.Seed, reader{}); err != nil {
			return c.fail("opening store: %v", err)
		}
		defer c.st.Close()
		return body(c)
	}
}

func (c *crash) fail(format string, args ...any) *Divergence {
	return &Divergence{Check: c.name, Seed: c.seed, Grid: gridDesc(c.sc.Grid), Detail: fmt.Sprintf(format, args...)}
}

func (c *crash) apply(muts []gen.Mutation) error {
	for i, m := range muts {
		if _, err := c.st.Apply(m); err != nil {
			return fmt.Errorf("mutation %d: %w", i, err)
		}
	}
	return nil
}

// held holds the store, flushed, to the fresh interpreter fed the seed and
// muts.
func (c *crash) held(muts []gen.Mutation, what string) *Divergence {
	if err := c.st.Publish(); err != nil {
		return c.fail("flushing the %s: %v", what, err)
	}
	twin, _ := newFresh(c.sc, reader{})
	for _, m := range muts {
		twin.Apply(m)
	}
	if err := twin.Publish(); err != nil {
		return c.fail("building the twin: %v", err)
	}
	p := gen.Probe{Kind: gen.ProbeEstimates, Spans: c.spans}
	if got, want := c.st.Observe(p), twin.Observe(p); got != want {
		d := c.fail("the %s differs from a fresh build of the %d mutations that survived", what, len(muts))
		d.Got, d.Want = got, want
		return d
	}
	return nil
}

// recovered reopens the crashed store and holds it to the fresh
// interpreter.
func (c *crash) recovered(muts []gen.Mutation, what string) *Divergence {
	var err error
	if c.st.st, err = live.Open(c.st.cfg); err != nil {
		return c.fail("recovering the %s: %v", what, err)
	}
	return c.held(muts, what)
}

var runWALCrashBoundary = crashCheck("wal-crash-boundary", storeOpts{syncEvery: 1}, func(c *crash) *Divergence {
	var total int64
	for _, m := range c.muts {
		total += walRecordBytes(m)
	}
	// A crash boundary anywhere in the record stream: possibly before the
	// first byte, possibly mid-CRC of the last record.
	budget := c.r.Int63n(total)
	failpoint.SetWriteBudget(live.FailpointWALWrite, budget)
	surviving, rem := 0, budget
	var tripErr error
	for _, m := range c.muts {
		if _, tripErr = c.st.Apply(m); tripErr != nil {
			break
		}
		sz := walRecordBytes(m)
		if sz > rem {
			return c.fail("mutation %d (%d bytes) crossed the %d-byte budget yet reported success — WAL byte accounting is off", surviving, sz, budget)
		}
		rem -= sz
		surviving++
	}
	// The "crash": close with the failpoint still tripped, so nothing past
	// the cut can reach the file. What is on disk is records
	// 0..surviving-1 plus a torn prefix of the next one.
	c.st.st.Close()
	failpoint.Reset()
	switch {
	case tripErr == nil:
		return c.fail("no injected failure although the %d-byte budget is below the %d-byte stream", budget, total)
	case !errors.Is(tripErr, failpoint.ErrInjected):
		return c.fail("mutation failed with a foreign error instead of the injected one: %v", tripErr)
	}
	return c.recovered(c.muts[:surviving], fmt.Sprintf("store recovered from a crash at record-stream byte %d", budget))
})

var runCheckpointCrash = crashCheck("checkpoint-crash", storeOpts{ckpt: true}, func(c *crash) *Divergence {
	half := len(c.muts) / 2
	if err := c.apply(c.muts[:half]); err != nil {
		return c.fail("%v", err)
	}
	if err := c.st.Checkpoint(); err != nil {
		return c.fail("baseline checkpoint failed: %v", err)
	}
	before, err := os.ReadFile(c.st.cfg.CheckpointPath)
	if err != nil {
		return c.fail("reading baseline checkpoint: %v", err)
	}
	if err := c.apply(c.muts[half:]); err != nil {
		return c.fail("%v", err)
	}

	// Crash the checkpoint writer mid-payload. The temp-and-rename protocol
	// must leave the baseline checkpoint byte-identical.
	failpoint.SetWriteBudget(live.FailpointCheckpointWrite, c.r.Int63n(ckptMinBytes))
	switch err := c.st.Checkpoint(); {
	case err == nil:
		return c.fail("checkpoint with a tripped write budget reported success")
	case !errors.Is(err, failpoint.ErrInjected):
		return c.fail("checkpoint failed with a foreign error instead of the injected one: %v", err)
	case failpoint.Hits(live.FailpointCheckpointWrite) == 0:
		return c.fail("checkpoint write failpoint never fired")
	}
	if after, err := os.ReadFile(c.st.cfg.CheckpointPath); err != nil || string(after) != string(before) {
		return c.fail("crashed checkpoint rewrite altered the previous checkpoint file (%v)", err)
	}
	// Keep the failpoint armed through Close so its checkpoint attempt dies
	// too: recovery must then come from the baseline checkpoint plus the
	// journal tail behind it.
	c.st.st.Close()
	failpoint.Reset()
	return c.recovered(c.muts, "store recovered from the surviving checkpoint and WAL tail")
})

var runFsyncFailure = crashCheck("fsync-failure", storeOpts{}, func(c *crash) *Divergence {
	if err := c.apply(c.muts); err != nil {
		return c.fail("%v", err)
	}
	failpoint.SetError(live.FailpointWALSync, nil)
	if err := c.st.Publish(); !errors.Is(err, failpoint.ErrInjected) {
		return c.fail("Flush with a failing fsync returned %v, want the injected error", err)
	}
	failpoint.Clear(live.FailpointWALSync)
	// The failed sync must not have poisoned the store: the next Flush
	// succeeds and the published snapshot is the fresh build's.
	return c.held(c.muts, "snapshot served across a failed fsync")
})
