package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spatialhist/internal/core"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

// Backends is one shard's serving group: the single writer plus any
// WAL-shipped read replicas.
type Backends struct {
	Leader    Handle
	Followers []Handle
}

// Config configures NewCoordinator.
type Config struct {
	// Name labels the logical dataset in /api/info.
	Name string
	// Shards lists each shard's backends in band order; required. All
	// backends must serve the same grid and algorithm.
	Shards []Backends
	// ProbeInterval is how often backend status (liveness, lag) is
	// refreshed. 0 means 250ms; negative disables the background prober
	// (Probe can still be called explicitly).
	ProbeInterval time.Duration
	// Telemetry receives shard_* and replica_lag metrics; nil means
	// telemetry.Default().
	Telemetry *telemetry.Registry
}

// backend is one probed serving target.
type backend struct {
	h    Handle
	role string // "leader" or "follower"

	alive       atomic.Bool
	appliedSeq  atomic.Int64
	snapshotSeq atomic.Int64
	gen         atomic.Uint64
	lagGauge    *telemetry.Gauge
	upGauge     *telemetry.Gauge
}

// shardGroup is one shard's backends plus its read-balancing cursor.
type shardGroup struct {
	leader *backend
	all    []*backend // leader first
	rr     atomic.Uint64
	gen    atomic.Uint64 // the leader's highest generation seen by a probe or an ack
}

// raiseGen records a generation the leader reported; the known one only
// rises, whatever order probes and acks land in.
func (grp *shardGroup) raiseGen(gen uint64) {
	for {
		known := grp.gen.Load()
		if gen <= known || grp.gen.CompareAndSwap(known, gen) {
			return
		}
	}
}

// Coordinator answers queries by adding every shard's raw per-tile
// estimates into one plane, one shard after another on the request
// goroutine, and routes ingest to the writer shard owning each object.
// Reads balance across each shard's leader and its caught-up
// followers; a follower has caught up when its snapshot-visible sequence
// has reached the leader's applied sequence, both refreshed by the
// prober.
type Coordinator struct {
	name   string
	g      *grid.Grid
	algo   string
	part   *Partition
	shards []*shardGroup

	stop chan struct{}
	done chan struct{}

	fanout       *telemetry.Histogram
	reads        map[string]*telemetry.Counter // by role
	scatterErr   *telemetry.Counter
	ingestRouted *telemetry.Counter
	probes       *telemetry.Counter
}

// NewCoordinator validates the topology (every leader reachable, one
// shared grid and algorithm) and starts the status prober.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("shard: Config.Shards is required")
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	c := &Coordinator{
		name: cfg.Name,
		stop: make(chan struct{}),
		done: make(chan struct{}),
		fanout: reg.Histogram("shard_fanout_seconds",
			"Gather latency: every shard read into one plane.", nil),
		reads: map[string]*telemetry.Counter{
			"leader": reg.Counter("shard_reads_total",
				"Backend reads by role.", "role", "leader"),
			"follower": reg.Counter("shard_reads_total",
				"Backend reads by role.", "role", "follower"),
		},
		scatterErr: reg.Counter("shard_scatter_errors_total",
			"Backend requests that failed and were retried or gave up."),
		ingestRouted: reg.Counter("shard_ingest_routed_total",
			"Objects routed to their writer shard."),
		probes: reg.Counter("shard_probes_total",
			"Backend status probes."),
	}

	for si, b := range cfg.Shards {
		if b.Leader == nil {
			return nil, fmt.Errorf("shard: shard %d has no leader", si)
		}
		info, err := b.Leader.Info()
		if err != nil {
			return nil, fmt.Errorf("shard: probing shard %d leader: %w", si, err)
		}
		g := gridFromInfo(info)
		if si == 0 {
			c.g, c.algo = g, info.Algorithm
		} else if g.Extent() != c.g.Extent() || g.NX() != c.g.NX() || g.NY() != c.g.NY() {
			return nil, fmt.Errorf("shard: shard %d grid %v differs from shard 0's %v", si, g, c.g)
		} else if info.Algorithm != c.algo {
			return nil, fmt.Errorf("shard: shard %d algorithm %q differs from shard 0's %q", si, info.Algorithm, c.algo)
		}
		grp := &shardGroup{}
		mk := func(h Handle, role string) *backend {
			labels := []string{"shard", fmt.Sprint(si), "backend", h.Name()}
			be := &backend{
				h: h, role: role,
				lagGauge: reg.Gauge("replica_lag_bytes_coordinator",
					"Leader journal bytes a backend's snapshot trails by, as last probed.", labels...),
				upGauge: reg.Gauge("shard_backend_up",
					"Whether the backend answered its last probe.", labels...),
			}
			be.alive.Store(true)
			return be
		}
		grp.leader = mk(b.Leader, "leader")
		grp.all = append(grp.all, grp.leader)
		for _, f := range b.Followers {
			grp.all = append(grp.all, mk(f, "follower"))
		}
		c.shards = append(c.shards, grp)
	}

	part, err := NewPartition(c.g, len(c.shards))
	if err != nil {
		return nil, err
	}
	c.part = part

	c.Probe()
	interval := cfg.ProbeInterval
	if interval == 0 {
		interval = 250 * time.Millisecond
	}
	if interval > 0 {
		go c.probeLoop(interval)
	} else {
		close(c.done)
	}
	return c, nil
}

// Grid returns the shared grid every shard serves.
func (c *Coordinator) Grid() *grid.Grid { return c.g }

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Partition returns the routing rule, for callers that pre-split work.
func (c *Coordinator) Partition() *Partition { return c.part }

// Probe refreshes every backend's liveness, generation and replication
// sequences. The background prober calls it on its interval; tests and
// failover-sensitive callers can force a refresh.
func (c *Coordinator) Probe() {
	for _, grp := range c.shards {
		for _, be := range grp.all {
			c.probes.Inc()
			st, err := be.h.Status()
			if err != nil {
				be.alive.Store(false)
				be.upGauge.Set(0)
				continue
			}
			be.alive.Store(true)
			be.upGauge.Set(1)
			be.appliedSeq.Store(st.AppliedSeq)
			be.snapshotSeq.Store(st.SnapshotSeq)
			be.gen.Store(st.Generation)
			if be == grp.leader {
				grp.raiseGen(st.Generation)
			}
		}
		leaderSeq := grp.leader.appliedSeq.Load()
		for _, be := range grp.all {
			be.lagGauge.Set(max(0, leaderSeq-be.snapshotSeq.Load()))
		}
	}
}

func (c *Coordinator) probeLoop(every time.Duration) {
	defer close(c.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.Probe()
		}
	}
}

// candidates orders one shard's backends for a read: eligible backends
// first (rotated round-robin so load spreads), then the remaining ones as
// a last resort — probe state can be stale, and trying a "dead" backend
// beats failing the query. A follower is eligible while it is alive and
// its published snapshot has caught up with the leader's applied
// sequence; when the leader is unreachable that cannot be verified, and
// availability wins: alive followers stay eligible (reads keep flowing
// during a leader failover).
func (grp *shardGroup) candidates() []*backend {
	leaderSeq := grp.leader.appliedSeq.Load()
	leaderUp := grp.leader.alive.Load()
	var eligible, rest []*backend
	n := len(grp.all)
	start := int(grp.rr.Add(1)) % n
	for k := 0; k < n; k++ {
		be := grp.all[(start+k)%n]
		switch {
		case !be.alive.Load():
			rest = append(rest, be)
		case be.role == "leader":
			eligible = append(eligible, be)
		case !leaderUp || be.snapshotSeq.Load() >= leaderSeq:
			eligible = append(eligible, be)
		default:
			rest = append(rest, be)
		}
	}
	return append(eligible, rest...)
}

// gather reads one backend of every shard, one shard after another on the
// calling goroutine, failing over across each shard's remaining candidates
// when one errors. A failing backend is marked down on the spot (the
// prober revives it), so one slow death doesn't tax every later request.
func (c *Coordinator) gather(read func(h Handle) error) error {
	start := time.Now()
	errs := make([]error, len(c.shards))
	for si, grp := range c.shards {
		errs[si] = c.failover(si, grp.candidates(), read)
	}
	c.fanout.ObserveDuration(time.Since(start))
	return errors.Join(errs...)
}

// failover tries shard si's backends in order until one reads.
func (c *Coordinator) failover(si int, order []*backend, read func(h Handle) error) error {
	var lastErr error
	for _, be := range order {
		if err := read(be.h); err != nil {
			c.scatterErr.Inc()
			be.alive.Store(false)
			be.upGauge.Set(0)
			lastErr = err
			continue
		}
		c.reads[be.role].Inc()
		return nil
	}
	return fmt.Errorf("shard %d: every backend failed: %w", si, lastErr)
}

// checkSpan validates that a span is well-formed and inside the grid.
func checkSpan(g *grid.Grid, s grid.Span) error {
	if !s.Valid() || s.I1 < 0 || s.J1 < 0 || s.I2 >= g.NX() || s.J2 >= g.NY() {
		return fmt.Errorf("span %v outside the %dx%d grid", s, g.NX(), g.NY())
	}
	return nil
}

// checkGrid refuses a tile map before it is gathered, with a
// geobrowse.RequestError: a malformed query is the client's error, and
// must not walk the failover path marking healthy backends dead on their
// own 400s.
func (c *Coordinator) checkGrid(region grid.Span, cols, rows int) error {
	if err := checkSpan(c.g, region); err != nil {
		return &geobrowse.RequestError{Err: err}
	}
	w, h := region.I2-region.I1+1, region.J2-region.J1+1
	if cols <= 0 || rows <= 0 || w%cols != 0 || h%rows != 0 {
		return &geobrowse.RequestError{Err: fmt.Errorf("query: %dx%d tiling does not divide region %v at this resolution", cols, rows, region)}
	}
	return nil
}

// EstimateGrid gathers one tile map: every shard answers the full cols×rows
// tiling of region over its own objects, and the summed raw estimates are
// bit-identical to a single store's answer. The slice is the caller's.
func (c *Coordinator) EstimateGrid(region grid.Span, cols, rows int) ([]core.Estimate, error) {
	return c.SumGrid(nil, region, cols, rows)
}

// SumGrid is EstimateGrid into buf's storage, which it grows to cols×rows
// and zeroes, returning the plane every shard sweeps into on the caller's
// goroutine. Addition is exact for Euler histograms: each estimator field
// is an integer-linear function of its histogram's bucket sums, so summing
// the per-shard fields equals evaluating one store over all the objects.
func (c *Coordinator) SumGrid(buf []core.Estimate, region grid.Span, cols, rows int) ([]core.Estimate, error) {
	if err := c.checkGrid(region, cols, rows); err != nil {
		return buf, err
	}
	dst := slices.Grow(buf[:0], cols*rows)[:cols*rows]
	clear(dst)
	return dst, c.gather(func(h Handle) error { return h.AddGrid(dst, region, cols, rows) })
}

// EstimateSpans gathers a batch of arbitrary spans — the query and
// drill-down frontier path — summed like SumGrid into one new slice.
func (c *Coordinator) EstimateSpans(spans []grid.Span) ([]core.Estimate, error) {
	for _, s := range spans {
		if err := checkSpan(c.g, s); err != nil {
			return nil, &geobrowse.RequestError{Err: err}
		}
	}
	dst := make([]core.Estimate, len(spans))
	return dst, c.gather(func(h Handle) error { return h.AddSpans(dst, spans) })
}

// Close stops the prober. Backends are not owned by the coordinator and
// stay up.
func (c *Coordinator) Close() error {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
	return nil
}

// Apply routes one batch of inserts or deletes to the writer shards
// owning each object and applies them in parallel. The per-shard applied
// and rejected counts sum to exactly what a single store would report:
// out-of-space objects route to shard 0, which journals and rejects them
// just as the unsharded store does. The acknowledged generation is the sum
// over every shard of its leader's highest known generation — the shards
// this batch touched at their acks, the rest as last probed or acked — so
// successive acks never decrease and none exceeds the generation Info
// reads after it. It makes the coordinator a geobrowse.Mutator, so its
// front serves ingest and delete.
func (c *Coordinator) Apply(op byte, rects []geom.Rect, flush bool) (applied, rejected int, gen uint64, err error) {
	groups := c.part.RouteRects(rects)
	var wg sync.WaitGroup
	var mu sync.Mutex
	errs := make([]error, len(c.shards))
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			grp := c.shards[si]
			a, r, gn, err := grp.leader.h.Apply(op, g, flush)
			if err != nil {
				errs[si] = fmt.Errorf("shard %d leader: %w", si, err)
				return
			}
			grp.raiseGen(gn)
			mu.Lock()
			defer mu.Unlock()
			applied += a
			rejected += r
			c.ingestRouted.Add(int64(len(g)))
		}()
	}
	wg.Wait()
	return applied, rejected, c.Generation(), errors.Join(errs...)
}

// Generation is the sum over every shard of its leader's highest
// generation seen by a probe or an ack — what an ingest acknowledges and
// the coordinator front's /healthz reports, read without touching a shard.
func (c *Coordinator) Generation() uint64 {
	var gen uint64
	for _, grp := range c.shards {
		gen += grp.gen.Load()
	}
	return gen
}

// Info aggregates the logical dataset's metadata: object and bucket
// counts sum across shards (each shard summarizes a disjoint slice of the
// objects), the generation is the sum of shard generations (strictly
// increasing whenever any shard publishes), and grid and algorithm are
// the shared ones.
func (c *Coordinator) Info() (geobrowse.Info, error) {
	ext := c.g.Extent()
	info := geobrowse.Info{
		Dataset:   c.name,
		Algorithm: c.algo,
		Extent:    [4]float64{ext.XMin, ext.YMin, ext.XMax, ext.YMax},
		GridNX:    c.g.NX(),
		GridNY:    c.g.NY(),
	}
	err := c.gather(func(h Handle) error {
		si, err := h.Info()
		if err != nil {
			return err
		}
		info.Objects += si.Objects
		info.StorageBuckets += si.StorageBuckets
		info.Generation += si.Generation
		return nil
	})
	return info, err
}

// Healthy reports whether every shard currently has at least one alive
// backend, as last probed: the coordinator front's /healthz is 503 while it
// does not.
func (c *Coordinator) Healthy() bool {
	for _, grp := range c.shards {
		ok := false
		for _, be := range grp.all {
			if be.alive.Load() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// gridFromInfo reconstructs a backend's grid from its Info, which carries
// the extent's float64s as they are, so the derived cell geometry matches
// the backend's exactly.
func gridFromInfo(info geobrowse.Info) *grid.Grid {
	ext := geom.Rect{XMin: info.Extent[0], YMin: info.Extent[1], XMax: info.Extent[2], YMax: info.Extent[3]}
	return grid.New(ext, info.GridNX, info.GridNY)
}
