package shard

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"spatialhist/internal/core"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/query"
	"spatialhist/internal/telemetry"
)

// Backends names one shard: its single writer, read and written in
// place.
type Backends struct {
	Leader Handle
}

// Config configures NewCoordinator.
type Config struct {
	// Name labels the logical dataset in /api/info.
	Name string
	// Shards lists the shards in band order; required. All must serve
	// the same grid and algorithm.
	Shards []Backends
	// ProbeInterval is ignored: the coordinator runs no prober, and reads
	// each shard's generation when it is asked for one.
	ProbeInterval time.Duration
	// Telemetry receives the shard_* metrics; nil means
	// telemetry.Default().
	Telemetry *telemetry.Registry
}

// Coordinator answers queries by adding every shard's raw per-tile
// estimates into one plane, and routes ingest to the shard owning each
// object — one shard after another, on the calling goroutine.
type Coordinator struct {
	name   string
	g      *grid.Grid
	algo   string
	part   *Partition
	shards []Handle // in band order

	fanout       *telemetry.Histogram
	scatterErr   *telemetry.Counter
	ingestRouted *telemetry.Counter
}

// NewCoordinator validates the topology: every shard answers Info, over
// one shared grid and algorithm.
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
		fanout: reg.Histogram("shard_fanout_seconds",
			"Gather latency: every shard read into one plane.", nil),
		scatterErr: reg.Counter("shard_scatter_errors_total",
			"Shard reads that failed."),
		ingestRouted: reg.Counter("shard_ingest_routed_total",
			"Objects routed to their writer shard."),
	}

	for si, b := range cfg.Shards {
		if b.Leader == nil {
			return nil, fmt.Errorf("shard: shard %d has no leader", si)
		}
		info, err := b.Leader.Info()
		if err != nil {
			return nil, fmt.Errorf("shard: reading shard %d: %w", si, err)
		}
		g := gridFromInfo(info)
		if si == 0 {
			c.g, c.algo = g, info.Algorithm
		} else if g.Extent() != c.g.Extent() || g.NX() != c.g.NX() || g.NY() != c.g.NY() {
			return nil, fmt.Errorf("shard: shard %d grid %v differs from shard 0's %v", si, g, c.g)
		} else if info.Algorithm != c.algo {
			return nil, fmt.Errorf("shard: shard %d algorithm %q differs from shard 0's %q", si, info.Algorithm, c.algo)
		}
		c.shards = append(c.shards, b.Leader)
	}

	part, err := NewPartition(c.g, len(c.shards))
	if err != nil {
		return nil, err
	}
	c.part = part
	return c, nil
}

// Grid returns the shared grid every shard serves.
func (c *Coordinator) Grid() *grid.Grid { return c.g }

// gather reads every shard, one after another on the calling goroutine,
// and stops at the first that fails.
func (c *Coordinator) gather(read func(h Handle) error) (err error) {
	start := time.Now()
	for si, h := range c.shards {
		if err = read(h); err != nil {
			c.scatterErr.Inc()
			err = fmt.Errorf("shard %d (%s): %w", si, h.Name(), err)
			break
		}
	}
	c.fanout.ObserveDuration(time.Since(start))
	return err
}

// checkSpan validates that a span is well-formed and inside the grid.
func checkSpan(g *grid.Grid, s grid.Span) error {
	if !s.Valid() || s.I1 < 0 || s.J1 < 0 || s.I2 >= g.NX() || s.J2 >= g.NY() {
		return fmt.Errorf("span %v outside the %dx%d grid", s, g.NX(), g.NY())
	}
	return nil
}

// checkGrid refuses a tile map before it is gathered, with a
// geobrowse.RequestError: a malformed query is the client's error, a 400,
// not a shard failure.
func (c *Coordinator) checkGrid(region grid.Span, cols, rows int) error {
	if err := checkSpan(c.g, region); err != nil {
		return &geobrowse.RequestError{Err: err}
	}
	if _, _, err := query.Tiling(region, cols, rows); err != nil {
		return &geobrowse.RequestError{Err: err}
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

// Close releases nothing: the coordinator holds no goroutine, and the
// shards are not its own.
func (c *Coordinator) Close() error { return nil }

// Apply routes one batch of inserts or deletes to the writer shards
// owning each object and applies each shard's part in band order. The
// per-shard applied and rejected counts sum to exactly what a single store
// would report: out-of-space objects route to shard 0, which journals and
// rejects them just as the unsharded store does. A shard that fails counts
// what it applied before failing, as live.Store.Apply does, and the shards
// after it still apply. The
// acknowledged generation is Generation after every shard applied, so
// successive acks never decrease and none exceeds the generation Info
// reads after it. It makes the coordinator a geobrowse.Mutator, so its
// front serves ingest and delete.
func (c *Coordinator) Apply(op byte, rects []geom.Rect, flush bool) (applied, rejected int, gen uint64, err error) {
	var errs []error
	for si, g := range c.part.RouteRects(rects) {
		if len(g) == 0 {
			continue
		}
		a, r, _, err := c.shards[si].Apply(op, g, flush)
		applied += a
		rejected += r
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", si, err))
			continue
		}
		c.ingestRouted.Add(int64(len(g)))
	}
	return applied, rejected, c.Generation(), errors.Join(errs...)
}

// Generation is the sum of every shard's current generation — what an
// ingest acknowledges and the coordinator front's /healthz reports. Each
// shard's is a lock-free read of its published generation.
func (c *Coordinator) Generation() uint64 {
	var gen uint64
	for _, h := range c.shards {
		gen += h.Generation()
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

// gridFromInfo reconstructs a shard's grid from its Info, which carries
// the extent's float64s as they are, so the derived cell geometry matches
// the shard's exactly.
func gridFromInfo(info geobrowse.Info) *grid.Grid {
	ext := geom.Rect{XMin: info.Extent[0], YMin: info.Extent[1], XMax: info.Extent[2], YMax: info.Extent[3]}
	return grid.New(ext, info.GridNX, info.GridNY)
}
