package shard

import (
	"fmt"

	"spatialhist/internal/core"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
)

// Handle is one shard as the coordinator sees it: raw estimates added into
// a plane the coordinator owns, its generation, and the write path.
// Implementations must be safe for concurrent use.
type Handle interface {
	// Name labels the shard in errors and /api/shards.
	Name() string
	// Info returns the shard's dataset metadata (grid, algorithm, object
	// count, generation).
	Info() (geobrowse.Info, error)
	// AddGrid adds the RAW (unclamped) estimates of the cols×rows tiling of
	// region into dst, row-major from the south-west (len cols×rows) — raw
	// because the coordinator sums shards by addition and clamping is not
	// additive. It fails only before adding anything.
	AddGrid(dst []core.Estimate, region grid.Span, cols, rows int) error
	// AddSpans adds the raw estimate of every span into dst, one per span,
	// with AddGrid's failure contract.
	AddSpans(dst []core.Estimate, spans []grid.Span) error
	// Generation returns the shard's published generation.
	Generation() uint64
	// Apply applies one batch of inserts (live.OpInsert) or deletes
	// (live.OpDelete) with live.Store.Apply's contract. A Handle is a
	// geobrowse.Mutator.
	Apply(op byte, rects []geom.Rect, flush bool) (applied, rejected int, gen uint64, err error)
}

// LocalHandle adapts a live store to the Handle contract — the backend of
// `geobrowsed -live -shards N`, the tests and the differential oracles.
// Each read pins the store's snapshot, plans, adds and releases the pin.
type LocalHandle struct {
	Store *live.Store
	Label string
}

// Name implements Handle.
func (h *LocalHandle) Name() string {
	if h.Label != "" {
		return h.Label
	}
	return "local"
}

// Info implements Handle.
func (h *LocalHandle) Info() (geobrowse.Info, error) {
	est, gen, release := h.Store.AcquireEstimator()
	defer release()
	return geobrowse.EstimatorInfo(h.Name(), est, gen), nil
}

// AddGrid implements Handle.
func (h *LocalHandle) AddGrid(dst []core.Estimate, region grid.Span, cols, rows int) error {
	est, _, release := h.Store.AcquireEstimator()
	defer release()
	p, err := core.PlanGrid(est, region, cols, rows)
	if err != nil {
		return err
	}
	return p.Add(dst)
}

// AddSpans implements Handle.
func (h *LocalHandle) AddSpans(dst []core.Estimate, spans []grid.Span) error {
	if len(dst) != len(spans) {
		return fmt.Errorf("shard: plane of %d estimates for %d spans", len(dst), len(spans))
	}
	est, _, release := h.Store.AcquireEstimator()
	defer release()
	for k, s := range spans {
		dst[k].Add(est.Estimate(s))
	}
	return nil
}

// Generation implements Handle: live.Store.Generation, a lock-free read.
func (h *LocalHandle) Generation() uint64 { return h.Store.Generation() }

// Apply implements Handle.
func (h *LocalHandle) Apply(op byte, rects []geom.Rect, flush bool) (applied, rejected int, gen uint64, err error) {
	return h.Store.Apply(op, rects, flush)
}
