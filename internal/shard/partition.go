// Package shard is the horizontal distribution layer over the live store:
// one logical dataset split across N writer shards by spatial column
// bands, each shard optionally trailed by WAL-shipped read replicas, with
// a coordinator in front that sums their raw estimates.
//
// The layer leans on one algebraic fact: Euler histograms are signed
// counts, so the histogram of a union of disjoint object sets is the
// field-wise sum of the per-set histograms — and every estimator in
// internal/core is integer-linear in its histogram sums with
// data-independent branching. Each shard therefore keeps a full-grid
// store over just its objects, answers queries with raw (unclamped)
// estimates, and the coordinator's merged sums are bit-identical to what
// one store over all the objects would produce. Partitioning is purely a
// routing rule; no histogram is ever split.
package shard

import (
	"fmt"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// Partition is the column-band routing rule: grid columns are divided
// into N contiguous bands, and an object belongs to the shard whose band
// contains its anchor column (the west column of its snapped span).
// Objects outside the data space route to shard 0, which journals and
// rejects them exactly as a single store would — keeping applied/rejected
// accounting in lockstep with the unsharded baseline.
type Partition struct {
	g      *grid.Grid
	starts []int // band i spans columns [starts[i], starts[i+1])
	byCol  []int // column -> shard
}

// NewPartition splits g's columns into n bands of near-equal width.
func NewPartition(g *grid.Grid, n int) (*Partition, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least one shard, got %d", n)
	}
	if n > g.NX() {
		return nil, fmt.Errorf("shard: %d shards over %d grid columns leaves empty bands", n, g.NX())
	}
	p := &Partition{g: g, starts: make([]int, n+1), byCol: make([]int, g.NX())}
	for i := 0; i <= n; i++ {
		p.starts[i] = i * g.NX() / n
	}
	for s := 0; s < n; s++ {
		for c := p.starts[s]; c < p.starts[s+1]; c++ {
			p.byCol[c] = s
		}
	}
	return p, nil
}

// N returns the number of shards.
func (p *Partition) N() int { return len(p.starts) - 1 }

// Band returns the inclusive column range shard i owns.
func (p *Partition) Band(i int) (c1, c2 int) { return p.starts[i], p.starts[i+1] - 1 }

// ShardFor returns the shard owning an object MBR.
func (p *Partition) ShardFor(r geom.Rect) int {
	span, ok := p.g.Snap(r)
	if !ok {
		return 0
	}
	return p.byCol[span.I1]
}

// RouteRects groups rects by owning shard, preserving input order within
// each group — the coordinator's ingest fan-out.
func (p *Partition) RouteRects(rects []geom.Rect) [][]geom.Rect {
	groups := make([][]geom.Rect, p.N())
	for _, r := range rects {
		s := p.ShardFor(r)
		groups[s] = append(groups[s], r)
	}
	return groups
}
