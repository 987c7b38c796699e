package euler

import (
	"math"

	"spatialhist/internal/grid"
	"spatialhist/internal/prefixsum"
)

// Lattice is the query surface shared by the full (*Histogram) and packed
// (*PackedHistogram) lattice tiers: every sum the estimation algorithms of
// §5.2–§5.4 consume. Implementations must answer bit-identically for the
// same dataset — the packed tier is a lossless re-encoding, not an
// approximation (euler.Reduced is the approximate tier, with its own,
// explicitly bounded contract).
type Lattice interface {
	Grid() *grid.Grid
	Count() int64
	Total() int64
	StorageBuckets() int
	LatticeBytes() int
	InsideSum(q grid.Span) int64
	ClosedSum(q grid.Span) int64
	OutsideSum(q grid.Span) int64
	ContainedIn(r grid.Span) int64
	LatticeSum(u1, v1, u2, v2 int) int64
	GridQuerySums(region grid.Span, cols, rows int) (*TileSums, error)
	GridEulerSums(region grid.Span, cols, rows int) (*EulerSums, error)
}

// PackedHistogram is the int32-packed tier of an Euler histogram: the
// cumulative lattice re-encoded at 4 bytes per bucket. It serves every
// Lattice query bit-identically to the full histogram it was packed from,
// at half its resident bytes, but is never repaired in place — the tier
// for cold and archive datasets.
//
// Packing is always exact for the Euler lattice: each object contributes
// exactly one increment to every bucket of its lattice rectangle, so a
// cumulative value counts each object at most once per axis-separable
// corner and lies in [0, n]. Pack therefore succeeds whenever the object
// count fits int32, and the per-value check in prefixsum.PackSum2D makes
// that a verified property rather than an assumption.
type PackedHistogram struct {
	g      *grid.Grid
	lx, ly int
	hc     *prefixsum.Sum2DPacked
	pc     *prefixsum.Sum2D // optional nx×ny partial-cell count plane
	n      int64
}

// Pack returns the packed tier of h. ok is false when the cumulative
// values do not fit int32 (more than MaxInt32 objects); the caller then
// stays on the full tier.
func (h *Histogram) Pack() (*PackedHistogram, bool) {
	hc, ok := prefixsum.PackSum2D(h.hc)
	if !ok {
		return nil, false
	}
	return &PackedHistogram{g: h.g, lx: h.lx, ly: h.ly, hc: hc, pc: h.pc, n: h.n}, true
}

// Unpack promotes the packed tier back to a full histogram — the checked
// promotion path when a cold dataset warms up or outgrows int32. Widening
// the cumulative plane is all of it, so the result is bit-identical to the
// histogram that was packed (Build, repair and pyramid derivation all work
// on it).
func (p *PackedHistogram) Unpack() *Histogram {
	return &Histogram{g: p.g, lx: p.lx, ly: p.ly, hc: p.hc.Unpack(), pc: p.pc, n: p.n}
}

// Grid returns the underlying grid.
func (p *PackedHistogram) Grid() *grid.Grid { return p.g }

// Count returns |S|, the number of objects in the histogram.
func (p *PackedHistogram) Count() int64 { return p.n }

// Buckets returns the lattice dimensions (2nx-1, 2ny-1).
func (p *PackedHistogram) Buckets() (lx, ly int) { return p.lx, p.ly }

// StorageBuckets returns the number of histogram buckets, matching the
// full tier: packing changes bytes per bucket, not the bucket count §5.2
// reports.
func (p *PackedHistogram) StorageBuckets() int { return p.lx * p.ly }

// LatticeBytes returns the resident payload bytes of the packed tier:
// 4 bytes per bucket, one plane, plus the class plane when present.
func (p *PackedHistogram) LatticeBytes() int { return p.hc.Bytes() + planeBytes(p.pc, p.g) }

// Total returns the sum of all buckets (= the object count).
func (p *PackedHistogram) Total() int64 { return p.hc.Total() }

// InsideSum mirrors Histogram.InsideSum on the packed plane.
func (p *PackedHistogram) InsideSum(q grid.Span) int64 {
	return p.hc.RangeSum(2*q.I1, 2*q.J1, 2*q.I2, 2*q.J2)
}

// ClosedSum mirrors Histogram.ClosedSum on the packed plane.
func (p *PackedHistogram) ClosedSum(q grid.Span) int64 {
	return p.hc.RangeSum(2*q.I1-1, 2*q.J1-1, 2*q.I2+1, 2*q.J2+1)
}

// OutsideSum mirrors Histogram.OutsideSum on the packed plane.
func (p *PackedHistogram) OutsideSum(q grid.Span) int64 {
	return p.Total() - p.ClosedSum(q)
}

// Intersecting mirrors Histogram.Intersecting on the packed plane.
func (p *PackedHistogram) Intersecting(q grid.Span) int64 { return p.InsideSum(q) }

// ContainedIn mirrors Histogram.ContainedIn on the packed plane.
func (p *PackedHistogram) ContainedIn(r grid.Span) int64 {
	return p.n - p.OutsideSum(r)
}

// LatticeSum mirrors Histogram.LatticeSum on the packed plane.
func (p *PackedHistogram) LatticeSum(u1, v1, u2, v2 int) int64 {
	return p.hc.RangeSum(u1, v1, u2, v2)
}

// GridQuerySums runs the fused sweep over the packed plane. The gather
// widens each int32 corner to int64 before combining, so results are
// bit-identical to the full tier's.
func (p *PackedHistogram) GridQuerySums(region grid.Span, cols, rows int) (*TileSums, error) {
	tw, th, err := checkTiling(p.g, region, cols, rows)
	if err != nil {
		return nil, err
	}
	ts := &TileSums{
		Cols:   cols,
		Rows:   rows,
		Inside: make([]int64, cols*rows),
		Closed: make([]int64, cols*rows),
	}
	fusedTileSums(p.hc.Row, region, cols, rows, tw, th, ts)
	return ts, nil
}

// GridEulerSums runs the fused EulerApprox sweep over the packed plane,
// bit-identical to the full tier's.
func (p *PackedHistogram) GridEulerSums(region grid.Span, cols, rows int) (*EulerSums, error) {
	tw, th, err := checkTiling(p.g, region, cols, rows)
	if err != nil {
		return nil, err
	}
	es := &EulerSums{
		TileSums: TileSums{
			Cols:   cols,
			Rows:   rows,
			Inside: make([]int64, cols*rows),
			Closed: make([]int64, cols*rows),
		},
		AWide:          make([]int64, cols*rows),
		BandInside:     make([]int64, rows),
		BelowContained: make([]int64, rows),
	}
	nx, ny := p.g.NX(), p.g.NY()
	for r := 0; r < rows; r++ {
		j1 := region.J1 + r*th
		es.BandInside[r] = p.InsideSum(grid.Span{I1: 0, J1: j1, I2: nx - 1, J2: ny - 1})
		if j1 > 0 {
			es.BelowContained[r] = p.ContainedIn(grid.Span{I1: 0, J1: 0, I2: nx - 1, J2: j1 - 1})
		}
	}
	fusedEulerSums(p.hc.Row, region, cols, rows, tw, th, es)
	return es, nil
}

// LatticeBytes returns the resident payload bytes of the full tier: the
// cumulative plane at 8 bytes per bucket, plus the class plane when
// present.
func (h *Histogram) LatticeBytes() int { return 8*h.lx*h.ly + planeBytes(h.pc, h.g) }

// planeBytes is the resident cost of an optional partial-cell count plane:
// 8 bytes per cell, cumulative form only.
func planeBytes(pc *prefixsum.Sum2D, g *grid.Grid) int {
	if pc == nil {
		return 0
	}
	return 8 * g.NX() * g.NY()
}

// Packable reports whether a dataset of n objects packs to int32 — the
// promotion/demotion predicate shared by the serving tiers and the wire
// encoding.
func Packable(n int64) bool { return n >= 0 && n <= math.MaxInt32 }

var (
	_ Lattice = (*Histogram)(nil)
	_ Lattice = (*PackedHistogram)(nil)
)
