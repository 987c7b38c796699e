package euler

import (
	"math"

	"spatialhist/internal/prefixsum"
)

// DirtyRegion is an inclusive lattice bounding box [U1..U2]×[V1..V2] of
// buckets whose raw values may differ from the builder's last Build. The
// zero box would name bucket (0,0), so the empty region is represented by
// an inverted box (EmptyRegion) that min/max widening absorbs for free.
type DirtyRegion struct {
	U1, V1, U2, V2 int
}

// EmptyRegion returns the identity element of Union: a region containing
// no buckets.
func EmptyRegion() DirtyRegion {
	return DirtyRegion{U1: math.MaxInt, V1: math.MaxInt, U2: -1, V2: -1}
}

// Empty reports whether the region contains no buckets.
func (d DirtyRegion) Empty() bool { return d.U1 > d.U2 || d.V1 > d.V2 }

// Union returns the bounding box of both regions.
func (d DirtyRegion) Union(o DirtyRegion) DirtyRegion {
	if d.Empty() {
		return o
	}
	if o.Empty() {
		return d
	}
	if o.U1 < d.U1 {
		d.U1 = o.U1
	}
	if o.V1 < d.V1 {
		d.V1 = o.V1
	}
	if o.U2 > d.U2 {
		d.U2 = o.U2
	}
	if o.V2 > d.V2 {
		d.V2 = o.V2
	}
	return d
}

// Area returns the number of buckets in the region.
func (d DirtyRegion) Area() int64 {
	if d.Empty() {
		return 0
	}
	return int64(d.U2-d.U1+1) * int64(d.V2-d.V1+1)
}

// Dirty returns the bounding box of all mutations since the last Build (or
// since the last MarkDirty restore).
func (b *Builder) Dirty() DirtyRegion { return b.dirty }

// MarkDirty restores a previously captured dirty region, widening the
// current one. Checkpointing needs it: writing a checkpoint calls Build,
// which resets the dirty box, but the live store's incremental baseline is
// the last *published* snapshot, not the checkpoint — without the restore a
// later BuildFrom would under-repair.
func (b *Builder) MarkDirty(d DirtyRegion) { b.dirty = b.dirty.Union(d) }

// DefaultCrossover is the repair-cost fraction above which BuildFrom
// rebuilds in full instead of repairing. The repairCost estimate is
// compared against 3·lattice, the unit of the fraction. BenchmarkCrossover
// on a 1024×1024 grid puts the measured break-even at 25% dirty *area* (6.8
// vs 17.1 ms at 10%, 16.3 vs 16.4 ms at 25%, 27.5 vs 17.4 ms at 50%); for a
// centered box of area fraction a the cost model evaluates to (a+√a)/3,
// which is 0.25 at a = 0.25.
const DefaultCrossover = 0.25

// BuildFromOpts tunes BuildFrom.
type BuildFromOpts struct {
	// Scratch donates the arrays of a retired histogram of the same
	// lattice and cell width (generation recycling): a repair patches them
	// in place, a full rebuild refills them. Stale must then bound every
	// bucket where Scratch's content differs from prev's; a repair covers
	// the union of Stale and the builder's dirty box. A scratch of another
	// shape or width is refused, and Stale with it. Note the DirtyRegion
	// zero value names bucket (0,0) — a donor with no damage passes
	// EmptyRegion().
	Scratch *Histogram
	Stale   DirtyRegion
}

// BuildStats reports which path BuildFrom took.
type BuildStats struct {
	// Incremental is true when the cumulative form was repaired rather
	// than recomputed.
	Incremental bool
	// Dirty is the builder dirty ∪ accepted scratch stale bounding box:
	// everywhere the returned histogram may differ from the donated
	// scratch or from prev, whichever strategy produced it — what a
	// pyramid over the scratch lags. Where it differs from prev alone is
	// the builder's dirty box (Builder.Dirty before the build), which is
	// what other retained buffers lag by.
	Dirty DirtyRegion
	// DirtyFrac is Dirty's share of the lattice.
	DirtyFrac float64
}

// BuildFrom is Build for a builder that has drifted from a previous
// histogram by a bounded set of mutations. prev must be a histogram the
// builder produced (Build or BuildFrom) with only Add/Remove calls in
// between; the result is bit-identical to Build. It takes one of two
// strategies, chosen from the data alone:
//
//   - repair: recompute raw buckets only inside the dirty bounding box and
//     patch the cumulative form with a restricted sweep, on the donated
//     scratch or on a clone of prev, so publish cost scales with what
//     changed instead of lattice size;
//   - full rebuild: one pass over the lattice, into the donated scratch
//     when there is one — once repairCost passes DefaultCrossover, and
//     whenever the builder has gone wide since prev (a narrow plane is
//     neither repaired into a wide one nor refilled as its scratch; the
//     wide generations that follow repair and recycle among themselves
//     again).
//
// When nothing changed since prev, prev itself is returned.
func (b *Builder) BuildFrom(prev *Histogram, opts BuildFromOpts) (*Histogram, BuildStats) {
	if prev == nil || prev.lx != b.lx || prev.ly != b.ly {
		return b.buildInto(opts.Scratch), BuildStats{Dirty: EmptyRegion(), DirtyFrac: 1}
	}
	scratch, r := opts.Scratch, b.dirty
	if scratch != nil && scratch.lx == b.lx && scratch.ly == b.ly && scratch.hc.Narrow() == (b.d32 != nil) {
		r = r.Union(opts.Stale)
	} else {
		scratch = nil // refused, and its stale box with it
	}
	if r.Empty() {
		// Nothing changed since prev: share it. A donated scratch stays
		// untouched (the caller keeps it pooled).
		return prev, BuildStats{Incremental: true, Dirty: r}
	}
	lattice := float64(b.lx) * float64(b.ly)
	stats := BuildStats{Dirty: r, DirtyFrac: float64(r.Area()) / lattice}
	if prev.hc.Narrow() != (b.d32 != nil) || b.repairCost(r) > DefaultCrossover*3*lattice {
		return b.buildInto(scratch), stats
	}
	stats.Incremental = true
	return b.repair(prev, scratch, r), stats
}

// repair is BuildFrom's incremental strategy: r, which must contain the
// builder's dirty box, recomputed on scratch's plane — which must agree
// with prev outside r — or, with no scratch, on a clone of prev.
func (b *Builder) repair(prev, scratch *Histogram, r DirtyRegion) *Histogram {
	var hc *prefixsum.Sum2D
	if scratch != nil {
		hc = scratch.hc
	} else {
		hc = prev.hc.Clone()
	}
	if b.d32 != nil {
		repairInto(b, b.d32, hc, r)
	} else {
		repairInto(b, b.d64, hc, r)
	}
	b.dirty = EmptyRegion()
	return &Histogram{g: b.g, lx: b.lx, ly: b.ly, hc: hc, n: b.n}
}

// repairCost estimates the bucket-writes of repairInto for region r: the
// box is visited twice (raw recompute + prefix add), the row tails and
// column strips once. The lower-right quadrant, which AddRegionDelta also
// shifts when the object count changed, is left out: that is one streaming
// constant add per cell, not the recompute-and-patch the model prices, and
// pricing it so sent localized feeds that change the count to full
// rebuilds costing twice the repair (DESIGN, "Incremental snapshot
// rebuilds").
func (b *Builder) repairCost(r DirtyRegion) float64 {
	box := float64(r.Area())
	bh := float64(r.U2 - r.U1 + 1)
	bw := float64(r.V2 - r.V1 + 1)
	tails := bh * float64(b.ly-r.V2-1)
	strips := float64(b.lx-r.U2-1) * bw
	return 2*box + tails + strips
}

// repairInto recomputes the raw buckets inside r from the difference array
// and clean borders, then repairs the cumulative form via
// Sum2D.AddRegionDelta. hc, a plane of the difference array's cell type,
// must agree with the builder's state everywhere outside r.
//
// The border decomposition: the unsigned raw value is the 2-d prefix S of
// the difference array, and for (u,v) inside the box
//
//	S(u,v) = S(u1−1,v) + S(u,v1−1) − S(u1−1,v1−1) + Σ diff[u1..u][v1..v]
//
// where the three border terms are the clean raw cells (sign-restored) just
// outside the box and the last term is a local 2-d prefix streamed with one
// column accumulator — O(box) total. There is no raw plane to read borders
// and old values from: both come out of the cumulative form, which still
// holds the pre-repair state until AddRegionDelta patches it — the top
// border and every box row by backward differencing (rawRow), the left
// border as one point sum per row.
func repairInto[T Cell](b *Builder, diff []T, hc *prefixsum.Sum2D, r DirtyRegion) {
	rows := prefixsum.PlaneOf[T](hc)
	u1, v1, u2, v2 := r.U1, r.V1, r.U2, r.V2
	w := b.ly + 1
	bw := v2 - v1 + 1
	bh := u2 - u1 + 1
	// unsigned restores the raw count of the signed bucket c at (u, v).
	unsigned := func(c int64, u, v int) int64 {
		if (u^v)&1 == 1 {
			return -c
		}
		return c
	}
	// top[0] is the corner S(u1−1, v1−1), top[1+k] the border S(u1−1, v1+k).
	top := make([]int64, bw+1)
	if u1 > 0 {
		lo := max(v1-1, 0)
		rawRow(rows, u1-1, lo, top[lo-v1+1:])
		for k := lo; k <= v2; k++ {
			top[1+k-v1] = unsigned(top[1+k-v1], u1-1, k)
		}
	}
	delta := make([]int64, bh*bw)
	colAcc := make([]int64, bw)
	for u := u1; u <= u2; u++ {
		var rowAcc, left int64
		if v1 > 0 {
			left = unsigned(hc.RangeSum(u, v1-1, u, v1-1), u, v1-1)
		}
		drow := delta[(u-u1)*bw : (u-u1+1)*bw]
		rawRow(rows, u, v1, drow) // the old values, replaced by new − old below
		for v := v1; v <= v2; v++ {
			rowAcc += int64(diff[u*w+v])
			colAcc[v-v1] += rowAcc
			s := unsigned(top[1+v-v1]+left-top[0]+colAcc[v-v1], u, v)
			drow[v-v1] = s - drow[v-v1]
		}
	}
	hc.AddRegionDelta(u1, v1, u2, v2, delta)
}
