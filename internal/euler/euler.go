// Package euler implements the Euler histogram of §5.1 of the paper
// (following Beigel & Tanin [BT98]): a signed histogram over the interior
// vertices, edges and faces of a grid, constructed so that — by Euler's
// Formula and its corollaries (§4.1) — every connected region in which an
// object intersects a query contributes exactly +1 to the sum of the
// buckets inside the query.
//
// # Lattice layout
//
// For an nx×ny grid the histogram has (2nx-1)×(2ny-1) buckets indexed by
// lattice coordinates (u, v) with u ∈ [0, 2nx-2], v ∈ [0, 2ny-2]:
//
//   - u even, v even: the face of cell (u/2, v/2)
//   - u odd,  v even: a vertical interior edge on grid line (u+1)/2
//   - u even, v odd:  a horizontal interior edge on grid line (v+1)/2
//   - u odd,  v odd:  an interior vertex
//
// The outer boundary of the grid carries no buckets: objects are shrunk
// (grid.Snap) so no object interior ever touches it.
//
// Inserting an object with cell span [i1..i2]×[j1..j2] increments every
// bucket in the lattice rectangle [2i1..2i2]×[2j1..2j2]; face and vertex
// buckets count +1 and edge buckets −1 (the inversion step of §5.1). With
// this sign convention, for any grid-aligned region R the sum of the
// buckets strictly inside R equals Σ_objects (V_i − E_i + F_i) of the
// object∩R intersection region, which Corollaries 4.1/4.2 make 1 per
// connected component and 0 for components with a hole (the loophole
// effect of §5.3).
package euler

import (
	"fmt"
	"math"
	"sync/atomic"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/prefixsum"
)

// Cell is the element type of a lattice plane: 4 or 8 bytes per bucket.
type Cell = prefixsum.Cell

// narrowLimit is the largest magnitude a 4-byte cell is trusted with:
// builders, Read and BuilderFromHistogram keep a lattice narrow while they
// can show that no value exceeds it, and go wide when they cannot.
var narrowLimit atomic.Int64

func init() { narrowLimit.Store(math.MaxInt32) }

// LowerNarrowLimit is a test seam, not a setting: it lowers narrowLimit so
// that a few hundred objects reach the widening and wide-plane paths that
// otherwise need two billion, and returns the function that restores it.
// Builders read the limit when they are made.
func LowerNarrowLimit(limit int64) (restore func()) {
	old := narrowLimit.Swap(limit)
	return func() { narrowLimit.Store(old) }
}

// Builder accumulates object insertions and produces an immutable
// Histogram. Construction uses a 2-d difference array, so inserting an
// object is O(1) regardless of its size and Build is O(lattice).
//
// The difference array, and the lattice built from it, are narrow — 4
// bytes per value — while bound shows that every value fits, and wide from
// the mutation that takes bound past the limit, for good.
type Builder struct {
	g      *grid.Grid
	lx, ly int
	d32    []int32 // (lx+1)×(ly+1) difference array while narrow, else nil
	d64    []int64 // the same array once wide
	n      int64
	dirty  DirtyRegion
	// bound is at least the magnitude of every difference entry and of
	// every cumulative lattice value of the builder's state. A rectangle
	// update moves each of them by at most 1 (its per-axis signed interval
	// sums telescope to {0, 1}), so bound grows by one per update: lifetime
	// adds plus removes.
	bound int64
	limit int64 // narrowLimit when the builder was made
}

// NewBuilder returns a Builder for the Euler histogram of g.
func NewBuilder(g *grid.Grid) *Builder { return newBuilder(g, false) }

func newBuilder(g *grid.Grid, wide bool) *Builder {
	lx := 2*g.NX() - 1
	ly := 2*g.NY() - 1
	b := &Builder{g: g, lx: lx, ly: ly, dirty: EmptyRegion(), limit: narrowLimit.Load()}
	if wide {
		b.d64 = make([]int64, (lx+1)*(ly+1))
	} else {
		b.d32 = make([]int32, (lx+1)*(ly+1))
	}
	return b
}

// addRect adds dir = ±1 to the raw counts of lattice rectangle
// [u1..u2]×[v1..v2] and charges the update to bound, widening the
// difference array first when that takes it past the limit.
func (b *Builder) addRect(u1, v1, u2, v2 int, dir int) {
	b.bound++
	if b.d32 != nil {
		if b.bound <= b.limit {
			diffRect(b.d32, b.ly+1, u1, v1, u2, v2, int32(dir))
			return
		}
		b.widen()
	}
	diffRect(b.d64, b.ly+1, u1, v1, u2, v2, int64(dir))
}

// Widen moves the builder to 8-byte cells for good, as if its bound had
// passed the limit, and marks its whole lattice dirty so that the next
// BuildFrom rebuilds at the new width: how builders whose planes share one
// cell width follow the first of them that goes wide.
func (b *Builder) Widen() {
	if b.d32 != nil {
		b.widen()
		b.dirty = DirtyRegion{U2: b.lx - 1, V2: b.ly - 1}
	}
}

// Merge adds o's objects to b, as if each had been added to b as well:
// the difference arrays, counts and bounds add, and the dirty boxes join.
// The two must share a grid.
func (b *Builder) Merge(o *Builder) {
	if b.bound += o.bound; b.d32 != nil && (o.d32 == nil || b.bound > b.limit) {
		b.widen()
	}
	switch {
	case b.d32 != nil:
		addCells(b.d32, o.d32)
	case o.d32 != nil:
		addCells(b.d64, o.d32)
	default:
		addCells(b.d64, o.d64)
	}
	b.n += o.n
	b.dirty = b.dirty.Union(o.dirty)
}

// widen moves the difference array to 8-byte cells, exactly: its narrow
// entries are all within bound.
func (b *Builder) widen() {
	b.d64 = make([]int64, len(b.d32))
	addCells(b.d64, b.d32)
	b.d32 = nil
}

// addCells adds src into dst element by element, across cell widths.
func addCells[D, S Cell](dst []D, src []S) {
	for i, v := range src {
		dst[i] += D(v)
	}
}

// diffRect is the difference-array form of a rectangle increment: four
// corner updates that cancel everywhere outside the rectangle.
func diffRect[T Cell](d []T, w, u1, v1, u2, v2 int, dir T) {
	d[u1*w+v1] += dir
	d[u1*w+v2+1] -= dir
	d[(u2+1)*w+v1] -= dir
	d[(u2+1)*w+v2+1] += dir
}

// Grid returns the grid this builder operates on.
func (b *Builder) Grid() *grid.Grid { return b.g }

// AddSpan inserts an object already snapped to a cell span. Spans are
// assumed to lie within the grid (grid.Snap guarantees this); out-of-range
// spans panic because they indicate a bug, not bad data.
func (b *Builder) AddSpan(s grid.Span) {
	if !s.Valid() || s.I1 < 0 || s.J1 < 0 || s.I2 >= b.g.NX() || s.J2 >= b.g.NY() {
		panic(fmt.Sprintf("euler: span %v outside %v", s, b.g))
	}
	u1, v1 := 2*s.I1, 2*s.J1
	u2, v2 := 2*s.I2, 2*s.J2
	b.addRect(u1, v1, u2, v2, 1)
	b.n++
	// A difference-array rectangle update changes the raw prefix only
	// inside [u1..u2]×[v1..v2]: the four corners cancel everywhere else.
	b.dirty = b.dirty.Union(DirtyRegion{U1: u1, V1: v1, U2: u2, V2: v2})
}

// RemoveSpan deletes one previously inserted object span, supporting
// archives and live stores that mutate between rebuilds of the cumulative
// form. It reports whether the span was applied, mirroring Add: spans
// outside the grid and removals from an empty builder (which would
// underflow the object count) are rejected rather than applied — a live
// ingestion path must survive a stray delete without corrupting state.
// The caller must only remove spans that were actually inserted: the
// histogram has no per-object record, so removing a foreign span silently
// corrupts bucket counts (the Σ buckets == count invariant still holds and
// cannot catch it).
func (b *Builder) RemoveSpan(s grid.Span) bool {
	if !s.Valid() || s.I1 < 0 || s.J1 < 0 || s.I2 >= b.g.NX() || s.J2 >= b.g.NY() {
		return false
	}
	if b.n == 0 {
		return false
	}
	u1, v1 := 2*s.I1, 2*s.J1
	u2, v2 := 2*s.I2, 2*s.J2
	b.addRect(u1, v1, u2, v2, -1)
	b.n--
	b.dirty = b.dirty.Union(DirtyRegion{U1: u1, V1: v1, U2: u2, V2: v2})
	return true
}

// Remove snaps the object MBR and deletes it, reporting whether the object
// was inside the data space (objects outside were never inserted) and the
// removal was applied. The same caller contract as RemoveSpan applies.
func (b *Builder) Remove(r geom.Rect) bool {
	s, ok := b.g.Snap(r)
	if !ok {
		return false
	}
	return b.RemoveSpan(s)
}

// Add snaps the object MBR to the grid and inserts it. It reports whether
// the object was inside the data space (objects entirely outside are
// skipped).
func (b *Builder) Add(r geom.Rect) bool {
	s, ok := b.g.Snap(r)
	if !ok {
		return false
	}
	b.AddSpan(s)
	return true
}

// AddAll inserts a batch of MBRs and returns how many were inside the data
// space.
func (b *Builder) AddAll(rs []geom.Rect) int {
	in := 0
	for _, r := range rs {
		if b.Add(r) {
			in++
		}
	}
	return in
}

// Count returns the number of objects inserted so far.
func (b *Builder) Count() int64 { return b.n }

// CellWidth returns the bytes per bucket of the histogram the builder
// would build now: 4 while it is narrow, 8 once it has gone wide.
func (b *Builder) CellWidth() int {
	if b.d32 != nil {
		return 4
	}
	return 8
}

// BuilderFromHistogram reconstructs a Builder whose state reproduces h:
// the inverse of Build, obtained by 2-d backward differencing of the raw
// (sign-restored) bucket counts, streamed row by row out of the cumulative
// form. It lets a checkpointed or deserialized histogram resume accepting
// mutations — Build on the returned builder is bit-identical to h, and
// further Add/Remove calls behave exactly as if the original builder had
// never been finalized.
//
// The builder resumes at h's cell width, so that BuildFrom against h
// repairs instead of rebuilding — narrow only once every reconstructed
// difference entry and every value of h is seen to be within the limit:
// h may come from a file, and nothing about it is assumed.
func BuilderFromHistogram(h *Histogram) *Builder {
	b := newBuilder(h.g, !h.hc.Narrow())
	if b.d32 != nil {
		if b.bound = resumeDiff(b.d32, h); b.bound > b.limit {
			b.d32, b.d64 = nil, make([]int64, len(b.d32))
		}
	}
	if b.d64 != nil {
		b.bound = resumeDiff(b.d64, h)
	}
	b.n = h.n
	return b
}

// resumeDiff fills diff, zeroed, with the difference array that builds h,
// and returns the largest magnitude among its entries and h's cumulative
// values. Entries are stored truncated: the array is exact only if the
// returned bound fits T.
func resumeDiff[T Cell](diff []T, h *Histogram) (bound int64) {
	w := h.ly + 1
	cur, above := make([]int64, h.ly), make([]int64, h.ly)
	for u := 0; u < h.lx; u++ {
		rawRowOf(h.hc, u, 0, cur)
		// raw unsigned counts: edge buckets carry inverted sign in h.
		for v := u&1 ^ 1; v < h.ly; v += 2 {
			cur[v] = -cur[v]
		}
		var left, aboveLeft int64
		drow := diff[u*w : u*w+h.ly]
		for v, c := range cur {
			d := c - left - above[v] + aboveLeft
			drow[v] = T(d)
			bound = max(bound, d, ^d)
			left, aboveLeft = c, above[v]
		}
		cur, above = above, cur
	}
	// Entries in the diff array's closing row/column (u = lx or v = ly)
	// only ever cancel increments and are never read by Build; zero is
	// consistent with the reconstructed interior.
	return max(bound, h.hc.MaxMagnitude())
}

// Build finalizes the difference array into the signed bucket values,
// computes the cumulative (prefix-sum) form H_c of §5.2, and returns the
// immutable histogram. The Builder remains usable: further Adds followed by
// another Build produce a histogram over the enlarged dataset. Build resets
// the dirty region: the returned histogram is a faithful baseline for a
// later BuildFrom.
func (b *Builder) Build() *Histogram {
	return b.buildInto(nil)
}

// buildInto runs a full build at the builder's cell width, refilling the
// lattice array of a donated scratch histogram when it has one of that
// shape and width (recycled generation buffers avoid the O(lattice)
// allocation; a narrow scratch is no use to a builder gone wide).
func (b *Builder) buildInto(scratch *Histogram) *Histogram {
	var hc *prefixsum.Sum2D
	if b.d32 != nil {
		hc = buildPlane(b, b.d32, scratch)
	} else {
		hc = buildPlane(b, b.d64, scratch)
	}
	b.dirty = EmptyRegion()
	return &Histogram{g: b.g, lx: b.lx, ly: b.ly, hc: hc, n: b.n}
}

// buildPlane materializes the signed buckets from the difference array and
// turns them into the cumulative form in place — one lattice-sized array in
// all, of the difference array's cell type.
func buildPlane[T Cell](b *Builder, diff []T, scratch *Histogram) *prefixsum.Sum2D {
	var buf []T
	if scratch != nil && scratch.lx == b.lx && scratch.ly == b.ly {
		buf = prefixsum.Release[T](scratch.hc)
	}
	if buf == nil {
		buf = make([]T, b.lx*b.ly)
	}
	rawInto(diff, buf, b.lx, b.ly)
	return prefixsum.AdoptSum2D(buf, b.lx, b.ly)
}

// Finish is Build for a builder's last use: the difference array itself
// becomes the histogram's plane, so the build allocates no lattice beside
// the one the builder already holds. The builder must not be used again.
func (b *Builder) Finish() *Histogram {
	var hc *prefixsum.Sum2D
	if b.d32 != nil {
		hc = finishPlane(b.d32, b.lx, b.ly)
	} else {
		hc = finishPlane(b.d64, b.lx, b.ly)
	}
	h := &Histogram{g: b.g, lx: b.lx, ly: b.ly, hc: hc, n: b.n}
	b.d32, b.d64 = nil, nil
	return h
}

// finishPlane turns a (lx+1)×(ly+1) difference array into the lx×ly
// cumulative plane in its own first lx·ly entries. rawInto may run in
// place: the entry it writes, u·ly+v, is never past the entry it has just
// read, u·(ly+1)+v, so no write lands on an entry still to be read.
func finishPlane[T Cell](diff []T, lx, ly int) *prefixsum.Sum2D {
	raw := diff[:lx*ly]
	rawInto(diff, raw, lx, ly)
	return prefixsum.AdoptSum2D(raw, lx, ly)
}

// rawInto computes the lx×ly signed bucket values from the difference
// array, row by row with one running column accumulator. In narrow cells
// the sums wrap: only the values that come out need to fit, and bound
// vouches for those.
func rawInto[T Cell](diff, raw []T, lx, ly int) {
	w := ly + 1
	colAcc := make([]T, ly)
	for u := 0; u < lx; u++ {
		var rowAcc T
		for v := 0; v < ly; v++ {
			rowAcc += diff[u*w+v]
			colAcc[v] += rowAcc
			c := colAcc[v]
			if (u^v)&1 == 1 { // edge bucket: invert
				c = -c
			}
			raw[u*ly+v] = c
		}
	}
}

// Histogram is an immutable Euler histogram, held as its cumulative form
// H_c alone (§5.2): every query is a constant-time combination of prefix
// values, and the signed bucket values themselves — needed only to
// serialize and to resume a builder — are recovered from it on demand
// (Bucket, rawRowOf). The plane's cells are 4 bytes wide whenever whoever
// built it could show the values fit, 8 otherwise (CellWidth); answers do
// not depend on which.
type Histogram struct {
	g      *grid.Grid
	lx, ly int
	hc     *prefixsum.Sum2D // prefix sums of the signed buckets, row-major [u*ly+v]
	n      int64
}

// rawRow writes the signed buckets (u, v1), (u, v1+1), … of a lattice into
// out: the 2-d backward difference of prefix rows u−1 and u, which is the
// point sum RangeSum(u, v, u, v) with the corners shared along the row.
func rawRow[T Cell](hc prefixsum.Plane[T], u, v1 int, out []int64) {
	cur, above := hc.Row(u), hc.Row(u-1)
	var left, aboveLeft int64
	if v1 > 0 {
		left = int64(cur[v1-1])
	}
	if above == nil { // u == 0: the prefix row above is all zero
		for k := range out {
			c := int64(cur[v1+k])
			out[k] = c - left
			left = c
		}
		return
	}
	if v1 > 0 {
		aboveLeft = int64(above[v1-1])
	}
	for k := range out {
		c, a := int64(cur[v1+k]), int64(above[v1+k])
		out[k] = c - left - a + aboveLeft
		left, aboveLeft = c, a
	}
}

// rawRowOf is rawRow over a plane of either cell width.
func rawRowOf(hc *prefixsum.Sum2D, u, v1 int, out []int64) {
	if hc.Narrow() {
		rawRow(prefixsum.PlaneOf[int32](hc), u, v1, out)
	} else {
		rawRow(prefixsum.PlaneOf[int64](hc), u, v1, out)
	}
}

// FromRects builds an Euler histogram over g directly from a set of MBRs.
func FromRects(g *grid.Grid, rs []geom.Rect) *Histogram {
	b := NewBuilder(g)
	b.AddAll(rs)
	return b.Finish()
}

// FromRectsParallel is FromRects: builds run on one goroutine, and the
// worker count is ignored. It remains for callers written against the
// parallel build.
func FromRectsParallel(g *grid.Grid, rs []geom.Rect, _ int) *Histogram {
	return FromRects(g, rs)
}

// Grid returns the underlying grid.
func (h *Histogram) Grid() *grid.Grid { return h.g }

// Count returns |S|, the number of objects in the histogram.
func (h *Histogram) Count() int64 { return h.n }

// Buckets returns the lattice dimensions (2nx-1, 2ny-1).
func (h *Histogram) Buckets() (lx, ly int) { return h.lx, h.ly }

// StorageBuckets returns the number of histogram buckets, the storage cost
// reported in §5.2: (2nx−1)(2ny−1).
func (h *Histogram) StorageBuckets() int { return h.lx * h.ly }

// CellWidth returns the bytes the cumulative plane spends per bucket: 4
// when it was built narrow, 8 otherwise.
func (h *Histogram) CellWidth() int {
	if h.hc.Narrow() {
		return 4
	}
	return 8
}

// LatticeBytes returns the resident payload bytes of the histogram: the
// cumulative plane at its cell width.
func (h *Histogram) LatticeBytes() int { return h.hc.Bytes() }

// Pack returns the histogram at 4 bytes per bucket: h itself when it is
// narrow already, else a copy narrowed value by value. ok is false when a
// cumulative value does not fit int32; the caller then keeps h.
func (h *Histogram) Pack() (packed *Histogram, ok bool) {
	hc, ok := h.hc.Pack()
	if !ok {
		return nil, false
	}
	return h.withPlane(hc), true
}

// Unpack returns the histogram at 8 bytes per bucket: h itself when it is
// wide already, else a widened copy.
func (h *Histogram) Unpack() *Histogram { return h.withPlane(h.hc.Unpack()) }

// withPlane returns h over another rendering of its cumulative plane.
func (h *Histogram) withPlane(hc *prefixsum.Sum2D) *Histogram {
	if hc == h.hc {
		return h
	}
	return &Histogram{g: h.g, lx: h.lx, ly: h.ly, hc: hc, n: h.n}
}

// Bucket returns the signed value of lattice bucket (u, v).
func (h *Histogram) Bucket(u, v int) int64 {
	if u < 0 || u >= h.lx || v < 0 || v >= h.ly {
		panic(fmt.Sprintf("euler: bucket (%d,%d) outside %dx%d lattice", u, v, h.lx, h.ly))
	}
	return h.hc.RangeSum(u, v, u, v)
}

// Total returns the sum of all buckets. By Corollary 4.1 this equals the
// number of inserted objects — the key structural invariant of the
// histogram.
func (h *Histogram) Total() int64 { return h.hc.Total() }

// InsideSum returns the sum of the buckets strictly inside the closed
// region of span q — n_ii in the paper (Equation 12): the exact number of
// connected object∩q intersection regions, which for rectangles vs a
// rectangle query is exactly the number of intersecting objects.
func (h *Histogram) InsideSum(q grid.Span) int64 {
	return h.hc.RangeSum(2*q.I1, 2*q.J1, 2*q.I2, 2*q.J2)
}

// ClosedSum returns the sum of the buckets inside or on the boundary of
// span q's region.
func (h *Histogram) ClosedSum(q grid.Span) int64 {
	return h.hc.RangeSum(2*q.I1-1, 2*q.J1-1, 2*q.I2+1, 2*q.J2+1)
}

// OutsideSum returns the sum of the buckets strictly outside span q's
// region — n'_ei in §5.3 (Equation 19): it counts one per connected
// object∩exterior region, so objects containing q contribute 0 (the
// loophole effect) and crossover objects contribute 2.
func (h *Histogram) OutsideSum(q grid.Span) int64 {
	return h.Total() - h.ClosedSum(q)
}

// Intersecting returns n_ii for q: the exact number of objects whose
// interiors intersect q's region. This is the Beigel–Tanin Level 1 result.
func (h *Histogram) Intersecting(q grid.Span) int64 { return h.InsideSum(q) }

// ContainedIn estimates the number of objects contained in the region of
// span r using the S-EulerApprox identity N_cs = |S| − Σ_outside(H)
// (Equation 16). The estimate is exact when no object contains or crosses
// r — in particular for the full-width, boundary-anchored Region B strips
// of the EulerApprox algorithm, which nothing inside the space can contain
// or cross.
func (h *Histogram) ContainedIn(r grid.Span) int64 {
	return h.n - h.OutsideSum(r)
}

// LatticeSum returns the sum of the buckets in the inclusive lattice
// rectangle [u1..u2]×[v1..v2], clamped to the lattice. It is the low-level
// primitive behind the regional sums of the EulerApprox algorithm, which
// needs bucket sums over non-rectangular (rectilinear) regions expressed as
// differences of lattice rectangles.
func (h *Histogram) LatticeSum(u1, v1, u2, v2 int) int64 {
	return h.hc.RangeSum(u1, v1, u2, v2)
}

// NaiveInsideSum recomputes InsideSum by walking buckets directly. It is
// O(area) and exists to cross-check the cumulative form in tests and
// ablation benchmarks.
func (h *Histogram) NaiveInsideSum(q grid.Span) int64 {
	if !q.Valid() {
		return 0
	}
	var sum int64
	row := make([]int64, 2*(q.J2-q.J1)+1)
	for u := 2 * q.I1; u <= 2*q.I2; u++ {
		rawRowOf(h.hc, u, 2*q.J1, row)
		for _, c := range row {
			sum += c
		}
	}
	return sum
}
