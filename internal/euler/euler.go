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

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/prefixsum"
)

// Builder accumulates object insertions and produces an immutable
// Histogram. Construction uses a 2-d difference array, so inserting an
// object is O(1) regardless of its size and Build is O(lattice).
type Builder struct {
	g      *grid.Grid
	lx, ly int
	diff   []int64 // (lx+1)×(ly+1) difference array
	pdiff  []int64 // optional (nx+1)×(ny+1) partial-cell count difference array
	n      int64
	rects  int64 // objects rejected as outside the space
	dirty  DirtyRegion
}

// NewBuilder returns a Builder for the Euler histogram of g.
func NewBuilder(g *grid.Grid) *Builder {
	lx := 2*g.NX() - 1
	ly := 2*g.NY() - 1
	return &Builder{
		g:     g,
		lx:    lx,
		ly:    ly,
		diff:  make([]int64, (lx+1)*(ly+1)),
		dirty: EmptyRegion(),
	}
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
	// Difference-array rectangle increment on the raw (unsigned) counts.
	w := b.ly + 1
	b.diff[u1*w+v1]++
	b.diff[u1*w+v2+1]--
	b.diff[(u2+1)*w+v1]--
	b.diff[(u2+1)*w+v2+1]++
	b.n++
	// A difference-array rectangle update changes the raw prefix only
	// inside [u1..u2]×[v1..v2]: the four corners cancel everywhere else.
	b.dirty = b.dirty.Union(DirtyRegion{U1: u1, V1: v1, U2: u2, V2: v2})
	if b.pdiff != nil {
		// An MBR span carries no coverage classes; count every cell as
		// partially covered — conservative, so certificates stay sound.
		b.planeSpan(s, 1)
	}
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
	w := b.ly + 1
	b.diff[u1*w+v1]--
	b.diff[u1*w+v2+1]++
	b.diff[(u2+1)*w+v1]++
	b.diff[(u2+1)*w+v2+1]--
	b.n--
	b.dirty = b.dirty.Union(DirtyRegion{U1: u1, V1: v1, U2: u2, V2: v2})
	if b.pdiff != nil {
		b.planeSpan(s, -1)
	}
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
// counted separately and skipped).
func (b *Builder) Add(r geom.Rect) bool {
	s, ok := b.g.Snap(r)
	if !ok {
		b.rects++
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

// BuilderFromHistogram reconstructs a Builder whose state reproduces h:
// the inverse of Build, obtained by 2-d backward differencing of the raw
// (sign-restored) bucket counts, streamed row by row out of the cumulative
// form. It lets a checkpointed or deserialized histogram resume accepting
// mutations — Build on the returned builder is bit-identical to h, and
// further Add/Remove calls behave exactly as if the original builder had
// never been finalized. The skipped-object counter is not part of a
// histogram and restarts at zero.
func BuilderFromHistogram(h *Histogram) *Builder {
	b := NewBuilder(h.g)
	w := b.ly + 1
	cur, above := make([]int64, b.ly), make([]int64, b.ly)
	for u := 0; u < b.lx; u++ {
		rawRow(h.hc.Row, u, 0, cur)
		// raw unsigned counts: edge buckets carry inverted sign in h.
		for v := u&1 ^ 1; v < b.ly; v += 2 {
			cur[v] = -cur[v]
		}
		var left, aboveLeft int64
		drow := b.diff[u*w : u*w+b.ly]
		for v, c := range cur {
			drow[v] = c - left - above[v] + aboveLeft
			left, aboveLeft = c, above[v]
		}
		cur, above = above, cur
	}
	// Entries in the diff array's closing row/column (u = lx or v = ly)
	// only ever cancel increments and are never read by Build; zero is
	// consistent with the reconstructed interior.
	b.restorePlane(h)
	b.n = h.n
	return b
}

// Skipped returns the number of objects rejected because they lie entirely
// outside the data space.
func (b *Builder) Skipped() int64 { return b.rects }

// Build finalizes the difference array into the signed bucket values,
// computes the cumulative (prefix-sum) form H_c of §5.2, and returns the
// immutable histogram. The Builder remains usable: further Adds followed by
// another Build produce a histogram over the enlarged dataset. Build resets
// the dirty region: the returned histogram is a faithful baseline for a
// later BuildFrom.
func (b *Builder) Build() *Histogram {
	return b.buildInto(nil, 1)
}

// BuildParallel is Build with the two cumulative passes (raw
// materialization and prefix-sum construction) fanned across up to workers
// goroutines. The result is bit-identical to Build.
func (b *Builder) BuildParallel(workers int) *Histogram {
	return b.buildInto(nil, workers)
}

// buildInto materializes the signed buckets into buf (allocated when nil,
// so recycled generation buffers avoid the O(lattice) allocation) and turns
// them into the cumulative form in place — one lattice-sized array in all —
// using up to workers goroutines for both passes.
func (b *Builder) buildInto(buf []int64, workers int) *Histogram {
	if buf == nil {
		buf = make([]int64, b.lx*b.ly)
	}
	b.rawInto(buf, workers)
	b.dirty = EmptyRegion()
	return &Histogram{
		g:  b.g,
		lx: b.lx,
		ly: b.ly,
		hc: prefixsum.AdoptSum2D(buf, b.lx, b.ly, workers),
		pc: b.partialPlane(),
		n:  b.n,
	}
}

// rawInto computes the signed bucket values from the difference array. The
// serial path streams row by row with one running column accumulator; the
// parallel path splits the same 2-d prefix into a per-row pass (independent
// rows) and a per-column accumulation pass (independent column chunks),
// which is bit-identical because int64 addition is exact and
// order-independent.
func (b *Builder) rawInto(raw []int64, workers int) {
	w := b.ly + 1
	if workers <= 1 || b.lx*b.ly < 1<<16 {
		colAcc := make([]int64, b.ly)
		for u := 0; u < b.lx; u++ {
			var rowAcc int64
			for v := 0; v < b.ly; v++ {
				rowAcc += b.diff[u*w+v]
				colAcc[v] += rowAcc
				c := colAcc[v]
				if (u^v)&1 == 1 { // edge bucket: invert
					c = -c
				}
				raw[u*b.ly+v] = c
			}
		}
		return
	}
	// Pass A: prefix each diff row along v (rows are independent).
	fanLatticeChunks(b.lx, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			var rowAcc int64
			for v := 0; v < b.ly; v++ {
				rowAcc += b.diff[u*w+v]
				raw[u*b.ly+v] = rowAcc
			}
		}
	})
	// Pass B: accumulate down each column and fold in the edge-bucket sign
	// (columns are independent).
	fanLatticeChunks(b.ly, workers, func(vlo, vhi int) {
		acc := make([]int64, vhi-vlo)
		for u := 0; u < b.lx; u++ {
			row := raw[u*b.ly : (u+1)*b.ly]
			for v := vlo; v < vhi; v++ {
				s := acc[v-vlo] + row[v]
				acc[v-vlo] = s
				if (u^v)&1 == 1 {
					s = -s
				}
				row[v] = s
			}
		}
	})
}

// Histogram is an immutable Euler histogram, held as its cumulative form
// H_c alone (§5.2): every query is a constant-time combination of prefix
// values, and the signed bucket values themselves — needed only to
// serialize, to resume a builder and by the join sweep — are recovered from
// it on demand (Bucket, RawRow).
type Histogram struct {
	g      *grid.Grid
	lx, ly int
	hc     *prefixsum.Sum2D // prefix sums of the signed buckets, row-major [u*ly+v]
	pc     *prefixsum.Sum2D // optional nx×ny partial-cell count plane
	n      int64
}

// rawRow writes the signed buckets (u, v1), (u, v1+1), … of a lattice into
// out: the 2-d backward difference of prefix rows u−1 and u, which is the
// point sum RangeSum(u, v, u, v) with the corners shared along the row.
// rowOf is the cumulative plane's Row method, of either tier.
func rawRow[T ~int32 | ~int64](rowOf func(int) []T, u, v1 int, out []int64) {
	cur, above := rowOf(u), rowOf(u-1)
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

// FromRects builds an Euler histogram over g directly from a set of MBRs.
func FromRects(g *grid.Grid, rs []geom.Rect) *Histogram {
	b := NewBuilder(g)
	b.AddAll(rs)
	return b.Build()
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
		rawRow(h.hc.Row, u, 2*q.J1, row)
		for _, c := range row {
			sum += c
		}
	}
	return sum
}
