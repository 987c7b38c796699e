// Package prefixsum implements the prefix-sum data cube of Ho, Agrawal,
// Megiddo and Srikant (SIGMOD'97), the aggregation technique the paper
// builds its cumulative histograms on (§5.2): after an O(size)
// precomputation, the sum over any axis-aligned range of an array is
// answered in constant time (2^d lookups for d dimensions).
//
// Sum2D is the specialized 2-d form used by the Euler histograms; Cube is
// the general d-dimensional form used to realize the "rectangles as 4-d
// points" exact alternative discussed in §2 of the paper.
package prefixsum

import (
	"fmt"
	"math"
	"slices"
)

// Cell is the element type of a prefix plane: 4 or 8 bytes per value.
type Cell interface{ int32 | int64 }

// Sum2D is a 2-d prefix-sum array: P[i][j] = sum of src[0..i][0..j].
// It answers inclusive rectangular range sums in constant time.
//
// The plane is held at one of two cell widths, decided where it is built:
// []int32 when the builder knows every prefix value fits (AdoptSum2D over
// an int32 buffer), []int64 otherwise. Every result is an int64 assembled
// from the same prefix values, so the two widths answer bit-identically;
// the work itself is written once, as generic functions over Cell.
type Sum2D struct {
	nx, ny int
	p32    []int32 // the plane at 4 bytes per cell, row-major p[i*ny+j]; nil when wide
	p64    []int64 // the plane at 8 bytes per cell; nil when narrow
}

// NewSum2D builds the prefix sums of an nx×ny row-major array. The source
// slice must have exactly nx*ny entries and is left untouched.
func NewSum2D(src []int64, nx, ny int) *Sum2D {
	return AdoptSum2D(append([]int64(nil), src...), nx, ny)
}

// AdoptSum2D turns buf — the nx×ny row-major source values — into their
// prefix sums in place and returns the Sum2D that now owns it: the
// construction for callers that produce the source themselves (a histogram
// build) and would otherwise hold a second array of the same size just to
// have it copied. The plane keeps buf's cell width. In an int32 buffer the
// sums are formed in wrapping arithmetic, so the caller vouches only for
// the finished prefix values fitting, not for every intermediate.
func AdoptSum2D[T Cell](buf []T, nx, ny int) *Sum2D {
	if nx < 0 || ny < 0 || len(buf) != nx*ny {
		panic(fmt.Sprintf("prefixsum: source length %d does not match %dx%d", len(buf), nx, ny))
	}
	accumulate(buf, nx, ny)
	return Wrap(buf, nx, ny)
}

// Wrap returns the Sum2D over p, nx×ny row-major values that already are
// prefix sums — a plane accumulated while it streamed in from a file.
func Wrap[T Cell](p []T, nx, ny int) *Sum2D {
	if nx < 0 || ny < 0 || len(p) != nx*ny {
		panic(fmt.Sprintf("prefixsum: plane length %d does not match %dx%d", len(p), nx, ny))
	}
	s := &Sum2D{nx: nx, ny: ny}
	*cells[T](s) = p
	return s
}

// cells returns the field of s that holds a plane of cell type T.
func cells[T Cell](s *Sum2D) *[]T {
	if p, ok := any(&s.p32).(*[]T); ok {
		return p
	}
	return any(&s.p64).(*[]T)
}

// Narrow reports whether the plane is held at 4 bytes per cell.
func (s *Sum2D) Narrow() bool { return s.p32 != nil }

// Bytes returns the payload size of the plane.
func (s *Sum2D) Bytes() int { return 4*len(s.p32) + 8*len(s.p64) }

// MaxMagnitude returns the largest magnitude among the prefix values,
// counting a negative v as −v−1: the plane fits a signed cell type exactly
// when MaxMagnitude fits it. It is what a caller scans before vouching for
// a width it did not build.
func (s *Sum2D) MaxMagnitude() int64 {
	if s.p32 != nil {
		return maxMagnitude(s.p32)
	}
	return maxMagnitude(s.p64)
}

func maxMagnitude[T Cell](p []T) int64 {
	var m T
	for _, v := range p {
		m = max(m, v, ^v)
	}
	return int64(m)
}

// Release surrenders the buffer for refilling and re-adoption — generation
// recycling, which must not allocate O(nx·ny) per publish. It returns nil,
// and leaves s alone, when the plane is not of cell type T; otherwise s is
// unusable afterwards.
func Release[T Cell](s *Sum2D) []T {
	c := cells[T](s)
	p := *c
	*c = nil
	return p
}

// Pack returns the plane at 4 bytes per cell: s itself when it already is,
// else a narrowed copy. ok is false — and the result nil — when a prefix
// value overflows int32; narrowing is checked value by value, never
// assumed.
func (s *Sum2D) Pack() (packed *Sum2D, ok bool) {
	if s.p64 == nil {
		return s, true
	}
	p := make([]int32, len(s.p64))
	for i, v := range s.p64 {
		if v > math.MaxInt32 || v < math.MinInt32 {
			return nil, false
		}
		p[i] = int32(v)
	}
	return &Sum2D{nx: s.nx, ny: s.ny, p32: p}, true
}

// Unpack returns the plane at 8 bytes per cell: s itself when it already
// is, else a widened copy.
func (s *Sum2D) Unpack() *Sum2D {
	if s.p32 == nil {
		return s
	}
	p := make([]int64, len(s.p32))
	for i, v := range s.p32 {
		p[i] = int64(v)
	}
	return &Sum2D{nx: s.nx, ny: s.ny, p64: p}
}

// Clone returns an independent copy, the donor for copy-then-repair
// incremental maintenance when no recycled buffer is available.
func (s *Sum2D) Clone() *Sum2D {
	return &Sum2D{nx: s.nx, ny: s.ny, p32: slices.Clone(s.p32), p64: slices.Clone(s.p64)}
}

// accumulate replaces the nx×ny source values in p by their 2-d prefix
// sums in one pass: a row's running sum plus the finished row above.
func accumulate[T Cell](p []T, nx, ny int) {
	var prev []T
	for i := 0; i < nx; i++ {
		row := p[i*ny : (i+1)*ny]
		var acc T
		if prev == nil {
			for j, v := range row {
				acc += v
				row[j] = acc
			}
		} else {
			for j, v := range row {
				acc += v
				row[j] = acc + prev[j]
			}
		}
		prev = row
	}
}

// Sample returns the len(rows)×len(cols) plane t(i, j) = s(rows[i],
// cols[j]), at s's cell width. Sampling prefix sums at a monotone subsequence of coordinates yields the
// prefix sums of the source summed over the gaps in between — which is how
// a pyramid level is derived from the finer one without ever forming
// source values.
func (s *Sum2D) Sample(rows, cols []int) *Sum2D {
	t := &Sum2D{nx: len(rows), ny: len(cols)}
	if s.p32 != nil {
		t.p32 = make([]int32, t.nx*t.ny)
	} else {
		t.p64 = make([]int64, t.nx*t.ny)
	}
	t.Resample(s, rows, cols, 0, 0, t.nx-1, t.ny-1)
	return t
}

// Resample refreshes s inside the inclusive box [i1..i2]×[j1..j2] from
// src — a plane of s's cell width — through the index tables of Sample:
// s(i, j) = src(rows[i], cols[j]).
func (s *Sum2D) Resample(src *Sum2D, rows, cols []int, i1, j1, i2, j2 int) {
	if s.Narrow() != src.Narrow() {
		panic("prefixsum: resampling between planes of different cell widths")
	}
	if s.p32 != nil {
		resample(s.p32, s.ny, src.p32, src.ny, rows, cols, i1, j1, i2, j2)
	} else {
		resample(s.p64, s.ny, src.p64, src.ny, rows, cols, i1, j1, i2, j2)
	}
}

func resample[T Cell](dst []T, dny int, src []T, sny int, rows, cols []int, i1, j1, i2, j2 int) {
	for i := i1; i <= i2; i++ {
		from := src[rows[i]*sny : (rows[i]+1)*sny]
		to := dst[i*dny : (i+1)*dny]
		for j := j1; j <= j2; j++ {
			to[j] = from[cols[j]]
		}
	}
}

// AddRegionDelta repairs the prefix array in place after the source
// changed only inside the inclusive box [u1..u2]×[v1..v2]. delta is the
// row-major (u2−u1+1)×(v2−v1+1) array of per-cell source changes (new −
// old); it is consumed (overwritten with its own 2-d prefix).
//
// The repair exploits the structure of the prefix delta ΔP: inside the box
// it is the local 2-d prefix of delta; below the box it is constant per
// column (the box column totals); right of the box it is constant per row;
// and in the lower-right quadrant it is one constant c = the box total.
// Cost is O(box + strips) plus — only when c ≠ 0, i.e. the source total
// changed — a single-constant add over the quadrant. For churn whose
// inserts and deletes balance (the common live-update shape) c is zero and
// the quadrant is untouched, which is what makes repair cost track the
// dirty region instead of the array size.
func (s *Sum2D) AddRegionDelta(u1, v1, u2, v2 int, delta []int64) {
	if u1 < 0 || v1 < 0 || u1 > u2 || v1 > v2 || u2 >= s.nx || v2 >= s.ny {
		panic(fmt.Sprintf("prefixsum: delta box [%d..%d]x[%d..%d] outside %dx%d", u1, u2, v1, v2, s.nx, s.ny))
	}
	bw := v2 - v1 + 1
	bh := u2 - u1 + 1
	if len(delta) != bh*bw {
		panic(fmt.Sprintf("prefixsum: delta length %d does not match %dx%d box", len(delta), bh, bw))
	}
	// In-place local 2-d prefix of the delta box.
	for i := 0; i < bh; i++ {
		row := delta[i*bw : (i+1)*bw]
		for j := 1; j < bw; j++ {
			row[j] += row[j-1]
		}
		if i > 0 {
			prev := delta[(i-1)*bw : i*bw]
			for j, v := range prev {
				row[j] += v
			}
		}
	}
	if s.p32 != nil {
		addPrefixDelta(s.p32, s.nx, s.ny, u1, v1, u2, v2, delta)
	} else {
		addPrefixDelta(s.p64, s.nx, s.ny, u1, v1, u2, v2, delta)
	}
}

// addPrefixDelta adds ΔP to the plane, given the box's own local prefix.
func addPrefixDelta[T Cell](p []T, nx, ny, u1, v1, u2, v2 int, delta []int64) {
	bw := v2 - v1 + 1
	bh := u2 - u1 + 1
	// Box rows: local prefix inside the box, then the row's box total over
	// the tail to the right edge.
	for u := u1; u <= u2; u++ {
		drow := delta[(u-u1)*bw : (u-u1+1)*bw]
		prow := p[u*ny : (u+1)*ny]
		for j, v := range drow {
			prow[v1+j] += T(v)
		}
		if tail := T(drow[bw-1]); tail != 0 {
			addConst(prow[v2+1:], tail)
		}
	}
	// Rows below the box: the box column totals, then the box total c over
	// the quadrant (skipped entirely when the source total is unchanged).
	colDelta := delta[(bh-1)*bw : bh*bw]
	c := T(colDelta[bw-1])
	for u := u2 + 1; u < nx; u++ {
		prow := p[u*ny : (u+1)*ny]
		for j, v := range colDelta {
			prow[v1+j] += T(v)
		}
		if c != 0 {
			addConst(prow[v2+1:], c)
		}
	}
}

// addConst adds c to every cell of row: the row tails and the quadrant of
// addPrefixDelta, the bulk of a repair's writes. Eight cells a turn: the
// loop's own overhead would otherwise cost as much as the adds.
func addConst[T Cell](row []T, c T) {
	for ; len(row) >= 8; row = row[8:] {
		r := row[:8:8]
		r[0] += c
		r[1] += c
		r[2] += c
		r[3] += c
		r[4] += c
		r[5] += c
		r[6] += c
		r[7] += c
	}
	for i := range row {
		row[i] += c
	}
}

// NX returns the first dimension size.
func (s *Sum2D) NX() int { return s.nx }

// NY returns the second dimension size.
func (s *Sum2D) NY() int { return s.ny }

// Total returns the sum of the whole array.
func (s *Sum2D) Total() int64 {
	return s.PrefixAt(s.nx-1, s.ny-1)
}

// PrefixAt returns the prefix value P(i, j) = Σ src[0..i][0..j] with the
// same boundary conventions RangeSum applies to its corners: negative
// coordinates yield 0 and coordinates past the array edge are clamped to
// it.
func (s *Sum2D) PrefixAt(i, j int) int64 {
	if i < 0 || j < 0 {
		return 0
	}
	if i >= s.nx {
		i = s.nx - 1
	}
	if j >= s.ny {
		j = s.ny - 1
	}
	if s.p32 != nil {
		return int64(s.p32[i*s.ny+j])
	}
	return s.p64[i*s.ny+j]
}

// RangeSum returns the sum of src over the inclusive range
// [i1..i2]×[j1..j2]. Ranges are clamped to the array; an inverted or fully
// outside range sums to zero, which lets callers pass empty regions (e.g. a
// region A side rectangle of width zero) without special-casing. The four
// corners are widened to int64 before combining, so both cell widths
// return the same value.
func (s *Sum2D) RangeSum(i1, j1, i2, j2 int) int64 {
	if i1 < 0 {
		i1 = 0
	}
	if j1 < 0 {
		j1 = 0
	}
	if i2 >= s.nx {
		i2 = s.nx - 1
	}
	if j2 >= s.ny {
		j2 = s.ny - 1
	}
	if i1 > i2 || j1 > j2 {
		return 0
	}
	if s.p32 != nil {
		return cornerSum(s.p32, s.ny, i1, j1, i2, j2)
	}
	return cornerSum(s.p64, s.ny, i1, j1, i2, j2)
}

// cornerSum combines the four prefix corners of an in-range box, with the
// convention P(-1,·) = P(·,-1) = 0.
func cornerSum[T Cell](p []T, ny, i1, j1, i2, j2 int) int64 {
	sum := int64(p[i2*ny+j2])
	if i1 > 0 {
		sum -= int64(p[(i1-1)*ny+j2])
	}
	if j1 > 0 {
		sum -= int64(p[i2*ny+j1-1])
		if i1 > 0 {
			sum += int64(p[(i1-1)*ny+j1-1])
		}
	}
	return sum
}

// Plane is a read-only row view of a Sum2D at one cell width: what a
// kernel that streams prefix rows is instantiated over, once its caller
// has resolved the width (Narrow).
type Plane[T Cell] struct {
	nx, ny int
	p      []T
}

// PlaneOf returns s's plane as cells of type T. The view is empty — every
// Row panics — unless T is the plane's cell width.
func PlaneOf[T Cell](s *Sum2D) Plane[T] {
	return Plane[T]{nx: s.nx, ny: s.ny, p: *cells[T](s)}
}

// NY returns the length of a row.
func (pl Plane[T]) NY() int { return pl.ny }

// Row returns the prefix row P(i, ·) as a read-only slice, applying the
// boundary conventions PrefixAt applies to i: a coordinate past the array
// edge is clamped to it and a negative coordinate returns nil (every prefix
// value of a negative row is zero). Batch kernels use it to hoist the row
// lookup and clamping out of their per-corner loops.
func (pl Plane[T]) Row(i int) []T {
	if i < 0 {
		return nil
	}
	if i >= pl.nx {
		i = pl.nx - 1
	}
	return pl.p[i*pl.ny : (i+1)*pl.ny]
}
