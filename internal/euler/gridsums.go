package euler

import (
	"fmt"
	"sync"

	"spatialhist/internal/grid"
	"spatialhist/internal/prefixsum"
)

// This file implements the batch query path: one browsing interaction asks
// for a cols×rows tile map over a region, and every per-tile sum the
// estimators need is a ±-combination of cumulative-lattice values at the
// tiles' corners. Because the tiling is equal-sized, adjacent tiles share
// corners — the right closed-sum corner of one tile column is the left
// inside-sum corner of the next — so the whole map needs cumulative values
// only at a (cols+1)×(rows+1) lattice of tile corners (an even/odd lattice
// pair per corner per axis, 4(cols+1)(rows+1) values in all). The kernel
// gathers those once and assembles every tile's sums from them, instead of
// re-deriving four clamped lookups per sum per tile. The arithmetic is the
// exact int64 combination RangeSum performs, so batch results are
// bit-identical to the per-tile path.

// TileSums holds the two per-tile bucket sums every estimator consumes,
// for a cols×rows tiling of a region, row-major from the south-west
// (index row*Cols+col, matching query.Browsing).
type TileSums struct {
	Cols, Rows int
	// Inside[k] is InsideSum of tile k: the buckets strictly inside it.
	Inside []int64
	// Closed[k] is ClosedSum of tile k: the buckets inside or on its
	// boundary. OutsideSum follows as Total − Closed.
	Closed []int64
}

// checkTiling validates a cols×rows tiling of region against g and returns
// the tile size in cells. The rules match query.Browsing: the region must
// lie within the grid and divide evenly.
func checkTiling(g *grid.Grid, region grid.Span, cols, rows int) (tw, th int, err error) {
	if cols <= 0 || rows <= 0 {
		return 0, 0, fmt.Errorf("euler: non-positive tiling %dx%d", cols, rows)
	}
	if !region.Valid() || region.I1 < 0 || region.J1 < 0 || region.I2 >= g.NX() || region.J2 >= g.NY() {
		return 0, 0, fmt.Errorf("euler: region %v outside %v", region, g)
	}
	if region.Width()%cols != 0 || region.Height()%rows != 0 {
		return 0, 0, fmt.Errorf("euler: %dx%d tiling does not divide region %v", cols, rows, region)
	}
	return region.Width() / cols, region.Height() / rows, nil
}

// The fused sweep keeps the corner samples of one tile boundary per
// rolling buffer pair instead of materializing the full corner matrix:
// for every tile boundary a=0..cols the even/odd lattice row pair
// (2·i(a)−2, 2·i(a)−1) — where i(a) is the boundary's cell index — is
// gathered once into two O(rows) vectors, and tile column a−1 is
// assembled the moment its right boundary lands, while all four vectors
// are still hot in L1. Each lattice row is touched exactly once per
// sweep, and the working set is four small vectors instead of the
// 4(cols+1)(rows+1)-entry matrix (≈320 KB on a 100×100 map) the previous
// kernel streamed through cache twice.
//
// The four values per corner cover every sum the estimators form:
// tile (r,c) spans cells [i(c)..i(c+1)−1]×[j(r)..j(r+1)−1], so
//
//	inside  = Σ lattice [2i(c) .. 2i(c+1)−2]   → corners odd/even
//	closed  = Σ lattice [2i(c)−1 .. 2i(c+1)−1] → corners even/odd
//	A-wide  = Σ lattice [2i(c)−1 .. 2i(c+1)−1]×[2j(r) .. 2j(r+1)−1]
//
// and the prefix corner of a range [u1..u2] is P(u1−1) and P(u2), which is
// exactly the even/odd pair of the boundary on each side.
//
// cornerPool recycles the rolling buffers between batch calls: a browse
// server computes tile maps continuously. Buffers come back dirty; the
// gather overwrites every entry.
var cornerPool sync.Pool

func getCorners(n int) []int64 {
	if v := cornerPool.Get(); v != nil {
		if c := v.([]int64); cap(c) >= n {
			return c[:n]
		}
	}
	return make([]int64, n)
}

func putCorners(c []int64) {
	if c != nil {
		cornerPool.Put(c) //lint:ignore SA6002 slice header allocation is negligible
	}
}

// gatherLine gathers one lattice prefix row's tile-corner samples into
// dst: the even/odd y-pair of every tile boundary b=0..rows, interleaved
// as dst[2b], dst[2b+1]. The source row is of either cell width — values
// widen to int64 as they are gathered, so downstream arithmetic is
// identical for both.
//
// The y coordinates form two interleaved arithmetic progressions of step
// 2·th, so the loop advances a single cursor instead of loading indices,
// four corner loads per unrolled iteration: only the first pair can be
// negative (prefix value zero, when the region touches the bottom edge)
// and only the last odd coordinate can clamp at the lattice edge (top
// edge), both handled outside the loop.
func gatherLine[T Cell](prow []T, dst []int64, j1, th, rows int) {
	if prow == nil { // row below the lattice: every prefix value is zero
		clear(dst)
		return
	}
	step := 2 * th
	b, v := 0, 2*j1-2
	if v < 0 {
		dst[0], dst[1] = 0, 0
		b, v = 1, v+step
	}
	for ; b+1 < rows; b += 2 {
		dst[2*b] = int64(prow[v])
		dst[2*b+1] = int64(prow[v+1])
		dst[2*b+2] = int64(prow[v+step])
		dst[2*b+3] = int64(prow[v+step+1])
		v += 2 * step
	}
	for ; b < rows; b++ {
		dst[2*b] = int64(prow[v])
		dst[2*b+1] = int64(prow[v+1])
		v += step
	}
	dst[2*rows] = int64(prow[v])
	dst[2*rows+1] = int64(prow[min(v+1, len(prow)-1)])
}

// fusedTileSums runs the fused row sweep over a prefix plane of either
// cell width. Inside and Closed of ts must be sized cols×rows; Cols/Rows
// are not touched.
func fusedTileSums[T Cell](hc prefixsum.Plane[T], region grid.Span, cols, rows, tw, th int, ts *TileSums) {
	nyp := 2 * (rows + 1)
	buf := getCorners(4 * nyp)
	defer putCorners(buf)
	prevE, prevO := buf[0:nyp], buf[nyp:2*nyp]
	curE, curO := buf[2*nyp:3*nyp], buf[3*nyp:4*nyp]
	inside, closed := ts.Inside, ts.Closed
	for a := 0; a <= cols; a++ {
		bx := region.I1 + a*tw
		gatherLine(hc.Row(2*bx-2), curE, region.J1, th, rows)
		gatherLine(hc.Row(2*bx-1), curO, region.J1, th, rows)
		if a > 0 {
			// Tile column a−1: inside range [2i(c) .. 2i(c+1)−2] reads the
			// left boundary's odd line and the right boundary's even line;
			// closed reads the flanking pair. The left pair is the previous
			// boundary's gather — no lattice row is touched twice.
			col := a - 1
			cinL, cinR := prevO, curE
			cclL, cclR := prevE, curO
			for r := 0; r < rows; r++ {
				inB, inT := 2*r+1, 2*r+2
				clB, clT := 2*r, 2*r+3
				k := r*cols + col
				inside[k] = cinR[inT] - cinL[inT] - cinR[inB] + cinL[inB]
				closed[k] = cclR[clT] - cclL[clT] - cclR[clB] + cclL[clB]
			}
		}
		prevE, curE = curE, prevE
		prevO, curO = curO, prevO
	}
}

// tileSums computes per-tile inside and closed sums with the fused sweep.
func tileSums(hc *prefixsum.Sum2D, region grid.Span, cols, rows, tw, th int) TileSums {
	ts := TileSums{
		Cols:   cols,
		Rows:   rows,
		Inside: make([]int64, cols*rows),
		Closed: make([]int64, cols*rows),
	}
	if hc.Narrow() {
		fusedTileSums(prefixsum.PlaneOf[int32](hc), region, cols, rows, tw, th, &ts)
	} else {
		fusedTileSums(prefixsum.PlaneOf[int64](hc), region, cols, rows, tw, th, &ts)
	}
	return ts
}

// CornerView is a zero-copy view of the cumulative lattice, at its cell
// width T, organized for one cols×rows tiling — the raw material of the
// fused batch estimator paths in core. ColumnRows hands out the four prefix
// lattice rows flanking a tile column and Interior tells which tile rows
// can read them branch-free; sums assembled from those rows, widened to
// int64, are bit-identical to the per-tile RangeSum path because they load
// the very same prefix values.
type CornerView[T Cell] struct {
	hc         prefixsum.Plane[T]
	region     grid.Span
	ny         int // grid cells in y
	tw, th     int
	cols, rows int
	zeros      []T // stand-in for lattice rows below the space
}

// CornerViewOf validates the tiling and returns the lattice view for it. T
// must be h's cell type (CellWidth); a batch kernel resolves it once per
// sweep and runs monomorphic from there. Unlike GridQuerySums the view
// gathers nothing: callers stream the prefix rows directly.
func CornerViewOf[T Cell](h *Histogram, region grid.Span, cols, rows int) (*CornerView[T], error) {
	tw, th, err := checkTiling(h.g, region, cols, rows)
	if err != nil {
		return nil, err
	}
	return &CornerView[T]{hc: prefixsum.PlaneOf[T](h.hc), region: region, ny: h.g.NY(), tw: tw, th: th, cols: cols, rows: rows}, nil
}

// ColumnRows returns the four prefix lattice rows flanking tile column
// col: inL/inR answer the inside sum, clL/clR the closed and A-wide sums.
// Rows below the lattice (region at the left edge) come back as shared
// zero rows, matching the zero-prefix convention; rows past it are
// clamped, matching RangeSum.
func (s *CornerView[T]) ColumnRows(col int) (inL, inR, clL, clR []T) {
	bxL := s.region.I1 + col*s.tw
	bxR := bxL + s.tw
	inL = s.rowOrZeros(2*bxL - 1)
	inR = s.rowOrZeros(2*bxR - 2)
	clL = s.rowOrZeros(2*bxL - 2)
	clR = s.rowOrZeros(2*bxR - 1)
	return inL, inR, clL, clR
}

func (s *CornerView[T]) rowOrZeros(u int) []T {
	if r := s.hc.Row(u); r != nil {
		return r
	}
	if s.zeros == nil {
		s.zeros = make([]T, s.hc.NY())
	}
	return s.zeros
}

// Interior returns the in-row cursor and the range of tile rows whose
// corner positions need no boundary handling: for tile row r in [r0, r1),
// with v = v0 + r·step, the inside sum combines ColumnRows values at v
// (bottom) and v+step−1 (top), the closed sum at v−1 and v+step, and the
// A-wide sum at v and v+step — all in range. Tile rows outside [r0, r1)
// (at most the first and last, when the region touches the bottom or top
// of the space) take the per-tile path instead.
func (s *CornerView[T]) Interior() (v0, step, r0, r1 int) {
	v0 = 2*s.region.J1 - 1
	step = 2 * s.th
	r0, r1 = 0, s.rows
	if s.region.J1 == 0 {
		r0 = 1 // the bottom corners fall below the lattice
	}
	if s.region.J2 == s.ny-1 {
		r1 = s.rows - 1 // the top closed corner clamps at the lattice edge
	}
	return v0, step, r0, r1
}

// Tile returns the cell span of tile (col, r) of the tiling.
func (s *CornerView[T]) Tile(col, r int) grid.Span {
	return grid.Span{
		I1: s.region.I1 + col*s.tw,
		J1: s.region.J1 + r*s.th,
		I2: s.region.I1 + (col+1)*s.tw - 1,
		J2: s.region.J1 + (r+1)*s.th - 1,
	}
}

// GridQuerySums computes the inside and closed bucket sums of every tile of
// a cols×rows tiling of region in one sweep over the tile-corner lattice.
// Results are bit-identical to calling InsideSum and ClosedSum per tile.
func (h *Histogram) GridQuerySums(region grid.Span, cols, rows int) (*TileSums, error) {
	tw, th, err := checkTiling(h.g, region, cols, rows)
	if err != nil {
		return nil, err
	}
	ts := tileSums(h.hc, region, cols, rows, tw, th)
	return &ts, nil
}

// GridInsideSums returns InsideSum for every tile of the tiling, row-major
// from the south-west.
func (h *Histogram) GridInsideSums(region grid.Span, cols, rows int) ([]int64, error) {
	ts, err := h.GridQuerySums(region, cols, rows)
	if err != nil {
		return nil, err
	}
	return ts.Inside, nil
}

// GridOutsideSums returns OutsideSum for every tile of the tiling,
// row-major from the south-west.
func (h *Histogram) GridOutsideSums(region grid.Span, cols, rows int) ([]int64, error) {
	ts, err := h.GridQuerySums(region, cols, rows)
	if err != nil {
		return nil, err
	}
	total := h.Total()
	out := ts.Closed // reuse: overwrite in place
	for k, closed := range out {
		out[k] = total - closed
	}
	return out, nil
}

// GridInsideSums is the exterior histogram's batch analogue: InsideSum for
// every tile of the tiling, row-major from the south-west, computed from
// one sweep over the tile-corner lattice.
func (h *ExteriorHistogram) GridInsideSums(region grid.Span, cols, rows int) ([]int64, error) {
	tw, th, err := checkTiling(h.g, region, cols, rows)
	if err != nil {
		return nil, err
	}
	ts := tileSums(h.hc, region, cols, rows, tw, th)
	return ts.Inside, nil
}
