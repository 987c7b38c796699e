package euler

import (
	"fmt"

	"spatialhist/internal/grid"
	"spatialhist/internal/prefixsum"
)

// This file implements the batch query path: one browsing interaction asks
// for a cols×rows tile map over a region, and every per-tile sum the
// estimators need is a ±-combination of cumulative-lattice values at the
// tiles' corners. Because the tiling is equal-sized, adjacent tiles share
// corners, so a tile column's sums read the same four prefix lattice rows
// (CornerView.ColumnRows) at positions that step by a fixed stride
// (CornerView.Interior). The kernels stream those rows instead of
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

// CornerView is a zero-copy view of the cumulative lattice, at its cell
// width T, organized for one cols×rows tiling — the raw material of every
// batch path: the estimator kernels in core and GridQuerySums. ColumnRows
// hands out the four prefix lattice rows flanking a tile column and
// Interior tells which tile rows can read them branch-free; sums assembled
// from those rows, widened to int64, are bit-identical to the per-tile
// RangeSum path because they load the very same prefix values.
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
// sweep and runs monomorphic from there. The view gathers nothing: callers
// stream the prefix rows directly.
func CornerViewOf[T Cell](h *Histogram, region grid.Span, cols, rows int) (CornerView[T], error) {
	tw, th, err := checkTiling(h.g, region, cols, rows)
	if err != nil {
		return CornerView[T]{}, err
	}
	return CornerView[T]{hc: prefixsum.PlaneOf[T](h.hc), region: region, ny: h.g.NY(), tw: tw, th: th, cols: cols, rows: rows}, nil
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
// a cols×rows tiling of region in one pass over the CornerView. Results are
// bit-identical to calling InsideSum and ClosedSum per tile.
func (h *Histogram) GridQuerySums(region grid.Span, cols, rows int) (*TileSums, error) {
	if h.CellWidth() == 4 {
		return gridQuerySums[int32](h, region, cols, rows)
	}
	return gridQuerySums[int64](h, region, cols, rows)
}

// gridQuerySums is GridQuerySums at cell width T: the interior tile rows
// from the column rows, the edge rows (at most the first and last, where
// corner positions leave the lattice) from the per-tile sums.
func gridQuerySums[T Cell](h *Histogram, region grid.Span, cols, rows int) (*TileSums, error) {
	cv, err := CornerViewOf[T](h, region, cols, rows)
	if err != nil {
		return nil, err
	}
	ts := &TileSums{Cols: cols, Rows: rows, Inside: make([]int64, cols*rows), Closed: make([]int64, cols*rows)}
	v0, step, r0, r1 := cv.Interior()
	for col := 0; col < cols; col++ {
		inL, inR, clL, clR := cv.ColumnRows(col)
		for r, v := r0, v0+r0*step; r < r1; r, v = r+1, v+step {
			k := r*cols + col
			ts.Inside[k] = int64(inR[v+step-1]) - int64(inL[v+step-1]) - int64(inR[v]) + int64(inL[v])
			ts.Closed[k] = int64(clR[v+step]) - int64(clL[v+step]) - int64(clR[v-1]) + int64(clL[v-1])
		}
	}
	for r := 0; r < rows; r++ {
		if r >= r0 && r < r1 {
			continue
		}
		for col := 0; col < cols; col++ {
			q := cv.Tile(col, r)
			ts.Inside[r*cols+col], ts.Closed[r*cols+col] = h.InsideSum(q), h.ClosedSum(q)
		}
	}
	return ts, nil
}
