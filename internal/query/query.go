// Package query builds the browsing query sets of the paper's evaluation.
//
// A browsing query (§1, §2) selects a region and grids it into tiles; every
// tile is an independent COUNT query about Level 2 spatial relations. The
// evaluation's query sets Q_n (§6.1.2) are browsing queries whose selected
// region is the whole 360×180 space and whose tiles are n×n, giving
// (360/n)×(180/n) queries per set.
package query

import (
	"fmt"

	"spatialhist/internal/grid"
)

// Set is an ordered collection of grid-aligned tile queries produced by a
// single browsing interaction.
type Set struct {
	Name  string
	Tiles []grid.Span
	// Region is the selected region the tiles partition; Cols×Rows is the
	// tiling. Tiles[row*Cols+col] covers the col-th tile column from the
	// west and the row-th tile row from the south.
	Region     grid.Span
	Cols, Rows int
	// TileW and TileH are the tile size in cells; all tiles in a set are
	// equal-sized.
	TileW, TileH int
}

// Len returns the number of tiles (individual queries) in the set.
func (s *Set) Len() int { return len(s.Tiles) }

// String implements fmt.Stringer.
func (s *Set) String() string {
	return fmt.Sprintf("%s: %d tiles of %dx%d cells", s.Name, len(s.Tiles), s.TileW, s.TileH)
}

// PaperNs lists the tile sizes of the paper's eleven query sets, largest
// first as in Figure 14.
func PaperNs() []int { return []int{20, 18, 15, 12, 10, 9, 6, 5, 4, 3, 2} }

// QN builds the paper's Q_n query set over g: n×n-cell tiles tiling the
// whole data space. The grid dimensions must be divisible by n.
func QN(g *grid.Grid, n int) (*Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("query: non-positive tile size %d", n)
	}
	if g.NX()%n != 0 || g.NY()%n != 0 {
		return nil, fmt.Errorf("query: tile size %d does not divide %dx%d grid", n, g.NX(), g.NY())
	}
	region := grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
	s, err := Browsing(region, g.NX()/n, g.NY()/n)
	if err != nil {
		return nil, err
	}
	s.Name = fmt.Sprintf("Q%d", n)
	return s, nil
}

// Tiling validates a cols×rows equal tiling of region and returns the tile
// size in cells. It is the shared contract between Browsing (which
// materializes the tiles) and the batch estimation path (which never
// does): the region must be a valid span whose width divides by cols and
// height by rows.
func Tiling(region grid.Span, cols, rows int) (tw, th int, err error) {
	if cols <= 0 || rows <= 0 {
		return 0, 0, fmt.Errorf("query: non-positive tiling %dx%d", cols, rows)
	}
	if !region.Valid() {
		return 0, 0, fmt.Errorf("query: invalid region %v", region)
	}
	if region.Width()%cols != 0 || region.Height()%rows != 0 {
		return 0, 0, fmt.Errorf("query: %dx%d tiling does not divide region %v at this resolution",
			cols, rows, region)
	}
	return region.Width() / cols, region.Height() / rows, nil
}

// RowBand returns the sub-region covering tile rows [r0..r1] of a cols×rows
// tiling of region, which can be planned and summed as a map of its own
// onto those rows of the whole map's plane. th must be the tile height
// Tiling reported.
func RowBand(region grid.Span, th, r0, r1 int) grid.Span {
	return grid.Span{
		I1: region.I1,
		J1: region.J1 + r0*th,
		I2: region.I2,
		J2: region.J1 + (r1+1)*th - 1,
	}
}

// Browsing partitions a selected region into cols×rows equal tiles, the
// GeoBrowsing interaction of §1: the user picks a region and the numbers of
// rows and columns. The region's width in cells must be divisible by cols
// and its height by rows so that every tile stays grid-aligned.
//
// Tiles are ordered row-major from the south-west corner: index
// row*cols + col.
func Browsing(region grid.Span, cols, rows int) (*Set, error) {
	tw, th, err := Tiling(region, cols, rows)
	if err != nil {
		return nil, err
	}
	tiles := make([]grid.Span, 0, cols*rows)
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			i1 := region.I1 + col*tw
			j1 := region.J1 + row*th
			tiles = append(tiles, grid.Span{I1: i1, J1: j1, I2: i1 + tw - 1, J2: j1 + th - 1})
		}
	}
	return &Set{
		Name:   fmt.Sprintf("browse %dx%d over %v", cols, rows, region),
		Tiles:  tiles,
		Region: region,
		Cols:   cols,
		Rows:   rows,
		TileW:  tw,
		TileH:  th,
	}, nil
}

// AllPaperSets builds the eleven Q_n sets over g. The grid must be
// divisible by every paper tile size; the paper's 360×180 grid is.
func AllPaperSets(g *grid.Grid) ([]*Set, error) {
	out := make([]*Set, 0, len(PaperNs()))
	for _, n := range PaperNs() {
		s, err := QN(g, n)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
