// Package grid models the gridding of the data space described in §3 of the
// paper: a hyper-rectangle R enclosing the dataset is partitioned into
// NX×NY equi-sized cells, and both objects and queries are expressed as
// inclusive ranges of cells ("spans").
//
// Objects are snapped using the paper's shrinking convention (§4.2): an
// object whose boundary aligns with a grid line is treated as the open
// rectangle just inside it, so that N_eq = 0 for every grid-aligned query
// and the four object-type variants [i,j), (i,j], [i,j] collapse to (i,j).
// A query at resolution c is a closed, grid-aligned rectangle and is
// likewise a span of whole cells.
package grid

import (
	"errors"
	"fmt"
	"math"

	"spatialhist/internal/geom"
)

// ErrNotAligned is returned by AlignedSpan for query rectangles that do not
// align with the grid at the current resolution.
var ErrNotAligned = errors.New("grid: query rectangle is not grid-aligned")

// Grid is an NX×NY equi-width gridding of a rectangular data space.
type Grid struct {
	extent geom.Rect
	nx, ny int
	cw, ch float64 // cell width and height
}

// New returns a gridding of extent into nx×ny cells. It panics if the
// extent is degenerate or the cell counts are not positive: a grid is
// configuration, and misconfiguration is a programming error.
func New(extent geom.Rect, nx, ny int) *Grid {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("grid: non-positive cell counts %dx%d", nx, ny))
	}
	if extent.Degenerate() || !extent.Valid() {
		panic(fmt.Sprintf("grid: degenerate extent %v", extent))
	}
	return &Grid{
		extent: extent,
		nx:     nx,
		ny:     ny,
		cw:     extent.Width() / float64(nx),
		ch:     extent.Height() / float64(ny),
	}
}

// NewUnit returns the paper's standard configuration: a [0,w]×[0,h] space at
// 1×1 resolution (w×h cells).
func NewUnit(w, h int) *Grid {
	return New(geom.NewRect(0, 0, float64(w), float64(h)), w, h)
}

// Extent returns the gridded data space.
func (g *Grid) Extent() geom.Rect { return g.extent }

// NX returns the number of cell columns.
func (g *Grid) NX() int { return g.nx }

// NY returns the number of cell rows.
func (g *Grid) NY() int { return g.ny }

// Cells returns the total number of grid cells N = NX*NY.
func (g *Grid) Cells() int { return g.nx * g.ny }

// CellWidth returns the width of a unit cell.
func (g *Grid) CellWidth() float64 { return g.cw }

// CellHeight returns the height of a unit cell.
func (g *Grid) CellHeight() float64 { return g.ch }

// CellArea returns the area of a unit cell.
func (g *Grid) CellArea() float64 { return g.cw * g.ch }

// String implements fmt.Stringer.
func (g *Grid) String() string {
	return fmt.Sprintf("grid %dx%d over %v", g.nx, g.ny, g.extent)
}

// Span is an inclusive range of grid cells [I1..I2]×[J1..J2]. The zero
// value is the single cell (0,0).
type Span struct {
	I1, J1, I2, J2 int
}

// String implements fmt.Stringer.
func (s Span) String() string {
	return fmt.Sprintf("cells[%d..%d]x[%d..%d]", s.I1, s.I2, s.J1, s.J2)
}

// Valid reports whether the span's ranges are ordered.
func (s Span) Valid() bool { return s.I1 <= s.I2 && s.J1 <= s.J2 }

// Width returns the number of cell columns covered.
func (s Span) Width() int { return s.I2 - s.I1 + 1 }

// Height returns the number of cell rows covered.
func (s Span) Height() int { return s.J2 - s.J1 + 1 }

// Cells returns the number of cells covered.
func (s Span) Cells() int { return s.Width() * s.Height() }

// Contains reports whether o's cells are a subset of s's cells. Under the
// shrinking convention this is exactly the Level 2 "query s contains object
// o" test when s is a query span and o an object span.
func (s Span) Contains(o Span) bool {
	return o.I1 >= s.I1 && o.I2 <= s.I2 && o.J1 >= s.J1 && o.J2 <= s.J2
}

// ContainsStrict reports whether o covers s plus at least one cell beyond s
// on every side. Under the shrinking convention an (open) object with span o
// contains the (closed) query with span s exactly when this holds.
func (s Span) ContainsStrict(o Span) bool {
	return s.I1 >= o.I1+1 && s.I2 <= o.I2-1 && s.J1 >= o.J1+1 && s.J2 <= o.J2-1
}

// Intersects reports whether the two spans share a cell. Under the shrinking
// convention this is exactly the Level 1 intersect relation at resolution c.
func (s Span) Intersects(o Span) bool {
	return s.I1 <= o.I2 && o.I1 <= s.I2 && s.J1 <= o.J2 && o.J1 <= s.J2
}

// Rel2 classifies the Level 2 relation between query span q and object span
// o at grid resolution, under the shrinking convention: the object is open,
// the query closed, so equals never occurs.
func (q Span) Rel2(o Span) geom.Rel2 {
	switch {
	case !q.Intersects(o):
		return geom.Rel2Disjoint
	case q.Contains(o):
		return geom.Rel2Contains
	case q.ContainsStrict(o):
		return geom.Rel2Contained
	default:
		return geom.Rel2Overlap
	}
}

// Snap returns the span of cells whose interiors the (shrunk) object r
// intersects, clipped to the grid. ok is false when the object lies entirely
// outside the data space, in which case the returned span is meaningless.
//
// Degenerate objects (points, axis-parallel segments) have no interior; they
// are assigned the cells their closure intersects, with points exactly on a
// grid line assigned to the lower-indexed cell. This matches treating them
// as infinitesimally extended objects and keeps every dataset record
// countable.
func (g *Grid) Snap(r geom.Rect) (span Span, ok bool) {
	if !r.Valid() {
		return Span{}, false
	}
	if !r.Intersects(g.extent) {
		return Span{}, false
	}
	gx1 := (r.XMin - g.extent.XMin) / g.cw
	gx2 := (r.XMax - g.extent.XMin) / g.cw
	gy1 := (r.YMin - g.extent.YMin) / g.ch
	gy2 := (r.YMax - g.extent.YMin) / g.ch
	i1, i2 := snapAxis(gx1, gx2, g.nx)
	j1, j2 := snapAxis(gy1, gy2, g.ny)
	return Span{I1: i1, J1: j1, I2: i2, J2: j2}, true
}

// snapAxis snaps one dimension of a (shrunk) object with grid coordinates
// [a,b] to the inclusive cell range it occupies, clamped to [0,n-1].
func snapAxis(a, b float64, n int) (lo, hi int) {
	if a == b {
		// Degenerate dimension: assign to the cell containing the
		// coordinate. A point exactly on grid line k touches cells k-1 and
		// k; we assign it to the lower-indexed cell (except at the space
		// minimum, where only cell 0 exists).
		c := int(math.Floor(a))
		if a == math.Floor(a) && c > 0 {
			c--
		}
		return clampInt(c, 0, n-1), clampInt(c, 0, n-1)
	}
	// The shrunk object is the open interval (a, b): when a lies exactly on
	// a grid line the first occupied cell is still floor(a), and when b lies
	// on a line the last occupied cell is ceil(b)-1 = b-1.
	lo = int(math.Floor(a))
	hi = int(math.Ceil(b)) - 1
	return clampInt(lo, 0, n-1), clampInt(hi, 0, n-1)
}

// AlignedSpan converts a grid-aligned, closed query rectangle to its span.
// A rectangle is considered aligned when each bound is within tol cells of a
// grid line (tol is relative to the cell size; 1e-9 is a good default).
// Non-aligned rectangles yield ErrNotAligned: the paper's algorithms are
// exact/approximate *at resolution c* and only accept aligned queries.
func (g *Grid) AlignedSpan(r geom.Rect, tol float64) (Span, error) {
	if !r.Valid() || r.Degenerate() {
		return Span{}, fmt.Errorf("grid: invalid query rectangle %v", r)
	}
	gx1 := (r.XMin - g.extent.XMin) / g.cw
	gx2 := (r.XMax - g.extent.XMin) / g.cw
	gy1 := (r.YMin - g.extent.YMin) / g.ch
	gy2 := (r.YMax - g.extent.YMin) / g.ch
	bounds := [4]float64{gx1, gy1, gx2, gy2}
	var snapped [4]int
	for k, v := range bounds {
		rv := math.Round(v)
		if math.Abs(v-rv) > tol {
			return Span{}, fmt.Errorf("%w: bound %g is %g cells from a grid line", ErrNotAligned, v, v-rv)
		}
		snapped[k] = int(rv)
	}
	s := Span{I1: snapped[0], J1: snapped[1], I2: snapped[2] - 1, J2: snapped[3] - 1}
	if !s.Valid() {
		return Span{}, fmt.Errorf("grid: empty query rectangle %v", r)
	}
	if s.I1 < 0 || s.J1 < 0 || s.I2 >= g.nx || s.J2 >= g.ny {
		return Span{}, fmt.Errorf("grid: query %v extends outside the data space", r)
	}
	return s, nil
}

// XEdge returns the x coordinate of grid line i, the west edge of cell
// column i (i = NX is the east edge of the data space). Every rectangle the
// grid hands out is built from XEdge and YEdge, so a span's rectangle is
// separable per axis: callers that render many tiles of one tiling can
// compute (or format) each edge once instead of once per tile.
func (g *Grid) XEdge(i int) float64 { return g.extent.XMin + float64(i)*g.cw }

// YEdge returns the y coordinate of grid line j, the south edge of cell
// row j.
func (g *Grid) YEdge(j int) float64 { return g.extent.YMin + float64(j)*g.ch }

// CellRect returns the closed rectangle of cell (i, j).
func (g *Grid) CellRect(i, j int) geom.Rect {
	g.checkCell(i, j)
	return geom.Rect{XMin: g.XEdge(i), YMin: g.YEdge(j), XMax: g.XEdge(i + 1), YMax: g.YEdge(j + 1)}
}

// SpanRect returns the closed rectangle covered by the span.
func (g *Grid) SpanRect(s Span) geom.Rect {
	g.checkCell(s.I1, s.J1)
	g.checkCell(s.I2, s.J2)
	return geom.Rect{XMin: g.XEdge(s.I1), YMin: g.YEdge(s.J1), XMax: g.XEdge(s.I2 + 1), YMax: g.YEdge(s.J2 + 1)}
}

// SpanArea returns the geometric area of a span at this grid's resolution.
func (g *Grid) SpanArea(s Span) float64 {
	return float64(s.Cells()) * g.CellArea()
}

func (g *Grid) checkCell(i, j int) {
	if i < 0 || i >= g.nx || j < 0 || j >= g.ny {
		panic(fmt.Sprintf("grid: cell (%d,%d) outside %dx%d grid", i, j, g.nx, g.ny))
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
