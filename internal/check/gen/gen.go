// Package gen provides the seeded, size-parameterized random generators
// shared by the verification harness (internal/check) and by the property
// tests of every histogram package. Centralizing them replaces the
// copy-pasted randRect/randRects/randTiling helpers that had drifted apart
// across euler, core, live and geobrowse tests, so that a seed printed by
// one failing suite reproduces the identical dataset everywhere.
//
// The package depends only on geom and grid — never on the packages under
// test — so internal test files of euler, core, live and geobrowse can all
// import it without cycles.
//
// Every generator takes an explicit *rand.Rand: determinism is the whole
// point. Rand(seed) is the canonical way to make one.
package gen

import (
	"math/rand"
	"slices"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// Rand returns the deterministic PRNG for a seed. All harness components
// derive their randomness from one of these, so any divergence report can
// name the seed that reproduces it.
func Rand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Grid generates a random grid between 4x4 and maxNX x maxNY cells. Most
// grids use the paper's unit extent ([0,nx]x[0,ny], 1x1 cells); one in four
// uses a translated, non-unit extent so cell-size arithmetic is exercised
// too.
func Grid(r *rand.Rand, maxNX, maxNY int) *grid.Grid {
	if maxNX < 4 {
		maxNX = 4
	}
	if maxNY < 4 {
		maxNY = 4
	}
	return extent(r, 4+r.Intn(maxNX-3), 4+r.Intn(maxNY-3))
}

// EvenGrid generates a grid of even cell counts between 8 and max a side:
// one that halves into at least one pyramid level of four cells or more.
func EvenGrid(r *rand.Rand, max int) *grid.Grid {
	return extent(r, 2*(4+r.Intn(max/2-3)), 2*(4+r.Intn(max/2-3)))
}

// extent lays an nx×ny grid over the paper's unit extent, or one time in
// four over a translated, non-unit one.
func extent(r *rand.Rand, nx, ny int) *grid.Grid {
	if r.Intn(4) == 0 {
		x0 := (r.Float64() - 0.5) * 100
		y0 := (r.Float64() - 0.5) * 100
		w := (0.5 + r.Float64()*4) * float64(nx)
		h := (0.5 + r.Float64()*4) * float64(ny)
		return grid.New(geom.NewRect(x0, y0, x0+w, y0+h), nx, ny)
	}
	return grid.NewUnit(nx, ny)
}

// RectOpts parameterizes Rect/Rects. The zero value is the mixed profile:
// sizes up to 80% of the space, origins allowed slightly outside the
// extent (so snapping and rejection paths run), no degenerate objects.
type RectOpts struct {
	// MaxCellsX/MaxCellsY bound object size in cells per dimension;
	// <= 0 means up to 80% of the space.
	MaxCellsX, MaxCellsY int
	// Inside pins objects strictly inside the extent (no straddling, no
	// out-of-space rejects) — required when a test must account for every
	// object.
	Inside bool
	// PointFrac is the fraction of degenerate objects (points/segments).
	PointFrac float64
}

// Small returns the profile of the paper's "dataset of small objects":
// at most maxCells x maxCells cells, strictly inside the space. Queries
// larger than maxCells in both dimensions then satisfy the N_cd = 0
// assumption of S-EulerApprox (§5.2) by construction.
func Small(maxCells int) RectOpts {
	return RectOpts{MaxCellsX: maxCells, MaxCellsY: maxCells, Inside: true}
}

// Rect generates one object MBR over g under the given profile.
func Rect(r *rand.Rand, g *grid.Grid, o RectOpts) geom.Rect {
	ext := g.Extent()
	cw, ch := g.CellWidth(), g.CellHeight()
	maxW := 0.8 * ext.Width()
	if o.MaxCellsX > 0 {
		maxW = min(float64(o.MaxCellsX)*cw, ext.Width())
	}
	maxH := 0.8 * ext.Height()
	if o.MaxCellsY > 0 {
		maxH = min(float64(o.MaxCellsY)*ch, ext.Height())
	}
	var dw, dh float64
	if o.PointFrac <= 0 || r.Float64() >= o.PointFrac {
		dw = r.Float64() * maxW
		dh = r.Float64() * maxH
	}
	var x, y float64
	if o.Inside {
		x = ext.XMin + r.Float64()*(ext.Width()-dw)
		y = ext.YMin + r.Float64()*(ext.Height()-dh)
	} else {
		// Origins from 10% outside on every side: some objects straddle
		// the boundary, a few miss the space entirely.
		x = ext.XMin + (r.Float64()*1.2-0.1)*ext.Width()
		y = ext.YMin + (r.Float64()*1.2-0.1)*ext.Height()
	}
	return geom.NewRect(x, y, x+dw, y+dh)
}

// Rects generates n object MBRs over g under the given profile.
func Rects(r *rand.Rand, g *grid.Grid, n int, o RectOpts) []geom.Rect {
	out := make([]geom.Rect, n)
	for i := range out {
		out[i] = Rect(r, g, o)
	}
	return out
}

// Span generates a uniformly random grid-aligned query span.
func Span(r *rand.Rand, g *grid.Grid) grid.Span {
	i1 := r.Intn(g.NX())
	j1 := r.Intn(g.NY())
	return grid.Span{
		I1: i1, J1: j1,
		I2: i1 + r.Intn(g.NX()-i1),
		J2: j1 + r.Intn(g.NY()-j1),
	}
}

// SpanMin generates a random query span at least minW x minH cells. ok is
// false when the grid is too small for the request.
func SpanMin(r *rand.Rand, g *grid.Grid, minW, minH int) (s grid.Span, ok bool) {
	if minW > g.NX() || minH > g.NY() {
		return grid.Span{}, false
	}
	i1 := r.Intn(g.NX() - minW + 1)
	j1 := r.Intn(g.NY() - minH + 1)
	return grid.Span{
		I1: i1, J1: j1,
		I2: i1 + minW - 1 + r.Intn(g.NX()-i1-minW+1),
		J2: j1 + minH - 1 + r.Intn(g.NY()-j1-minH+1),
	}, true
}

// Tiling generates a random browse interaction: a region within g plus a
// cols x rows tiling that divides it exactly (the query.Tiling contract).
func Tiling(r *rand.Rand, g *grid.Grid) (region grid.Span, cols, rows int) {
	cols = 1 + r.Intn(6)
	rows = 1 + r.Intn(6)
	tw := 1 + r.Intn(max(1, g.NX()/cols))
	th := 1 + r.Intn(max(1, g.NY()/rows))
	for cols*tw > g.NX() {
		cols--
	}
	for rows*th > g.NY() {
		rows--
	}
	i1 := r.Intn(g.NX() - cols*tw + 1)
	j1 := r.Intn(g.NY() - rows*th + 1)
	return grid.Span{I1: i1, J1: j1, I2: i1 + cols*tw - 1, J2: j1 + rows*th - 1}, cols, rows
}

// Tiles materializes the row-major tile spans of a cols x rows tiling of
// region, in query.Browsing order (south-west first). It exists so
// packages below query in the import graph can still enumerate a tiling.
func Tiles(region grid.Span, cols, rows int) []grid.Span {
	tw := region.Width() / cols
	th := region.Height() / rows
	tiles := make([]grid.Span, 0, cols*rows)
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			i1 := region.I1 + col*tw
			j1 := region.J1 + row*th
			tiles = append(tiles, grid.Span{I1: i1, J1: j1, I2: i1 + tw - 1, J2: j1 + th - 1})
		}
	}
	return tiles
}

// MutOp is a mutation-stream opcode.
type MutOp uint8

// The three mutation kinds of a live histogram store.
const (
	OpInsert MutOp = iota + 1
	OpDelete
	OpUpdate
)

// String implements fmt.Stringer.
func (op MutOp) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	}
	return "op(?)"
}

// Mutation is one step of a generated mutation stream. Old is set only for
// OpUpdate (the pre-image being replaced).
type Mutation struct {
	Op     MutOp
	R, Old geom.Rect
}

// Removed is the object the mutation takes away, if it takes one: the
// deleted object, or the pre-image of an update.
func (m Mutation) Removed() (geom.Rect, bool) {
	if m.Op == OpUpdate {
		return m.Old, true
	}
	return m.R, m.Op == OpDelete
}

// Mutations generates a stream of n inserts, deletes and updates over g,
// starting from the given seed objects. The generator tracks the live
// multiset so deletes and update pre-images always name objects that were
// actually inserted — the contract the Euler difference array requires —
// with roughly half the stream inserting and a quarter each deleting and
// updating (when enough objects are live).
func Mutations(r *rand.Rand, g *grid.Grid, seed []geom.Rect, n int, o RectOpts) []Mutation {
	live := slices.Clone(seed)
	out := make([]Mutation, 0, n)
	for len(out) < n {
		var m Mutation
		switch {
		case len(live) > 4 && r.Intn(4) == 0:
			m = Mutation{Op: OpDelete, R: live[r.Intn(len(live))]}
		case len(live) > 4 && r.Intn(4) == 0:
			m = Mutation{Op: OpUpdate, Old: live[r.Intn(len(live))], R: Rect(r, g, o)}
		default:
			m = Mutation{Op: OpInsert, R: Rect(r, g, o)}
		}
		out = append(out, m)
		live = Apply(live, m)
	}
	return out
}

// Apply folds a mutation into a tracked object multiset, returning the new
// slice. It mirrors what a correct store must end up containing: the
// objects the transcript checks' fresh reference builds from.
func Apply(objects []geom.Rect, m Mutation) []geom.Rect {
	if old, ok := m.Removed(); ok {
		if i := slices.Index(objects, old); i >= 0 {
			objects[i] = objects[len(objects)-1]
			objects = objects[:len(objects)-1]
		}
	}
	if m.Op != OpDelete {
		objects = append(objects, m.R)
	}
	return objects
}
