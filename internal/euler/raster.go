// Rasterized-object ingestion: AddSpan generalized to multi-span objects.
//
// A rasterized object (grid.Raster) covers an arbitrary 4-connected,
// hole-free set of cells given as per-row runs. Its exact Euler insertion
// follows from the lattice structure: a face bucket is covered iff its cell
// is, a vertical edge iff both horizontal neighbors are (same maximal run),
// a horizontal edge iff both vertical neighbors are (overlapping runs in
// adjacent rows), and a vertex iff all four surrounding cells are. All four
// cases collapse into strip increments on the raw difference array — one
// even-v strip per run, one odd-v strip per adjacent-row run overlap — so
// the total raw increment is R − P = χ = 1 per object, preserving the
// Σ buckets == count invariant that Read validates and every estimator
// assumes. A single rectangular span degenerates to exactly AddSpan's
// lattice rectangle.
//
// Alongside the signed lattice, a raster-fed builder carries a partial-cell
// count plane: per cell, how many objects cover it only partially. Queries
// whose region has a zero partial count are exact at grid resolution — the
// discretization added nothing — which is the Level-2 tightening the
// raster-interval line of work (Georgiadis et al.) gets from full/partial
// cell classes. The plane is lazily created on the first AddObject into an
// empty builder, so MBR-only builders (the live-store hot path) pay nothing;
// on a mixed builder that already holds spans it stays absent, because
// retroactive classification of those spans is unknowable.
package euler

import (
	"fmt"

	"spatialhist/internal/grid"
	"spatialhist/internal/prefixsum"
)

// AddObject inserts one rasterized object given as cell spans with an
// optional parallel class per span (omitted classes default to
// CellPartial, the conservative choice). The spans are normalized to
// per-row runs; their union must be 4-connected and hole-free (χ = 1) —
// Rasterize guarantees this per returned component — and lie within the
// grid. Violations panic, mirroring AddSpan: they indicate a bug upstream,
// not bad data.
func (b *Builder) AddObject(spans []grid.Span, classes ...grid.CellClass) {
	runs, err := b.checkObject(spans, classes)
	if err != nil {
		panic("euler: " + err.Error())
	}
	if b.pdiff == nil && b.n == 0 {
		b.pdiff = make([]int64, (b.g.NX()+1)*(b.g.NY()+1))
	}
	b.applyObject(runs, spans, classes, 1)
	b.n++
}

// AddRaster inserts one component produced by grid.Rasterize.
func (b *Builder) AddRaster(r grid.Raster) {
	b.AddObject(r.Spans, r.Classes...)
}

// RemoveObject deletes one previously inserted rasterized object. It
// mirrors RemoveSpan's contract: invalid objects and removals from an empty
// builder are rejected (false) rather than applied, and the caller must
// pass exactly the spans and classes that were inserted — there is no
// per-object record to catch a mismatch.
func (b *Builder) RemoveObject(spans []grid.Span, classes ...grid.CellClass) bool {
	runs, err := b.checkObject(spans, classes)
	if err != nil || b.n == 0 {
		return false
	}
	b.applyObject(runs, spans, classes, -1)
	b.n--
	return true
}

// RemoveRaster deletes one component previously inserted with AddRaster.
func (b *Builder) RemoveRaster(r grid.Raster) bool {
	return b.RemoveObject(r.Spans, r.Classes...)
}

// checkObject validates an object's spans and classes and returns the
// normalized runs.
func (b *Builder) checkObject(spans []grid.Span, classes []grid.CellClass) ([]grid.Span, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("object with no spans")
	}
	if len(classes) != 0 && len(classes) != len(spans) {
		return nil, fmt.Errorf("object with %d spans but %d classes", len(spans), len(classes))
	}
	for _, s := range spans {
		if !s.Valid() || s.I1 < 0 || s.J1 < 0 || s.I2 >= b.g.NX() || s.J2 >= b.g.NY() {
			return nil, fmt.Errorf("span %v outside %v", s, b.g)
		}
	}
	runs := grid.NormalizeRuns(spans)
	if comps, chi := grid.RunsTopology(runs); comps != 1 || chi != 1 {
		return nil, fmt.Errorf("object not a single hole-free component (components=%d, χ=%d): insert each component of grid.Rasterize separately", comps, chi)
	}
	return runs, nil
}

// applyObject applies the object's strip increments (dir = ±1) to the raw
// difference array, the dirty region, and — when present — the class plane.
func (b *Builder) applyObject(runs []grid.Span, spans []grid.Span, classes []grid.CellClass, dir int64) {
	// Each strip is a one-column lattice rectangle, and moves a cumulative
	// value by at most 1 as an MBR's rectangle does — an object's strips
	// together can move one by more, which is why bound counts updates and
	// not objects.
	strip := func(u1, u2, v int) { b.addRect(u1, v, u2, v, int(dir)) }
	bounds := runs[0]
	for _, r := range runs {
		strip(2*r.I1, 2*r.I2, 2*r.J1)
		if r.I1 < bounds.I1 {
			bounds.I1 = r.I1
		}
		if r.I2 > bounds.I2 {
			bounds.I2 = r.I2
		}
		if r.J2 > bounds.J2 {
			bounds.J2 = r.J2
		}
	}
	forRunOverlaps(runs, func(m, mm, j int) {
		strip(2*m, 2*mm, 2*j+1)
	})
	b.dirty = b.dirty.Union(DirtyRegion{
		U1: 2 * bounds.I1, V1: 2 * bounds.J1,
		U2: 2 * bounds.I2, V2: 2 * bounds.J2,
	})
	if b.pdiff != nil {
		for i, s := range spans {
			cls := grid.CellPartial
			if len(classes) > 0 {
				cls = classes[i]
			}
			if cls == grid.CellPartial {
				b.planeSpan(s, dir)
			}
		}
	}
}

// forRunOverlaps calls fn(m, M, j) for every overlap [m..M] between a run
// in row j and a run in row j+1. runs must be normalized (per-row maximal,
// sorted by row then column).
func forRunOverlaps(runs []grid.Span, fn func(m, mm, j int)) {
	rowStart := map[int]int{}
	for i, r := range runs {
		if _, ok := rowStart[r.J1]; !ok {
			rowStart[r.J1] = i
		}
	}
	for _, a := range runs {
		lo, ok := rowStart[a.J1+1]
		if !ok {
			continue
		}
		for k := lo; k < len(runs) && runs[k].J1 == a.J1+1; k++ {
			o := runs[k]
			if o.I1 > a.I2 {
				break
			}
			if a.I1 <= o.I2 {
				m, mm := a.I1, a.I2
				if o.I1 > m {
					m = o.I1
				}
				if o.I2 < mm {
					mm = o.I2
				}
				fn(m, mm, a.J1)
			}
		}
	}
}

// planeSpan applies a rectangle increment on the partial-cell difference
// array (cell resolution, (nx+1)×(ny+1)).
func (b *Builder) planeSpan(s grid.Span, delta int64) {
	pw := b.g.NY() + 1
	b.pdiff[s.I1*pw+s.J1] += delta
	b.pdiff[s.I1*pw+s.J2+1] -= delta
	b.pdiff[(s.I2+1)*pw+s.J1] -= delta
	b.pdiff[(s.I2+1)*pw+s.J2+1] += delta
}

// partialPlane materializes the partial-cell count plane in cumulative
// form, or nil when the builder carries none. The rebuild is O(cells) per
// Build — the class plane exists only on raster-fed builders, which are
// batch ingest paths, so the full pass costs less than tracking
// per-mutation plane repair would complicate.
func (b *Builder) partialPlane() *prefixsum.Sum2D {
	if b.pdiff == nil {
		return nil
	}
	nx, ny := b.g.NX(), b.g.NY()
	pw := ny + 1
	cells := make([]int64, nx*ny)
	colAcc := make([]int64, ny)
	for i := 0; i < nx; i++ {
		var rowAcc int64
		for j := 0; j < ny; j++ {
			rowAcc += b.pdiff[i*pw+j]
			colAcc[j] += rowAcc
			cells[i*ny+j] = colAcc[j]
		}
	}
	return prefixsum.NewSum2D(cells, nx, ny)
}

// restorePlane reconstructs the builder's partial-cell difference array
// from a histogram's class plane by 2-d backward differencing, the plane
// analogue of BuilderFromHistogram's raw reconstruction.
func (b *Builder) restorePlane(h *Histogram) {
	if h.pc == nil {
		return
	}
	nx, ny := h.g.NX(), h.g.NY()
	at := func(i, j int) int64 {
		if i < 0 || j < 0 {
			return 0
		}
		return h.pc.RangeSum(i, j, i, j)
	}
	b.pdiff = make([]int64, (nx+1)*(ny+1))
	pw := ny + 1
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			b.pdiff[i*pw+j] = at(i, j) - at(i-1, j) - at(i, j-1) + at(i-1, j-1)
		}
	}
}

// HasClassPlane reports whether the histogram carries a partial-cell count
// plane (it was built from rasterized objects with full/partial classes).
func (h *Histogram) HasClassPlane() bool { return h.pc != nil }

// PartialIn returns the number of (object, cell) incidences within span q
// where the object covers the cell only partially, and whether the
// histogram carries a class plane at all. A zero count with ok certifies
// that every object's coverage within q is exact at grid resolution: no
// geometry was lost to discretization, so counts derived from the lattice
// are exact for the underlying objects, not just for their rasterizations.
func (h *Histogram) PartialIn(q grid.Span) (count int64, ok bool) {
	if h.pc == nil {
		return 0, false
	}
	return h.pc.RangeSum(q.I1, q.J1, q.I2, q.J2), true
}
