package euler

import "spatialhist/internal/grid"

// Multi-resolution pyramid of Euler histograms. Level 0 is the base
// histogram; level k is the Euler histogram of the same objects over the
// grid coarsened 2^k× per axis, with each object's level-k span the
// floor-halving of its level-(k−1) span. Because the raw (unsigned) bucket
// counts are per-axis sums of interval indicators, one coarse bucket is an
// exact ≤9-point stencil of fine buckets:
//
//	coarse U even:  fine {2U: +1, 2U+1: −1, 2U+2: +1}
//	coarse U odd:   fine {2U+1: +1}
//
// (per axis; the 2-d stencil is the product). The even case follows from
// the inclusion–exclusion of the two fine cells a coarse cell merges, the
// odd case because the coarse interior grid line 2A+1 is the fine line
// 4A+3. The stencil weights are exactly the §5.1 edge-inversion signs of
// the fine buckets they multiply, so on the stored signed values every
// weight is +1: a coarse signed bucket is the plain sum of the fine signed
// buckets in its footprint, and the footprints — fine {4A, 4A+1, 4A+2} for
// coarse 2A, fine {4A+3} for coarse 2A+1 — tile the fine axis in order.
// A prefix sum of coarse buckets up to U is therefore the fine prefix sum
// up to the last fine coordinate of U's footprint (fineEnds): the coarse
// cumulative plane is the fine cumulative plane sampled at those
// coordinates. Coarsening is one gather over the finer level's H_c — never
// a dataset scan, no arithmetic, no bucket values formed — and
// bit-identical to building the coarse histogram directly from the
// coarsened spans, which is what the check oracle asserts.
//
// Floor-halving spans rather than re-snapping geometry at the coarse
// resolution keeps the levels float-free: snapping the same rectangle
// against a 2× cell width can move a boundary by an ulp, while
// ⌊⌊a⌋/2⌋ = ⌊a/2⌋ makes span coarsening exactly the coarse snap of the
// paper's shrinking convention.

// DefaultPyramidMinGrid is the coarsening floor when PyramidOpts.MinGrid
// is zero: levels stop before either axis would drop below 16 cells,
// where a lattice is a few KB and further halving saves nothing.
const DefaultPyramidMinGrid = 16

// PyramidOpts shapes a pyramid.
type PyramidOpts struct {
	// MaxLevels bounds the coarse levels above the base. 0 means as many
	// as MinGrid (and even cell counts) allow.
	MaxLevels int
	// MinGrid stops coarsening before either axis would drop below this
	// many cells. 0 means DefaultPyramidMinGrid.
	MinGrid int
}

func (o PyramidOpts) minGrid() int {
	if o.MinGrid <= 0 {
		return DefaultPyramidMinGrid
	}
	return o.MinGrid
}

// canCoarsen reports whether a grid has a next pyramid level under the
// options: both cell counts even (the stencil needs exact 2-cell merges)
// and not dropping below the floor.
func (o PyramidOpts) canCoarsen(g *grid.Grid) bool {
	nx, ny := g.NX(), g.NY()
	return nx%2 == 0 && ny%2 == 0 && nx/2 >= o.minGrid() && ny/2 >= o.minGrid()
}

// Pyramid is an immutable stack of Euler histograms over 2^k-coarsened
// grids, all describing the same object set.
type Pyramid struct {
	levels []*Histogram // levels[0] is the base
}

// NewPyramid cold-builds the pyramid over base, deriving each level from
// the one below in one stencil pass.
func NewPyramid(base *Histogram, opts PyramidOpts) *Pyramid {
	levels := []*Histogram{base}
	for opts.MaxLevels <= 0 || len(levels)-1 < opts.MaxLevels {
		fine := levels[len(levels)-1]
		if !opts.canCoarsen(fine.g) {
			break
		}
		levels = append(levels, coarsenHistogram(fine))
	}
	return &Pyramid{levels: levels}
}

// Levels returns the number of levels including the base.
func (p *Pyramid) Levels() int { return len(p.levels) }

// Level returns the histogram at level k (0 = base).
func (p *Pyramid) Level(k int) *Histogram { return p.levels[k] }

// Base returns the level-0 histogram.
func (p *Pyramid) Base() *Histogram { return p.levels[0] }

// StorageBuckets returns the total bucket count across all levels — the
// pyramid's storage cost, a ≤ 1/3 overhead over the base lattice.
func (p *Pyramid) StorageBuckets() int {
	total := 0
	for _, h := range p.levels {
		total += h.StorageBuckets()
	}
	return total
}

// CoarseSpan floor-halves a base-grid span k times: the level-k span of
// an object or of a level-aligned query.
func CoarseSpan(s grid.Span, k int) grid.Span {
	return grid.Span{I1: s.I1 >> k, J1: s.J1 >> k, I2: s.I2 >> k, J2: s.J2 >> k}
}

// fineEnds tabulates, for each of the n coarse lattice coordinates of one
// axis, the last fine lattice coordinate of its footprint: 2U+2 for even U
// (a merged face and its two interior seams), 2U+1 for odd U (the
// surviving grid line).
func fineEnds(n int) []int {
	ends := make([]int, n)
	for U := range ends {
		ends[U] = 2*U + 2 - U&1
	}
	return ends
}

// coarsenHistogram derives the next pyramid level from fine.
func coarsenHistogram(fine *Histogram) *Histogram {
	cg := grid.New(fine.g.Extent(), fine.g.NX()/2, fine.g.NY()/2)
	lx, ly := 2*cg.NX()-1, 2*cg.NY()-1
	hc := fine.hc.Sample(fineEnds(lx), fineEnds(ly))
	return &Histogram{g: cg, lx: lx, ly: ly, hc: hc, n: fine.n}
}

// coarseCoord maps a fine lattice coordinate to the single coarse lattice
// coordinate whose stencil reads it: fine 4A, 4A+1, 4A+2 feed coarse 2A
// (the merged face and its interior seams) and fine 4A+3 feeds coarse
// 2A+1 (the surviving grid line). The map is monotone, so a fine dirty
// box maps to a coarse dirty box corner by corner.
func coarseCoord(u int) int {
	U := 2 * (u / 4)
	if u%4 == 3 {
		U++
	}
	return U
}

// coarseDirty maps a fine-lattice dirty region one level up.
func coarseDirty(d DirtyRegion) DirtyRegion {
	if d.Empty() {
		return d
	}
	return DirtyRegion{
		U1: coarseCoord(d.U1), V1: coarseCoord(d.V1),
		U2: coarseCoord(d.U2), V2: coarseCoord(d.V2),
	}
}

// PyramidFromOpts tunes PyramidFrom.
type PyramidFromOpts struct {
	// Opts is the pyramid shape; it must match the donor's.
	Opts PyramidOpts
	// Donor is a previously built pyramid over the same base lattice whose
	// coarse levels seed the repair. nil (or a shape mismatch) cold-builds.
	Donor *Pyramid
	// Stale bounds, in base-lattice coordinates, every bucket where the
	// donor's published level-0 content differs from base. With an arena
	// scratch donation this is exactly BuildStats.Dirty of the BuildFrom
	// call that produced base.
	Stale DirtyRegion
	// InPlace repairs the donor's coarse-level buffers directly instead of
	// cloning them — only sound when no live snapshot references the donor
	// (the arena's collectible condition).
	InPlace bool
}

// PyramidFrom derives the pyramid of base incrementally: the donor's
// coarse levels are refreshed only where the dirty box, mapped up level by
// level (coarseDirty), can have moved their prefix values. The result is
// bit-identical to
// NewPyramid(base, opts.Opts). An empty Stale rewraps the donor's coarse
// levels around base without touching a bucket.
func PyramidFrom(base *Histogram, opts PyramidFromOpts) *Pyramid {
	d := opts.Donor
	if d == nil || len(d.levels) == 0 || d.levels[0].lx != base.lx || d.levels[0].ly != base.ly {
		return NewPyramid(base, opts.Opts)
	}
	levels := []*Histogram{base}
	dirty := opts.Stale
	for k := 1; k < len(d.levels); k++ {
		fine := levels[k-1]
		donor := d.levels[k]
		dirty = coarseDirty(dirty)
		levels = append(levels, repairLevel(fine, donor, dirty, opts.InPlace))
	}
	// The donor may have been shallower than the options allow (it never
	// is in steady state — the shape is fixed per store — but a cold donor
	// built under different options must not truncate the stack).
	for opts.Opts.MaxLevels <= 0 || len(levels)-1 < opts.Opts.MaxLevels {
		fine := levels[len(levels)-1]
		if !opts.Opts.canCoarsen(fine.g) {
			break
		}
		levels = append(levels, coarsenHistogram(fine))
	}
	return &Pyramid{levels: levels}
}

// repairLevel produces the coarse level above fine from a donor level
// whose buckets differ from the target only inside dirty (coarse
// coordinates). A bucket change inside the box moves the prefix values of
// the box, of the row tails to its right, of the column strips below it and
// — only when the object count changed, the box total being the count delta
// — of the quadrant beyond both; exactly that region is resampled from
// fine's cumulative plane, in the donor's buffer when inPlace and in a
// clone otherwise. That is never more than resampling the whole level, so
// unlike BuildFrom there is no crossover to a full rebuild — except across
// a change of cell width: a level is sampled at its finer level's width,
// so when the base has gone wide since the donor was built the level is
// derived afresh.
func repairLevel(fine, donor *Histogram, dirty DirtyRegion, inPlace bool) *Histogram {
	if donor.hc.Narrow() != fine.hc.Narrow() {
		return coarsenHistogram(fine)
	}
	hc := donor.hc
	if !dirty.Empty() {
		if !inPlace {
			hc = hc.Clone()
		}
		rows, cols := fineEnds(donor.lx), fineEnds(donor.ly)
		hc.Resample(fine.hc, rows, cols, dirty.U1, dirty.V1, dirty.U2, donor.ly-1)
		below := dirty.V2
		if donor.n != fine.n {
			below = donor.ly - 1
		}
		hc.Resample(fine.hc, rows, cols, dirty.U2+1, dirty.V1, donor.lx-1, below)
	}
	// An untouched donor plane is already exact; rewrapping makes the level
	// carry the count of the new base.
	return &Histogram{g: donor.g, lx: donor.lx, ly: donor.ly, hc: hc, n: fine.n}
}
