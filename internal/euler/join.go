// Two-histogram join selectivity: the per-cell product sum.
//
// For two datasets A and B over the same grid, the number of pairs (a, b)
// whose rasterizations share at least one cell is recoverable from the two
// Euler lattices alone. A lattice element (face, edge or vertex) is covered
// by an object's open polyomino exactly when all its surrounding cells are
// covered, so the element set of a pairwise intersection is the element-wise
// AND of the two objects' element sets, and its Euler characteristic is
// Σ s(u,v) over the common elements with s = +1 on faces and vertices, −1 on
// edges. Summing over all pairs and swapping the order of summation:
//
//	Σ_{a∈A, b∈B} χ(cells(a) ∩ cells(b)) = Σ_{u,v} s(u,v)·rawA(u,v)·rawB(u,v)
//	                                    = Σ_{u,v} s(u,v)·hA(u,v)·hB(u,v)
//
// (the stored buckets h = s·raw make the signs cancel in the product, so
// one explicit s survives). Each hole-free intersection component counts
// +1, so for MBR histograms — where every pairwise intersection is a
// rectangle — the product sum is exactly the number of span-intersecting
// pairs, and for rasterized objects it is Σχ, the paper-style signed count
// of intersection regions.
//
// The sum needs the bucket values themselves, which a histogram does not
// keep: ProductSum differences them out of the two cumulative planes as it
// multiplies.
package euler

import (
	"fmt"

	"spatialhist/internal/prefixsum"
)

// ProductSum computes the join product sum Σ s(u,v)·hA(u,v)·hB(u,v) of two
// histograms over the same grid in one fused sweep: the exact number of
// span-intersecting pairs for MBR histograms, and Σ_pairs χ(shared cells)
// for rasterized objects. The result does not depend on either side's cell
// width: both planes difference to the exact raw values.
//
// Each term is bounded by |A|·|B| and the sum by |A|·|B|·lattice; callers
// joining billions of objects over megacell grids own the int64 headroom.
func ProductSum(a, b *Histogram) (int64, error) {
	ga, gb := a.Grid(), b.Grid()
	if ga.NX() != gb.NX() || ga.NY() != gb.NY() || ga.Extent() != gb.Extent() {
		return 0, fmt.Errorf("euler: product sum over mismatched grids %v and %v", ga, gb)
	}
	switch {
	case a.hc.Narrow() && b.hc.Narrow():
		return productSum(prefixsum.PlaneOf[int32](a.hc), prefixsum.PlaneOf[int32](b.hc), a.lx), nil
	case a.hc.Narrow():
		return productSum(prefixsum.PlaneOf[int32](a.hc), prefixsum.PlaneOf[int64](b.hc), a.lx), nil
	case b.hc.Narrow():
		return productSum(prefixsum.PlaneOf[int64](a.hc), prefixsum.PlaneOf[int32](b.hc), a.lx), nil
	default:
		return productSum(prefixsum.PlaneOf[int64](a.hc), prefixsum.PlaneOf[int64](b.hc), a.lx), nil
	}
}

// productSum streams prefix rows u−1 and u of both planes once and
// differences the buckets out of them inside the product loop (rawRow's
// recurrence, two planes at a time), so nothing is staged or allocated.
func productSum[T, U Cell](a prefixsum.Plane[T], b prefixsum.Plane[U], lx int) int64 {
	var sum int64
	for u := 0; u < lx; u++ {
		even, odd := rowProducts(a.Row(u), a.Row(u-1), b.Row(u), b.Row(u-1))
		if u&1 == 0 { // s(u,v) = +1 where u and v have the same parity
			sum += even - odd
		} else {
			sum += odd - even
		}
	}
	return sum
}

// rowProducts returns Σ rawA(u,v)·rawB(u,v) of one lattice row over the
// even and over the odd v, given each plane's prefix rows u (cur) and u−1
// (above; nil for u = 0, where the prefix row above is all zero). The row
// length 2ny−1 is odd, so the pairs leave one even v at the end. The two
// loops differ only in the rows above; one loop testing for them per
// element measured a third slower.
func rowProducts[T, U Cell](curA, aboveA []T, curB, aboveB []U) (even, odd int64) {
	n := len(curA)
	curB = curB[:n]
	// colA(v) = P_A(u,v) − P_A(u−1,v) is the row's running sum along v, so
	// rawA(u,v) = colA(v) − colA(v−1); likewise for B.
	var leftA, leftB int64
	if aboveA == nil {
		for v := 0; v+1 < n; v += 2 {
			a0, b0 := int64(curA[v]), int64(curB[v])
			a1, b1 := int64(curA[v+1]), int64(curB[v+1])
			even += (a0 - leftA) * (b0 - leftB)
			odd += (a1 - a0) * (b1 - b0)
			leftA, leftB = a1, b1
		}
		return even + (int64(curA[n-1])-leftA)*(int64(curB[n-1])-leftB), odd
	}
	aboveA, aboveB = aboveA[:n], aboveB[:n]
	for v := 0; v+1 < n; v += 2 {
		a0, b0 := int64(curA[v])-int64(aboveA[v]), int64(curB[v])-int64(aboveB[v])
		a1, b1 := int64(curA[v+1])-int64(aboveA[v+1]), int64(curB[v+1])-int64(aboveB[v+1])
		even += (a0 - leftA) * (b0 - leftB)
		odd += (a1 - a0) * (b1 - b0)
		leftA, leftB = a1, b1
	}
	a0, b0 := int64(curA[n-1])-int64(aboveA[n-1]), int64(curB[n-1])-int64(aboveB[n-1])
	return even + (a0-leftA)*(b0-leftB), odd
}

// CoarsenTo derives the Euler histogram of h's objects over the same extent
// gridded nx×ny, by repeated exact stencil halving (the pyramid
// derivation): the result is bit-identical to building at nx×ny from the
// floor-halved spans. It requires the target to be the source divided by
// the same power of two on both axes, with every intermediate cell count
// even. Rasterized-object histograms are refused: the halving stencil is
// exact for per-object lattice rectangles (MBR spans), but a multi-run
// object whose runs close a one-cell gap under halving would coarsen to a
// lattice that is no object set's histogram.
func CoarsenTo(h *Histogram, nx, ny int) (*Histogram, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("euler: coarsen to invalid grid %dx%d", nx, ny)
	}
	if h.pc != nil {
		return nil, fmt.Errorf("euler: cannot coarsen a rasterized-object histogram (class plane present)")
	}
	cur := h
	for cur.g.NX() != nx || cur.g.NY() != ny {
		cnx, cny := cur.g.NX(), cur.g.NY()
		if cnx%2 != 0 || cny%2 != 0 || cnx/2 < nx || cny/2 < ny {
			return nil, fmt.Errorf("euler: %dx%d does not halve to %dx%d", h.g.NX(), h.g.NY(), nx, ny)
		}
		cur = coarsenHistogram(cur)
	}
	return cur, nil
}

// CommonGrid reports the grid two histograms can be joined on: their shared
// grid, or the coarser of the two when one halves exactly to the other
// (same extent, both axes related by the same power of two). ok is false
// when no common grid exists.
func CommonGrid(a, b *Histogram) (nx, ny int, resample, ok bool) {
	ga, gb := a.Grid(), b.Grid()
	if ga.Extent() != gb.Extent() {
		return 0, 0, false, false
	}
	if ga.NX() == gb.NX() && ga.NY() == gb.NY() {
		return ga.NX(), ga.NY(), false, true
	}
	fx, fy, cx, cy := ga.NX(), ga.NY(), gb.NX(), gb.NY()
	if fx < cx {
		fx, fy, cx, cy = cx, cy, fx, fy
	}
	if cx <= 0 || cy <= 0 || fx%cx != 0 || fy%cy != 0 {
		return 0, 0, false, false
	}
	rx, ry := fx/cx, fy/cy
	if rx != ry || rx&(rx-1) != 0 {
		return 0, 0, false, false
	}
	return cx, cy, true, true
}
