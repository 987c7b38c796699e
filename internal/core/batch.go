// Batch estimation: a browsing interaction is not one query but a
// cols×rows tile map of them (§1, §2), and the per-tile sums of all three
// algorithms are corner combinations of cumulative lattices. A tile map is
// answered in ONE plane of Estimates, bit-identical to calling Estimate per
// tile: every estimator adds its counts for every tile into the plane
// (gridAdder), and all three do it through one kernel over at most three
// nested planes (stack).
package core

import (
	"spatialhist/internal/euler"
	"spatialhist/internal/grid"
	"spatialhist/internal/query"
)

// gridAdder is that sum's term: addGrid adds the estimator's counts for
// every tile of the tiling into dst (row-major, len cols×rows), each field
// into its own.
type gridAdder interface {
	Estimator
	addGrid(dst []Estimate, region grid.Span, cols, rows int) error
}

// EstimateGrid answers every tile of the cols×rows tiling of region:
// PlanGrid then Plan.Estimates. The plane is row-major from the south-west
// (index row*cols+col, the query.Browsing order), bit-identical to calling
// Estimate per tile, and the map is recorded as one sweep.
func EstimateGrid(est Estimator, region grid.Span, cols, rows int) ([]Estimate, error) {
	p, err := PlanGrid(est, region, cols, rows)
	if err != nil {
		return nil, err
	}
	return p.Estimates(nil)
}

// sumGrid adds the answer to one tiling into dst, without telemetry: one
// sweep of the stack for the paper's estimators, a per-tile loop for any
// other Estimator.
func sumGrid(est Estimator, dst []Estimate, region grid.Span, cols, rows int) error {
	if a, ok := est.(gridAdder); ok {
		return a.addGrid(dst, region, cols, rows)
	}
	tw, th, err := query.Tiling(region, cols, rows)
	if err != nil {
		return err
	}
	for k := range dst {
		i1, j1 := region.I1+k%cols*tw, region.J1+k/cols*th
		dst[k].Add(est.Estimate(grid.Span{I1: i1, J1: j1, I2: i1 + tw - 1, J2: j1 + th - 1}))
	}
	return nil
}

// stack is what the paper's estimators answer tiles of one size from: at
// most three nested planes of one cell width, C_m, C_hi and C_s of
// M-EulerApprox's C_k (the objects of area groups < k; C_0 is empty), for
// a tile whose groups below s are S-EulerApprox and group s EulerApprox
// (hi = s+1) or not (hi = s). With c(P) = n(P) − n'_ei(P) and x =
// ncd(C_hi) − ncd(C_s) (Equation 21 per plane), the per-group counts sum
// to (DESIGN, "Nested planes")
//
//	Disjoint  = n(C_m) − n_ii(C_m)
//	Overlap   = n'_ei(C_m) − Disjoint
//	Contains  = c(C_hi) − x
//	Contained = c(C_m) − c(C_hi) + x
//
// S-EulerApprox is the one-plane stack with hi = lo = all (Equations
// 16–17), EulerApprox the one with hi = all and lo = C_0 (21–22).
type stack struct {
	all    *euler.Histogram // C_m
	hi, lo *euler.Histogram // C_hi and C_s; nil is C_0
	t      int64            // C_m's bucket total, read once
}

func newStack(all, hi, lo *euler.Histogram) stack {
	return stack{all: all, hi: hi, lo: lo, t: all.Total()}
}

// add adds the stack's counts for q into d: the one-tile case of addGrid,
// each lattice sum read once.
func (st stack) add(d *Estimate, q grid.Span) {
	st.addTile(d, q, st.rowConst(q.J1))
}

// rowConst is the part of N_cs that depends on the tile row alone:
// n(C_hi) − total(C_s), less C_hi's Equation 21 row base and plus C_s's
// when they differ.
func (st stack) rowConst(j1 int) int64 {
	k := count(st.hi) - st.total(st.lo)
	if st.hi != st.lo {
		k -= rowBase(st.hi, j1) - rowBase(st.lo, j1)
	}
	return k
}

// addTile is add with the row's constant k in hand. Expanding the
// identity, x's closed sums cancel against c(C_hi)'s, so that
// N_cs = k + closed(C_s) + A-wide(C_hi) − A-wide(C_s) and
// N_cd = c(C_m) − N_cs.
func (st stack) addTile(d *Estimate, q grid.Span, k int64) {
	n := st.all.Count()
	cl, nii := st.all.ClosedSum(q), st.all.InsideSum(q)
	cs := k + cl
	if st.lo != st.all {
		cs = k + closedSum(st.lo, q)
	}
	if st.hi != st.lo {
		cs += aWide(st.hi, q) - aWide(st.lo, q)
	}
	addCounts(d, n, n-st.t, nii, cl, cs)
}

// count and total are a plane's n and bucket total, 0 for C_0.
func count(h *euler.Histogram) int64 {
	if h == nil {
		return 0
	}
	return h.Count()
}

func (st stack) total(h *euler.Histogram) int64 {
	switch h {
	case nil:
		return 0
	case st.all:
		return st.t
	}
	return h.Total()
}

func closedSum(h *euler.Histogram, q grid.Span) int64 {
	if h == nil {
		return 0
	}
	return h.ClosedSum(q)
}

// aWide is the sum over q's closed footprint widened by its left, right
// and top boundary: what Region A's interior loses to the query.
func aWide(h *euler.Histogram, q grid.Span) int64 {
	if h == nil {
		return 0
	}
	return h.LatticeSum(2*q.I1-1, 2*q.J1, 2*q.I2+1, 2*q.J2+1)
}

// rowBase is the rest of Equation 21 for a query whose bottom row is j1:
// the inside sum of the full-width band from j1 up (Region A with the
// query left in) plus the exact contained count of the strip below it
// (Region B), which depend on the tile row alone. N_cd is rowBase less the
// A-wide sum and n'_ei.
func rowBase(h *euler.Histogram, j1 int) int64 {
	if h == nil {
		return 0
	}
	nx, ny := h.Grid().NX(), h.Grid().NY()
	b := h.InsideSum(grid.Span{I1: 0, J1: j1, I2: nx - 1, J2: ny - 1})
	if j1 > 0 {
		b += h.ContainedIn(grid.Span{I1: 0, J1: 0, I2: nx - 1, J2: j1 - 1})
	}
	return b
}

// addGrid resolves the stack's cell width, once per sweep, and runs the
// kernel compiled for it.
func (st stack) addGrid(dst []Estimate, region grid.Span, cols, rows int) error {
	if st.all.CellWidth() == 4 {
		return addStackGrid[int32](st, dst, region, cols, rows)
	}
	return addStackGrid[int64](st, dst, region, cols, rows)
}

// interiorWindow returns the lattice positions [lo, hi) the interior tile
// rows [r0, r1) of CornerView.Interior read, first closed bottom to last
// closed top: a column's rows resliced to it share one cursor.
func interiorWindow(v0, step, r0, r1 int) (lo, hi int) {
	return v0 + r0*step - 1, v0 + r1*step + 1
}

// addStackGrid is the one batch kernel: tile columns outermost, so the
// prefix rows flanking a column (ColumnRows) stream through cache. With
// D(v) a plane's closed right row less its closed left row at v, and a
// tile's closed bottom cb, inside bottom ib = cb+1 and closed top ct,
//
//	N_cs = rowConst + D_hi(ct) − D_hi(ib) + D_s(ib) − D_s(cb)
//
// with D(ib) the row below's D(ct), carried. C_m's own sweep (eight loads a
// tile) supplies a C_hi or C_s that is C_m, so the lone S-EulerApprox and
// EulerApprox stacks are that sweep alone; planes of their own first fill
// a column of N_cs (four loads more), and C_0 adds nothing. Corners widen
// to int64 as they load, so the arithmetic is the same at both cell
// widths. The edge tile rows (at most the first and last, where corner
// positions leave the lattice) take the per-tile sums, which load the same
// clamped values, so results stay bit-identical throughout.
func addStackGrid[T euler.Cell](st stack, dst []Estimate, region grid.Span, cols, rows int) error {
	av, err := euler.CornerViewOf[T](st.all, region, cols, rows)
	if err != nil {
		return err
	}
	// hv and lv are C_hi's and C_s's own planes, under masks mh and ml;
	// C_m's rows stand in, masked out, for C_0 or C_m. The planes share
	// av's grid, so the tiling av accepted is theirs.
	own := func(h *euler.Histogram) (euler.CornerView[T], int64, error) {
		if h == nil || h == st.all {
			return av, 0, nil
		}
		v, err := euler.CornerViewOf[T](h, region, cols, rows)
		return v, -1, err
	}
	hv, mh, err := own(st.hi)
	if err != nil {
		return err
	}
	lv, ml, err := own(st.lo)
	if err != nil {
		return err
	}
	// C_m standing in: as C_hi it adds D_m(ct) − D_m(ib), as C_s it adds
	// D_m(ib) − D_m(cb), and as both the closed sum.
	wc, wa := int64(0), int64(0)
	switch {
	case st.lo == st.all:
		wc = -1
	case st.hi == st.all:
		wa = -1
	}
	scratch := make([]int64, 2*rows)
	k, cs := scratch[:rows], scratch[rows:] // per tile row: rowConst, and a column's N_cs
	for r := range k {
		k[r] = st.rowConst(region.J1 + r*(region.Height()/rows))
	}
	n, nt := st.all.Count(), st.all.Count()-st.t
	v0, step, r0, r1 := av.Interior()
	if r0 < r1 {
		lo, hi := interiorWindow(v0, step, r0, r1)
		k, cs := k[r0:r1], cs[r0:r1]
		c1 := k // N_cs less C_m's part
		if mh|ml != 0 {
			c1 = cs
		}
		for col := 0; col < cols; col++ {
			if mh|ml != 0 {
				_, _, hL, hR := interiorRows(&hv, col, lo, hi)
				_, _, sL, sR := interiorRows(&lv, col, lo, hi)
				// One length for all four rows lets one bounds check cover them.
				w := len(hR)
				hL, sL, sR = hL[:w], sL[:w], sR[:w]
				hB := (int64(hR[1]) - int64(hL[1])) & mh
				for j, cb, ib, ct := 0, 0, 1, step+1; j < len(cs) && ct < w; j, cb, ib, ct = j+1, cb+step, ib+step, ct+step {
					hT := (int64(hR[ct]) - int64(hL[ct])) & mh
					cs[j] = k[j] + hT - hB + (int64(sR[ib])-int64(sL[ib])-int64(sR[cb])+int64(sL[cb]))&ml
					hB = hT
				}
			}
			inL, inR, clL, clR := interiorRows(&av, col, lo, hi)
			w := len(clR)
			inL, inR, clL = inL[:w], inR[:w], clL[:w]
			aB := (int64(clR[1]) - int64(clL[1])) & wa
			// A tile row reads the window at cb, ib, its inside top it and ct.
			for j, cb, ib, it, ct, d := 0, 0, 1, step, step+1, r0*cols+col; j < len(c1) && ct < w; j, cb, ib, it, ct, d = j+1, it, ct, it+step, ct+step, d+cols {
				nii := int64(inR[it]) - int64(inL[it]) - int64(inR[ib]) + int64(inL[ib])
				aT := int64(clR[ct]) - int64(clL[ct])
				cl := aT - int64(clR[cb]) + int64(clL[cb])
				c := c1[j] + cl&wc + aT&wa - aB
				aB = aT & wa
				addCounts(&dst[d], n, nt, nii, cl, c)
			}
		}
	}
	for r := 0; r < rows; r++ {
		if r >= r0 && r < r1 {
			continue
		}
		// An edge row, where corner positions leave the lattice: the
		// per-tile sums.
		for col := 0; col < cols; col++ {
			st.addTile(&dst[r*cols+col], av.Tile(col, r), k[r])
		}
	}
	return nil
}

// addCounts adds one tile's four counts into e from its sums: C_m's n and
// n − total, inside sum nii and closed sum cl, and N_cs.
func addCounts(e *Estimate, n, nt, nii, cl, cs int64) {
	e.Disjoint += n - nii
	e.Contains += cs
	e.Contained += nt + cl - cs
	e.Overlap += nii - nt - cl
}

// interiorRows returns tile column col's rows of v over the interior
// window [lo, hi).
func interiorRows[T euler.Cell](v *euler.CornerView[T], col, lo, hi int) (inL, inR, clL, clR []T) {
	inL, inR, clL, clR = v.ColumnRows(col)
	return inL[lo:hi], inR[lo:hi], clL[lo:hi], clR[lo:hi]
}
