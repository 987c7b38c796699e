// Batch estimation: a browsing interaction is not one query but a
// cols×rows tile map of them (§1, §2), and the per-tile sums of all three
// algorithms are corner combinations of one shared cumulative lattice. A
// tile map is answered in ONE plane of Estimates, bit-identical to calling
// Estimate per tile: every histogram involved adds its own four counts for
// every tile into the plane (gridAdder). M-EulerApprox is the sum over its
// area groups (§5.4) — N_d = Σ(n_i − n_ii) and N_cd = Σ(n_i − N_d^i − N_o^i
// − N_cs^i) are |S| − Σ n_ii and |S| − N_d − N_o − N_cs by linearity, in
// exact integer arithmetic — and a lone S-EulerApprox or EulerApprox
// histogram is the one-term sum: Equations 16–17 and 21–22 added to zero.
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
// accumulating sweep per histogram for the paper's estimators, a per-tile
// loop for any other Estimator.
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

// addSEuler adds one histogram's S-EulerApprox counts for one tile
// (Equations 16–17): N_d = n − n_ii, N_o = n_ei − N_d, and n − n_ei, which
// is N_cs under mask cs = all ones and N_cd under cs = 0 — the
// M-EulerApprox group whose objects cannot fit inside the tile, where
// N_cs = 0 by construction and N_cd closes the group's books.
func addSEuler(d *Estimate, n, nii, nei, cs int64) {
	nd := n - nii
	d.Disjoint += nd
	d.Contains += (n - nei) & cs
	d.Contained += (n - nei) &^ cs
	d.Overlap += nei - nd
}

// addEuler adds one histogram's EulerApprox counts for one tile: N_d and
// N_o as above, ncd (Equation 21's N_cd) and N_cs = n − N_cd − N_d − N_o
// (Equation 22).
func addEuler(d *Estimate, n, nii, neiPrime, ncd int64) {
	nd := n - nii
	no := neiPrime - nd
	d.Disjoint += nd
	d.Contains += n - ncd - nd - no
	d.Contained += ncd
	d.Overlap += no
}

func (e *SEuler) addGrid(dst []Estimate, region grid.Span, cols, rows int) error {
	return e.addGridMasked(dst, region, cols, rows, -1)
}

// addGridMasked resolves the histogram's cell width, once per sweep, and
// runs the S-EulerApprox kernel compiled for it. cs is addSEuler's mask.
func (e *SEuler) addGridMasked(dst []Estimate, region grid.Span, cols, rows int, cs int64) error {
	if e.h.CellWidth() == 4 {
		return addSEulerGrid[int32](e, dst, region, cols, rows, cs)
	}
	return addSEulerGrid[int64](e, dst, region, cols, rows, cs)
}

// interiorWindow returns the lattice positions [lo, hi) the interior tile
// rows [r0, r1) of CornerView.Interior read, first closed bottom to last
// closed top: a column's four rows resliced to it share one cursor.
func interiorWindow(v0, step, r0, r1 int) (lo, hi int) {
	return v0 + r0*step - 1, v0 + r1*step + 1
}

// addSEulerGrid is the S-EulerApprox batch kernel: the sums of Equations
// 16–17 assembled straight from the cumulative lattice rows — no per-tile
// span bookkeeping or corner re-derivation — iterating tile columns
// outermost so the four prefix rows of a column stream through cache. Each
// corner is widened to int64 as it is loaded, so the arithmetic is the same
// at both cell widths. The boundary tile rows (at most the first and last,
// where corner positions leave the lattice) take the per-tile sums, which
// load the same clamped values, so results stay bit-identical throughout.
func addSEulerGrid[T euler.Cell](e *SEuler, dst []Estimate, region grid.Span, cols, rows int, cs int64) error {
	cv, err := euler.CornerViewOf[T](e.h, region, cols, rows)
	if err != nil {
		return err
	}
	n, total := e.h.Count(), e.h.Total()
	v0, step, r0, r1 := cv.Interior()
	if r0 < r1 {
		lo, hi := interiorWindow(v0, step, r0, r1)
		for col := 0; col < cols; col++ {
			inL, inR, clL, clR := cv.ColumnRows(col)
			inL, inR, clL, clR = inL[lo:hi], inR[lo:hi], clL[lo:hi], clR[lo:hi]
			// b is a tile row's closed bottom corner in the window, b+1 and
			// b+step its inside corners, b+step+1 its closed top.
			for b, d := 0, r0*cols+col; b+step < len(clR)-1; b, d = b+step, d+cols {
				nii := int64(inR[b+step]) - int64(inL[b+step]) - int64(inR[b+1]) + int64(inL[b+1])
				nei := total - (int64(clR[b+step+1]) - int64(clL[b+step+1]) - int64(clR[b]) + int64(clL[b]))
				addSEuler(&dst[d], n, nii, nei, cs)
			}
		}
	}
	addSEulerEdges(e, &cv, dst, cols, rows, cs)
	return nil
}

// addSEulerEdges adds the per-tile sums of the rows outside the interior.
func addSEulerEdges[T euler.Cell](e *SEuler, cv *euler.CornerView[T], dst []Estimate, cols, rows int, cs int64) {
	_, _, r0, r1 := cv.Interior()
	for r := 0; r < rows; r++ {
		if r >= r0 && r < r1 {
			continue
		}
		for col := 0; col < cols; col++ {
			e.addMasked(&dst[r*cols+col], cv.Tile(col, r), cs)
		}
	}
}

// addGrid resolves the histogram's cell width, once per sweep, and runs the
// EulerApprox kernel compiled for it.
func (e *Euler) addGrid(dst []Estimate, region grid.Span, cols, rows int) error {
	if e.h.CellWidth() == 4 {
		return addEulerGrid[int32](e, dst, region, cols, rows)
	}
	return addEulerGrid[int64](e, dst, region, cols, rows)
}

// addEulerGrid is the EulerApprox batch kernel: every tile's sums from one
// corner sweep, with the Region A band sum and the Region B contained
// count — which depend only on the tile row — hoisted to one computation
// per row instead of one per tile.
func addEulerGrid[T euler.Cell](e *Euler, dst []Estimate, region grid.Span, cols, rows int) error {
	cv, err := euler.CornerViewOf[T](e.h, region, cols, rows)
	if err != nil {
		return err
	}
	n, total := e.h.Count(), e.h.Total()
	aBase := e.aBase(region, rows)
	v0, step, r0, r1 := cv.Interior()
	if r0 < r1 {
		lo, hi := interiorWindow(v0, step, r0, r1)
		for col := 0; col < cols; col++ {
			inL, inR, clL, clR := cv.ColumnRows(col)
			inL, inR, clL, clR = inL[lo:hi], inR[lo:hi], clL[lo:hi], clR[lo:hi]
			// The A-wide sum's bottom corners (b+1) are the row below's top
			// corners, carried; its top corners are the closed top.
			awLB, awRB := int64(clL[1]), int64(clR[1])
			for b, d, base := 0, r0*cols+col, aBase[r0:r1]; len(base) > 0; b, d, base = b+step, d+cols, base[1:] {
				clLT, clRT := int64(clL[b+step+1]), int64(clR[b+step+1])
				nii := int64(inR[b+step]) - int64(inL[b+step]) - int64(inR[b+1]) + int64(inL[b+1])
				neiPrime := total - (clRT - clLT - int64(clR[b]) + int64(clL[b]))
				addEuler(&dst[d], n, nii, neiPrime, base[0]-(clRT-clLT-awRB+awLB)-neiPrime)
				awLB, awRB = clLT, clRT
			}
		}
	}
	addEulerEdges(e, &cv, dst, cols, rows, aBase)
	return nil
}

// aBase returns each tile row's Region A band inside sum plus its Region B
// contained count: N_cd is aBase[r] less the A-wide sum and N'_ei.
func (e *Euler) aBase(region grid.Span, rows int) []int64 {
	nx, ny := e.h.Grid().NX(), e.h.Grid().NY()
	aBase := make([]int64, rows)
	for r := range aBase {
		j1 := region.J1 + r*(region.Height()/rows)
		aBase[r] = e.h.InsideSum(grid.Span{I1: 0, J1: j1, I2: nx - 1, J2: ny - 1})
		if j1 > 0 {
			aBase[r] += e.h.ContainedIn(grid.Span{I1: 0, J1: 0, I2: nx - 1, J2: j1 - 1})
		}
	}
	return aBase
}

// addEulerEdges adds the edge tile rows, where corner positions leave the
// lattice. A pure bottom row reads zeros below the lattice (dropping half
// its loads); a pure top row clamps the closed/A-wide top onto the inside
// top position. Rows that are both at once (a rows==1 full-height map)
// take the per-tile sums.
func addEulerEdges[T euler.Cell](e *Euler, cv *euler.CornerView[T], dst []Estimate, cols, rows int, aBase []int64) {
	n, total := e.h.Count(), e.h.Total()
	v0, step, r0, r1 := cv.Interior()
	add := func(r, col int, nii, neiPrime, aWide int64) {
		addEuler(&dst[r*cols+col], n, nii, neiPrime, aBase[r]-aWide-neiPrime)
	}
	if r0 == 1 && rows > 1 { // bottom row: corners below the lattice are zero
		vT := v0 + step
		for col := 0; col < cols; col++ {
			inL, inR, clL, clR := cv.ColumnRows(col)
			nii := int64(inR[vT-1]) - int64(inL[vT-1])
			wide := int64(clR[vT]) - int64(clL[vT])
			add(0, col, nii, total-wide, wide)
		}
	}
	if r1 == rows-1 && rows > 1 { // top row: the closed top clamps to the edge
		r := rows - 1
		v := v0 + r*step
		top := v + step - 1
		for col := 0; col < cols; col++ {
			inL, inR, clL, clR := cv.ColumnRows(col)
			clLT, clRT := int64(clL[top]), int64(clR[top])
			nii := int64(inR[top]) - int64(inL[top]) - int64(inR[v]) + int64(inL[v])
			neiPrime := total - (clRT - clLT - int64(clR[v-1]) + int64(clL[v-1]))
			add(r, col, nii, neiPrime, clRT-clLT-int64(clR[v])+int64(clL[v]))
		}
	}
	for r := 0; r < rows; r++ {
		if (r >= r0 && r < r1) || (rows > 1 && (r == 0 && r0 == 1 || r == rows-1 && r1 == rows-1)) {
			continue
		}
		for col := 0; col < cols; col++ {
			e.add(&dst[r*cols+col], cv.Tile(col, r))
		}
	}
}

// addGrid sums the area groups into the one plane. Every tile of an equal
// tiling has the same area, so the per-group algorithm choice of §5.4 is
// made once for the whole map, and the groups of one cell width share
// sweeps (addGroupPasses).
func (m *MEuler) addGrid(dst []Estimate, region grid.Span, cols, rows int) error {
	tw, th, err := query.Tiling(region, cols, rows)
	if err != nil {
		return err
	}
	aq := float64(tw*th) * m.unit // exact, matching MEuler.estimate
	if err := addGroupPasses[int32](m, dst, region, cols, rows, aq, 4); err != nil {
		return err
	}
	return addGroupPasses[int64](m, dst, region, cols, rows, aq, 8)
}

// groupSweep is an area group's slot in a pass, cs its role mask.
type groupSweep[T euler.Cell] struct {
	cv           euler.CornerView[T]
	i            int
	n, total, cs int64
}

// addGroupPasses adds the groups of cell width width in passes of three,
// the EulerApprox-role group first in its pass. A full pass shares
// addFusedInterior, then adds edge rows each; a last pass of one or two
// groups runs each group's own kernel.
func addGroupPasses[T euler.Cell](m *MEuler, dst []Estimate, region grid.Span, cols, rows int, aq float64, width int) error {
	var pass [3]groupSweep[T]
	k, em := 0, int64(0) // em: all ones when pass[0] is the EulerApprox-role group
	flush := func() (err error) {
		if k < len(pass) {
			for j := 0; j < k && err == nil; j++ {
				if g := &pass[j]; j == 0 && em != 0 {
					err = m.eapx[g.i].addGrid(dst, region, cols, rows)
				} else {
					err = m.seuler[g.i].addGridMasked(dst, region, cols, rows, g.cs)
				}
			}
			k, em = 0, 0
			return err
		}
		var aBase []int64
		if em != 0 {
			aBase = m.eapx[pass[0].i].aBase(region, rows)
		} else {
			aBase = make([]int64, rows) // read under em = 0 only
		}
		addFusedInterior(dst, &pass, cols, aBase, em)
		for j := range pass {
			if g := &pass[j]; j == 0 && em != 0 {
				addEulerEdges(m.eapx[g.i], &g.cv, dst, cols, rows, aBase)
			} else {
				addSEulerEdges(m.seuler[g.i], &g.cv, dst, cols, rows, g.cs)
			}
		}
		k, em = 0, 0
		return nil
	}
	for i, h := range m.hists {
		if h.CellWidth() != width {
			continue
		}
		cv, err := euler.CornerViewOf[T](h, region, cols, rows)
		if err != nil {
			return err
		}
		pass[k] = groupSweep[T]{cv: cv, i: i, n: h.Count(), total: h.Total(), cs: -1}
		switch m.role(i, aq) {
		case GroupNoContains:
			pass[k].cs = 0
		case GroupEulerApprox:
			pass[0], pass[k], em = pass[k], pass[0], -1
		}
		if k++; k == len(pass) {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// addFusedInterior adds the interior tile rows of a pass of three groups,
// one straight-line body per tile, each group's role a pair of masks
// (DESIGN, "One pass per width"); pass[0]'s N_cd is masked by em.
// Integer addition reassociates, so the plane is bit-identical.
func addFusedInterior[T euler.Cell](dst []Estimate, pass *[3]groupSweep[T], cols int, aBase []int64, em int64) {
	a, b, c := &pass[0], &pass[1], &pass[2]
	v0, step, r0, r1 := a.cv.Interior()
	if r0 >= r1 {
		return
	}
	lo, hi := interiorWindow(v0, step, r0, r1)
	n, k := a.n+b.n+c.n, a.total-a.n+b.total-b.n+c.total-c.n // c_g = closed_g − k_g
	kcs := (a.total-a.n)&a.cs + (b.total-b.n)&b.cs + (c.total-c.n)&c.cs
	csa, csb, csc, ta, base := a.cs, b.cs, c.cs, a.total, aBase[r0:r1]
	for col := 0; col < cols; col++ {
		aiL, aiR, acL, acR := a.window(col, lo, hi)
		biL, biR, bcL, bcR := b.window(col, lo, hi)
		ciL, ciR, ccL, ccR := c.window(col, lo, hi)
		// One length for all twelve rows lets one bounds check cover them.
		w := len(acR)
		aiL, aiR, acL = aiL[:w], aiR[:w], acL[:w]
		biL, biR, bcL, bcR = biL[:w], biR[:w], bcL[:w], bcR[:w]
		ciL, ciR, ccL, ccR = ciL[:w], ciR[:w], ccL[:w], ccR[:w]
		awLB, awRB := int64(acL[1]), int64(acR[1]) // pass[0]'s A-wide bottom, carried
		// A tile row reads the window at its closed bottom corner cb, its
		// inside corners ib = cb+1 and it, and its closed top ct = it+1.
		for j, cb, ib, it, ct, d := 0, 0, 1, step, step+1, r0*cols+col; j < len(base) && ct < w; j, cb, ib, it, ct, d = j+1, it, ct, it+step, ct+step, d+cols {
			acLT, acRT := int64(acL[ct]), int64(acR[ct])
			clA := acRT - acLT - int64(acR[cb]) + int64(acL[cb])
			clB := int64(bcR[ct]) - int64(bcL[ct]) - int64(bcR[cb]) + int64(bcL[cb])
			clC := int64(ccR[ct]) - int64(ccL[ct]) - int64(ccR[cb]) + int64(ccL[cb])
			ncd := (base[j] - (acRT - acLT - awRB + awLB) - ta + clA) & em
			awLB, awRB = acLT, acRT
			cl := clA + clB + clC
			cs := clA&csa + clB&csb + clC&csc - kcs - ncd
			nii := int64(aiR[it]) - int64(aiL[it]) - int64(aiR[ib]) + int64(aiL[ib]) +
				int64(biR[it]) - int64(biL[it]) - int64(biR[ib]) + int64(biL[ib]) +
				int64(ciR[it]) - int64(ciL[it]) - int64(ciR[ib]) + int64(ciL[ib])
			t := &dst[d]
			t.Disjoint += n - nii
			t.Contains += cs
			t.Contained += cl - k - cs
			t.Overlap += k - cl + nii
		}
	}
}

// window returns the slot's column rows over [lo, hi).
func (g *groupSweep[T]) window(col, lo, hi int) (inL, inR, clL, clR []T) {
	inL, inR, clL, clR = g.cv.ColumnRows(col)
	return inL[lo:hi], inR[lo:hi], clL[lo:hi], clR[lo:hi]
}
