// Cell-width check. A lattice plane is held at 4 bytes per bucket while
// whoever builds it can show the values fit, and at 8 once it cannot — by
// one implementation, instantiated at both widths. The oracle runs one
// script of mutations, publishes, pyramid repairs, file round trips and
// tile maps twice: under the real limit, where every plane stays narrow,
// and under a limit of a few dozen updates, where builders start narrow
// and go wide mid-script. The two transcripts must agree entry for entry.
package check

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/grid"
	"spatialhist/internal/query"
)

const widthCheck = "narrow-vs-wide"

// widthEntry is one observation of the script: what was looked at, and
// everything seen there, rendered.
type widthEntry struct{ what, val string }

// widthRun is what one pass of the script leaves behind.
type widthRun struct {
	entries []widthEntry
	hists   []*euler.Histogram // the last generation: one per area group, then the raster-fed one
}

// widthGroup is one builder of the script with the generations it has
// published: the live store's arena in miniature.
type widthGroup struct {
	b       *euler.Builder
	live    []grid.Span
	ops     int64            // rectangle updates applied: what the builder's width follows
	h       *euler.Histogram // the published generation
	p       *euler.Pyramid
	retired *euler.Pyramid // the generation before h, free to donate its buffers
	stale   euler.DirtyRegion
}

// mix folds one value into a running FNV-1a style hash, a word at a time.
func mix(hash uint64, v int64) uint64 { return (hash ^ uint64(v)) * 1099511628211 }

// histPrint renders everything a histogram can be asked: counts, every
// bucket through both accessors, and the query families at each probe.
func histPrint(h *euler.Histogram, probes []grid.Span) string {
	hash := uint64(14695981039346656037)
	lx, _ := h.Buckets()
	var row []int64
	for u := 0; u < lx; u++ {
		row = h.RawRow(u, row)
		for v, c := range row {
			if b := h.Bucket(u, v); b != c {
				return fmt.Sprintf("Bucket(%d,%d)=%d but RawRow gives %d", u, v, b, c)
			}
			hash = mix(hash, c)
		}
	}
	s := fmt.Sprintf("count=%d total=%d buckets=%016x", h.Count(), h.Total(), hash)
	for _, q := range probes {
		partial, classed := h.PartialIn(q)
		s += fmt.Sprintf(" %v:%d/%d/%d/%d/%d/%d,%v", q, h.InsideSum(q), h.ClosedSum(q), h.OutsideSum(q),
			h.ContainedIn(q), h.LatticeSum(2*q.I1-1, 2*q.J1, 2*q.I2+1, 2*q.J2+1), partial, classed)
	}
	return s
}

// mapPrint renders a tile map: its size and a hash of every count.
func mapPrint(ests []core.Estimate) string {
	hash := uint64(14695981039346656037)
	for _, e := range ests {
		hash = mix(mix(mix(mix(hash, e.Disjoint), e.Contains), e.Contained), e.Overlap)
	}
	return fmt.Sprintf("%d tiles %016x", len(ests), hash)
}

// widthScript runs the script for seed under the given narrow limit (a
// negative limit leaves the real one in place). It is a pure function of
// its arguments, and draws the same random numbers whatever the limit.
func widthScript(seed, limit int64) (run widthRun, d *Divergence) {
	if limit >= 0 {
		defer euler.LowerNarrowLimit(limit)()
	}
	r := gen.Rand(seed)
	g := pyramidGrid(r)
	areas := randAreas(r)
	popts := euler.PyramidOpts{MinGrid: 4}
	whole := euler.DirtyRegion{U2: 2*g.NX() - 2, V2: 2*g.NY() - 2}
	probes := randQueries(r, g, 6)
	fail := func(format string, args ...any) *Divergence {
		return &Divergence{Check: widthCheck, Seed: seed, Grid: gridDesc(g),
			Detail: fmt.Sprintf("limit %d: ", limit) + fmt.Sprintf(format, args...)}
	}
	note := func(what, val string) { run.entries = append(run.entries, widthEntry{what, val}) }
	// same holds one observation against another made inside this run.
	same := func(what, got, want string) *Divergence {
		if got == want {
			return nil
		}
		d := fail("%s", what)
		d.Got, d.Want = got, want
		return d
	}

	groups := make([]*widthGroup, len(areas))
	for i := range groups {
		groups[i] = &widthGroup{b: euler.NewBuilder(g)}
	}
	raster := &widthGroup{b: euler.NewBuilder(g)}
	tripper := groups[r.Intn(len(groups))]
	var polys [][]grid.Raster // the raster-fed builder's objects, by polygon
	mutate := func(n int) {
		for k := 0; k < n; k++ {
			if gi := r.Intn(len(groups)); len(groups[gi].live) > 0 && r.Intn(4) == 0 {
				grp := groups[gi]
				i := r.Intn(len(grp.live))
				if grp.b.RemoveSpan(grp.live[i]) {
					grp.live[i] = grp.live[len(grp.live)-1]
					grp.live = grp.live[:len(grp.live)-1]
					grp.ops++
				}
				continue
			}
			s := gen.Span(r, g)
			grp := groups[core.AreaGroup(areas, float64(s.Cells()))]
			grp.b.AddSpan(s)
			grp.live = append(grp.live, s)
			grp.ops++
		}
		if len(polys) > 0 && r.Intn(3) == 0 {
			for _, rst := range polys[len(polys)-1] {
				raster.b.RemoveRaster(rst)
			}
			polys = polys[:len(polys)-1]
		}
		for _, p := range gen.Polygons(r, g, 1+r.Intn(3), gen.PolyOpts{Aligned: 0.2}) {
			rsts := g.Rasterize(p)
			for _, rst := range rsts {
				raster.b.AddRaster(rst)
			}
			polys = append(polys, rsts)
		}
	}

	// publish builds group grp's next generation the way the live store
	// does — repair of the last one, in a donated retired buffer when the
	// dice say so — and the pyramid over it, and observes both.
	publish := func(ctx string, grp *widthGroup, last bool) *Divergence {
		spans := grp != raster // and not strips, whose updates the script does not count
		var opts euler.BuildFromOpts
		switch r.Intn(3) {
		case 0:
			opts.Crossover = -1 // always repair
		case 1:
			opts.Crossover = 1e-9 // always rebuild in full: into the scratch, when one is donated
			opts.Workers = 1 + r.Intn(3)
		}
		donor, inPlace := grp.p, false
		donate, wholeStale := r.Intn(2) == 0, r.Intn(3) == 0
		if grp.retired != nil && donate {
			opts.Scratch, opts.Stale = grp.retired.Base(), grp.stale
			if wholeStale {
				opts.Stale = whole // a long-retired lease: copy-first territory
			}
			donor, inPlace = grp.retired, true
		}
		next, stats := grp.b.BuildFrom(grp.h, opts)
		if next != grp.h {
			if inPlace {
				grp.retired = nil // donated arrays are consumed
			}
			np := euler.PyramidFrom(next, euler.PyramidFromOpts{Opts: popts, Donor: donor, Stale: stats.Dirty, InPlace: inPlace})
			switch {
			case grp.p == nil:
			case grp.retired == nil:
				grp.retired, grp.stale = grp.p, stats.Dirty
			default:
				grp.stale = grp.stale.Union(stats.Dirty)
			}
			grp.h, grp.p = next, np
		}

		// The width follows the builder's count of updates, nothing else.
		if wide, want := grp.h.CellWidth() == 8, limit >= 0 && grp.ops > limit; spans && wide != want {
			return fail("%s: %d-byte cells after %d updates", ctx, grp.h.CellWidth(), grp.ops)
		}
		fp := histPrint(grp.h, probes)
		note(ctx+" histogram", fp)
		if spans {
			fresh := euler.NewBuilder(g)
			for _, s := range grp.live {
				fresh.AddSpan(s)
			}
			if d := same(ctx+": BuildFrom chain diverges from a fresh build", fp, histPrint(fresh.Build(), probes)); d != nil {
				return d
			}
		}

		cold := euler.NewPyramid(grp.h, popts)
		for k := 1; k < grp.p.Levels(); k++ {
			lprobes := make([]grid.Span, len(probes))
			for i, q := range probes {
				lprobes[i] = euler.CoarseSpan(q, k)
			}
			lp := histPrint(grp.p.Level(k), lprobes)
			note(fmt.Sprintf("%s pyramid level %d", ctx, k), lp)
			if d := same(fmt.Sprintf("%s: repaired pyramid level %d diverges from the cold one", ctx, k),
				lp, histPrint(cold.Level(k), lprobes)); d != nil {
				return d
			}
			if grp.p.Level(k).CellWidth() != grp.h.CellWidth() {
				return fail("%s: level %d has %d-byte cells over a base of %d", ctx, k, grp.p.Level(k).CellWidth(), grp.h.CellWidth())
			}
		}

		// Files do not know the resident width; what they read back as does
		// not change an answer, and resumes building where the writer was.
		// Each writer and reader brings a megabyte of buffer, so only the
		// last generation of the raster-fed builder and of one group makes
		// the trip.
		if !last || spans && grp != tripper {
			return nil
		}
		for _, w := range []struct {
			name  string
			write func(io.Writer) error
		}{{"Write", grp.h.Write}, {"WriteCompact", grp.h.WriteCompact}} {
			name := w.name
			var buf bytes.Buffer
			if err := w.write(&buf); err != nil {
				return fail("%s: %s: %v", ctx, name, err)
			}
			sum := fnv.New64a()
			sum.Write(buf.Bytes())
			note(ctx+" "+name, fmt.Sprintf("%d bytes %016x", buf.Len(), sum.Sum64()))
			back, err := euler.Read(&buf)
			if err != nil {
				return fail("%s: reading %s back: %v", ctx, name, err)
			}
			if d := same(ctx+": "+name+" then Read changes the histogram", histPrint(back, probes), fp); d != nil {
				return d
			}
			resumed := euler.BuilderFromHistogram(back).Build()
			if d := same(ctx+": a builder resumed from "+name+" builds another histogram", histPrint(resumed, probes), fp); d != nil {
				return d
			}
		}
		return nil
	}

	// maps observes every estimator over the groups' generation: tile maps
	// through each batch entry point and the per-tile loop, and the probes.
	maps := func(ctx string) *Divergence {
		hs := make([]*euler.Histogram, len(groups))
		pyrs := make([]*euler.Pyramid, len(groups))
		for i, grp := range groups {
			hs[i], pyrs[i] = grp.h, grp.p
		}
		m, err := core.MEulerFromHistograms(areas, hs)
		if err != nil {
			return fail("%s: assembling M-EulerApprox: %v", ctx, err)
		}
		ests := []core.Estimator{core.NewSEuler(hs[0]), core.NewEuler(hs[len(hs)-1]), m}
		if pyrs[0].Levels() > 1 {
			z, err := core.ZoomMEuler(areas, pyrs)
			if err != nil {
				return fail("%s: assembling the zoom stack: %v", ctx, err)
			}
			ests = append(ests, z, core.ZoomSEuler(pyrs[0]), core.ZoomEuler(pyrs[len(pyrs)-1]))
		}
		type tiling struct {
			region     grid.Span
			cols, rows int
		}
		var tilings [2]tiling
		tilings[0].region, tilings[0].cols, tilings[0].rows = gen.Tiling(r, g)
		// A full-space map with divisor tile counts: level-aligned often
		// enough that the zoom stacks answer it from a coarse level.
		tilings[1] = tiling{grid.Span{I2: g.NX() - 1, J2: g.NY() - 1}, divisorTiling(r, g.NX()), divisorTiling(r, g.NY())}
		for _, est := range ests {
			note(fmt.Sprintf("%s %s probes", ctx, est.Name()), fmt.Sprint(core.EstimateSet(est, probes)))
			for _, tl := range tilings {
				what := fmt.Sprintf("%s %s %dx%d map of %v", ctx, est.Name(), tl.cols, tl.rows, tl.region)
				batch, err := core.EstimateGrid(est, tl.region, tl.cols, tl.rows)
				if err != nil {
					return fail("%s: %v", what, err)
				}
				want := mapPrint(batch)
				note(what, want)
				plane := make([]core.Estimate, tl.cols*tl.rows)
				for k := range plane {
					plane[k] = core.Estimate{Disjoint: r.Int63(), Contains: -r.Int63(), Contained: r.Int63(), Overlap: -r.Int63()}
				}
				th := tl.region.Height() / tl.rows
				for r0 := 0; r0 < tl.rows; {
					r1 := r0 + 1 + r.Intn(tl.rows-r0)
					if err := core.EstimateGridInto(est, plane[r0*tl.cols:r1*tl.cols], query.RowBand(tl.region, th, r0, r1-1), tl.cols, r1-r0); err != nil {
						return fail("%s: EstimateGridInto: %v", what, err)
					}
					r0 = r1
				}
				if d := same(what+": EstimateGridInto diverges from EstimateGrid", mapPrint(plane), want); d != nil {
					return d
				}
				perTile := core.EstimateSet(est, gen.Tiles(tl.region, tl.cols, tl.rows))
				if d := same(what+": per-tile Estimate diverges from EstimateGrid", mapPrint(perTile), want); d != nil {
					return d
				}
			}
		}
		note(ctx+" join of the first two groups", productSum(hs[0], hs[1]))
		note(ctx+" join of the raster-fed histogram and the first group", productSum(raster.h, hs[0]))
		return nil
	}

	steps := 3 + r.Intn(3)
	for step := 0; step < steps; step++ {
		n := 1 + r.Intn(40)
		if step == 0 {
			n = 20 + r.Intn(150)
		}
		mutate(n)
		for i, grp := range groups {
			if d := publish(fmt.Sprintf("step %d/%d group %d", step+1, steps, i), grp, step == steps-1); d != nil {
				return run, d
			}
		}
		if d := publish(fmt.Sprintf("step %d/%d raster-fed", step+1, steps), raster, step == steps-1); d != nil {
			return run, d
		}
		if d := maps(fmt.Sprintf("step %d/%d", step+1, steps)); d != nil {
			return run, d
		}
	}
	for _, grp := range append(groups, raster) {
		run.hists = append(run.hists, grp.h)
	}
	return run, nil
}

func runNarrowVsWide(seed int64) *Divergence {
	narrow, d := widthScript(seed, -1)
	if d != nil {
		return d
	}
	limit := int64(uint64(seed) % 48)
	wide, d := widthScript(seed, limit)
	if d != nil {
		return d
	}
	diverged := func(what, got, want string) *Divergence {
		return &Divergence{Check: widthCheck, Seed: seed,
			Detail: fmt.Sprintf("%s differs between the run that stays narrow and the one that widens after %d updates", what, limit),
			Got:    got, Want: want}
	}
	for i, e := range narrow.entries {
		if i >= len(wide.entries) || wide.entries[i].what != e.what {
			return diverged("the script itself (entry "+e.what+")", fmt.Sprintf("%d entries", len(wide.entries)), fmt.Sprintf("%d entries", len(narrow.entries)))
		}
		if w := wide.entries[i]; w.val != e.val {
			return diverged(e.what, w.val, e.val)
		}
	}
	// Joins across the two runs: a side's cell width is invisible to the
	// product sum, whatever the other side's.
	for i, a := range narrow.hists {
		for j, b := range narrow.hists {
			want := productSum(a, b)
			if got := productSum(a, wide.hists[j]); got != want {
				return diverged(fmt.Sprintf("join of histograms %d (%d-byte cells) and %d (%d-byte cells)",
					i, a.CellWidth(), j, wide.hists[j].CellWidth()), got, want)
			}
			if got := productSum(wide.hists[i], wide.hists[j]); got != want {
				return diverged(fmt.Sprintf("join of histograms %d and %d", i, j), got, want)
			}
		}
	}
	return nil
}
