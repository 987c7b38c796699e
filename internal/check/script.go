// Transcript checks. Every path that builds, publishes, recovers or serves
// the paper's histograms must answer as a fresh build over the same objects
// does. One seeded script (gen.Script) is carried out by interpreters, one
// per axis of that claim, and each leaves a transcript: what it saw at every
// step. A check holds one interpreter, or a composition of axes, to the
// fresh reference entry for entry, and shrinks the script once, whatever
// the pair.
package check

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/query"
)

// interpreter is one way of carrying out a script.
type interpreter interface {
	// Apply feeds one mutation, reporting whether it changed the objects.
	Apply(m gen.Mutation) (bool, error)
	// Publish makes every mutation applied so far visible to Observe.
	Publish() error
	// Observe renders what the probe sees of the last publish; "" when the
	// interpreter cannot look that deep (a coordinator holds no histograms).
	Observe(p gen.Probe) string
	Close() error
}

// restarter is an interpreter with something to checkpoint and reopen.
type restarter interface {
	Checkpoint() error
	Restart() error
}

// scenario is a script and the estimator it runs.
type scenario struct {
	spec core.Spec
	*gen.Script
}

// newScenario draws one: three times in four over a grid with pyramid
// levels.
func newScenario(r *rand.Rand) *scenario {
	g := gen.EvenGrid(r, 32)
	if r.Intn(4) == 0 {
		g = gen.Grid(r, 24, 24)
	}
	spec := paperSpecs(r)[r.Intn(3)]
	return &scenario{spec, gen.NewScript(r, g)}
}

func (sc *scenario) with(steps []gen.Step) *scenario { return &scenario{sc.spec, sc.With(steps)} }

// config names one interpreter and opens it.
type config struct {
	name  string
	limit int64 // the narrow limit it runs under; < 0 the real one
	open  func(sc *scenario) (interpreter, error)
}

// transcript carries out the script with c's interpreter: what it saw at
// the open, at every step, and at the close. Interpreters run one at a
// time: the narrow limit and the failpoint registry are process-global. A
// probe after unpublished mutations publishes first, so every interpreter
// observes the same objects whatever its own publishing policy.
func transcript(sc *scenario, c config) []string {
	if c.limit >= 0 {
		defer euler.LowerNarrowLimit(c.limit)()
	}
	it, err := c.open(sc)
	if err != nil {
		return []string{render("ok", err)}
	}
	out := []string{"ok"}
	dirty := false
	for _, st := range sc.Steps {
		val := "ok"
		var err error
		switch st.Kind {
		case gen.StepMutate:
			var ok bool
			ok, err = it.Apply(st.Mut)
			val, dirty = "rejected", true
			if ok {
				val = "applied"
			}
		case gen.StepPublish:
			err, dirty = it.Publish(), false
		case gen.StepCheckpoint, gen.StepRestart:
			if rs, ok := it.(restarter); ok && st.Kind == gen.StepCheckpoint {
				err = rs.Checkpoint()
			} else if ok {
				err = rs.Restart()
			}
		case gen.StepProbe:
			if dirty {
				err, dirty = it.Publish(), false
			}
			if err == nil {
				val = it.Observe(st.Probe)
			}
		}
		out = append(out, render(val, err))
	}
	return append(out, render("ok", it.Close()))
}

// what names transcript entry i.
func (sc *scenario) what(i int) string {
	switch {
	case i == 0:
		return "the open"
	case i > len(sc.Steps):
		return "the close"
	}
	return fmt.Sprintf("step %d (%v)", i-1, sc.Steps[i-1])
}

// firstDiff is the index of the first entry two transcripts answer
// differently, -1 when they agree. An entry either side left "" is one it
// does not answer.
func firstDiff(a, b []string) int {
	for i := 0; i < max(len(a), len(b)); i++ {
		if i >= min(len(a), len(b)) || a[i] != b[i] && a[i] != "" && b[i] != "" {
			return i
		}
	}
	return -1
}

// reference is what every interpreter is held to.
var reference = freshConfig(perTile, 0)

// diverge runs the reference and c over sc: the index of their first
// difference, and both transcripts.
func diverge(sc *scenario, c config) (int, []string, []string) {
	want, got := transcript(sc, reference), transcript(sc, c)
	return firstDiff(want, got), want, got
}

// lastRef is the reference transcript of the last round seed. Every check
// of a pass runs on the same seed, so the transcript checks draw the same
// scenario and need the reference carried out once.
var lastRef struct {
	sync.Mutex
	seed int64
	want []string
}

// transcriptCheck holds the interpreters draw returns to the reference,
// one after another, over one scenario per round.
func transcriptCheck(name, doc string, draw func(r *rand.Rand) []config) Check {
	return Check{Name: name, Kind: KindTranscript, Doc: doc, Run: func(seed int64) *Divergence {
		r := gen.Rand(seed)
		sc := newScenario(r)
		lastRef.Lock()
		if lastRef.want == nil || lastRef.seed != seed {
			lastRef.seed, lastRef.want = seed, transcript(sc, reference)
		}
		want := lastRef.want
		lastRef.Unlock()
		for _, c := range draw(r) {
			if got := transcript(sc, c); firstDiff(want, got) >= 0 {
				return shrinkScript(name, seed, sc, c, want, got)
			}
		}
		return nil
	}}
}

// shrinkScript minimizes a script on whose transcripts the reference and c
// disagree — want and got — to the fewest steps that still part them, and
// reports the first entry they differ at. A divergence that does not come
// back on a re-run (a timing-dependent one) is reported as first seen.
func shrinkScript(name string, seed int64, sc *scenario, c config, want, got []string) *Divergence {
	small := sc.with(shrinkSlice(sc.Steps, 40, func(steps []gen.Step) bool {
		i, _, _ := diverge(sc.with(steps), c)
		return i >= 0
	}))
	if i, w, g := diverge(small, c); i >= 0 {
		sc, want, got = small, w, g
	}
	i := firstDiff(want, got)
	d := &Divergence{Check: name, Seed: seed, Grid: gridDesc(sc.Grid), Steps: sc.Steps,
		Detail: fmt.Sprintf("%s and %s (%v) differ at %s", c.name, reference.name, sc.spec.Algo, sc.what(i)),
		Got:    "(transcript ends)", Want: "(transcript ends)"}
	if i < len(got) {
		d.Got = got[i]
	}
	if i < len(want) {
		d.Want = want[i]
	}
	return d
}

// sweep is how an interpreter answers tile maps; every way must agree.
type sweep int

const (
	perTile  sweep = iota // one Estimate per tile
	oneSweep              // core.EstimateGrid
	banded                // Plan.Add onto a garbage-filled plane, one plan per random row band
)

func (s sweep) String() string {
	return [...]string{"per-tile", "EstimateGrid", "banded Plan.Add"}[s]
}

// reader answers probes from an estimator: tile maps by its sweep, the
// histogram probes through core.SpecOf and the zoom stack's levels.
type reader struct {
	sweep sweep
	r     *rand.Rand // the sweep's bands and garbage
}

func (rd *reader) observe(est core.Estimator, p gen.Probe) string {
	switch p.Kind {
	case gen.ProbeEstimates:
		return fmt.Sprint(core.EstimateSet(est, p.Spans))
	case gen.ProbeMap:
		ests, err := rd.mapOf(est, p.Region, p.Cols, p.Rows)
		return render(mapPrint(ests), err)
	case gen.ProbePyramid:
		return levelsPrint(core.NumLevels(est), p.Spans, func(k int) []*euler.Histogram {
			_, hs, _ := core.SpecOf(est.(interface{ Level(int) core.Estimator }).Level(k))
			return hs
		})
	}
	_, hs, _ := core.SpecOf(est) // none for an estimator that is not the paper's: ""
	return histsProbe(hs, p)
}

func (rd *reader) mapOf(est core.Estimator, region grid.Span, cols, rows int) ([]core.Estimate, error) {
	switch rd.sweep {
	case oneSweep:
		return core.EstimateGrid(est, region, cols, rows)
	case banded:
		// Every band adds onto the garbage, and adding its negation back
		// must leave the map: nothing overwritten, no seam.
		plane := make([]core.Estimate, cols*rows)
		undo := make([]core.Estimate, cols*rows)
		for k := range plane {
			a, b, c, d := rd.r.Int63(), rd.r.Int63(), rd.r.Int63(), rd.r.Int63()
			plane[k] = core.Estimate{Disjoint: a, Contains: -b, Contained: c, Overlap: -d}
			undo[k] = core.Estimate{Disjoint: -a, Contains: b, Contained: -c, Overlap: d}
		}
		th := region.Height() / rows
		for r0 := 0; r0 < rows; {
			r1 := r0 + 1 + rd.r.Intn(rows-r0)
			p, err := core.PlanGrid(est, query.RowBand(region, th, r0, r1-1), cols, r1-r0)
			if err != nil {
				return nil, err
			}
			if err := p.Add(plane[r0*cols : r1*cols]); err != nil {
				return nil, err
			}
			r0 = r1
		}
		for k, u := range undo {
			plane[k].Add(u)
		}
		return plane, nil
	}
	return core.EstimateSet(est, gen.Tiles(region, cols, rows)), nil
}

// mix folds one value into a running FNV-1a style hash, a word at a time.
func mix(hash uint64, v int64) uint64 { return (hash ^ uint64(v)) * 1099511628211 }

// histPrint renders everything a histogram can be asked: counts, every
// bucket, and the query families at each span.
func histPrint(h *euler.Histogram, spans []grid.Span) string {
	hash := uint64(14695981039346656037)
	lx, ly := h.Buckets()
	for u := 0; u < lx; u++ {
		for v := 0; v < ly; v++ {
			hash = mix(hash, h.Bucket(u, v))
		}
	}
	s := fmt.Sprintf("count=%d total=%d buckets=%016x", h.Count(), h.Total(), hash)
	for _, q := range spans {
		s += fmt.Sprintf(" %v:%d/%d/%d/%d/%d", q, h.InsideSum(q), h.ClosedSum(q), h.OutsideSum(q),
			h.ContainedIn(q), h.LatticeSum(2*q.I1-1, 2*q.J1, 2*q.I2+1, 2*q.J2+1))
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

// render is a probe's value, or the error that stood in its way.
func render[T any](v T, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(v)
}

// levelsPrint renders a pyramid of n levels: every coarse level's
// histograms, one per plane, at the spans floor-halved to it.
func levelsPrint(n int, spans []grid.Span, level func(k int) []*euler.Histogram) string {
	s := fmt.Sprintf("%d levels", n)
	for k := 1; k < n; k++ {
		coarse := make([]grid.Span, len(spans))
		for i, q := range spans {
			coarse[i] = euler.CoarseSpan(q, k)
		}
		for _, h := range level(k) {
			s += fmt.Sprintf("; level %d: %s", k, histPrint(h, coarse))
		}
	}
	return s
}

// fileW and fileR are the megabyte buffers euler's writer and reader would
// allocate for every file: handed a bufio pair that large, they use it.
// Transcripts run one at a time, and so do their file probes.
var fileW, fileR = bufio.NewWriterSize(nil, 1<<20), bufio.NewReaderSize(nil, 1<<20)

// histsProbe answers the bucket and file probes over the published
// histograms, one per plane. Files do not know the resident cell width.
func histsProbe(hs []*euler.Histogram, p gen.Probe) string {
	var s string
	for i, h := range hs {
		switch p.Kind {
		case gen.ProbeBuckets:
			s += fmt.Sprintf("plane %d: %s; ", i, histPrint(h, p.Spans))
		case gen.ProbeFile:
			var buf bytes.Buffer
			fileW.Reset(&buf)
			if err := h.Write(fileW); err != nil {
				return "error: " + err.Error()
			}
			sum := fnv.New64a()
			sum.Write(buf.Bytes())
			s += fmt.Sprintf("plane %d: %d bytes %016x", i, buf.Len(), sum.Sum64())
			fileR.Reset(&buf)
			back, err := euler.Read(fileR)
			if err != nil {
				return "error: reading back: " + err.Error()
			}
			s += fmt.Sprintf(", read %s, resumed %s; ", histPrint(back, p.Spans),
				histPrint(euler.BuilderFromHistogram(back).Build(), p.Spans))
		}
	}
	return s
}

// fresh is the reference: every publish builds the spec's estimator anew
// over the live objects, and its pyramid levels are direct builds of the
// coarsened grids.
type fresh struct {
	reader
	spec    core.Spec
	g       *grid.Grid
	objects []geom.Rect
	est     core.Estimator
}

func freshConfig(sw sweep, seed int64) config {
	return config{name: fmt.Sprintf("fresh (%v)", sw), limit: -1, open: func(sc *scenario) (interpreter, error) {
		return newFresh(sc, reader{sw, gen.Rand(seed)})
	}}
}

func newFresh(sc *scenario, rd reader) (*fresh, error) {
	f := &fresh{reader: rd, spec: sc.spec, g: sc.Grid, objects: slices.Clone(sc.Seed)}
	return f, f.Publish()
}

// Apply accepts what a store takes in: an object some partition holds and
// some cell snaps.
func (f *fresh) Apply(m gen.Mutation) (bool, error) {
	f.objects = gen.Apply(f.objects, m)
	old, removes := m.Removed()
	return removes && f.takes(old) || f.takes(m.R), nil
}

func (f *fresh) takes(r geom.Rect) bool {
	_, grouped := f.spec.Group(f.g, r)
	_, snapped := f.g.Snap(r)
	return grouped && snapped
}

func (f *fresh) Publish() (err error) {
	f.est, err = f.spec.FromRects(f.g, f.objects)
	return err
}

func (f *fresh) Observe(p gen.Probe) string {
	if p.Kind != gen.ProbePyramid {
		return f.observe(f.est, p)
	}
	spans := make([][]grid.Span, f.spec.Groups()) // plane k's: area groups 0..k
	for _, r := range f.objects {
		if gi, ok := f.spec.Group(f.g, r); ok && f.takes(r) {
			s, _ := f.g.Snap(r)
			for k := gi; k < len(spans); k++ {
				spans[k] = append(spans[k], s)
			}
		}
	}
	n := 1
	for nx, ny := f.g.NX(), f.g.NY(); nx%2 == 0 && ny%2 == 0 && min(nx, ny)/2 >= popts.MinGrid; nx, ny = nx/2, ny/2 {
		n++
	}
	return levelsPrint(n, p.Spans, func(k int) []*euler.Histogram {
		hs := make([]*euler.Histogram, len(spans))
		for i, ss := range spans {
			hs[i] = pyramidFresh(f.g, ss, k)
		}
		return hs
	})
}

func (f *fresh) Close() error { return nil }

// popts shapes every pyramid of the transcripts: as many levels as halve
// to no fewer than four cells.
var popts = euler.PyramidOpts{MinGrid: 4}

// chain publishes the way the live store does, without the store: one
// builder per nested plane, each generation a BuildFrom of the last —
// repaired or rebuilt in full as the script's mutations say, into a
// donated retired buffer with its stale box or not — and its pyramid a
// PyramidFrom of the last, cloned or repaired in place. It holds every
// plane's cell width to the count of updates, which the last plane takes.
type chain struct {
	reader
	spec   core.Spec
	g      *grid.Grid
	limit  int64
	groups []*link
	ops    int64 // rectangle updates applied: what the planes' width follows
	est    core.Estimator
	// intoScratch counts the publishes into a donated buffer by strategy:
	// what the scripts' data reach.
	intoScratch strategies
}

// strategies counts BuildFrom's publishes by strategy.
type strategies struct{ repaired, rebuilt int }

// link is one plane of the chain: the live store's arena in miniature.
type link struct {
	b       *euler.Builder
	h       *euler.Histogram // the published generation
	p       *euler.Pyramid
	retired *euler.Pyramid // the generation before h, free to donate its buffers
	stale   euler.DirtyRegion
}

func chainConfig(limit int64, sw sweep, seed int64) config {
	return config{name: fmt.Sprintf("BuildFrom chain (%v)", sw), limit: limit, open: func(sc *scenario) (interpreter, error) {
		c := &chain{reader: reader{sw, gen.Rand(seed)}, spec: sc.spec, g: sc.Grid, limit: limit}
		for i := 0; i < sc.spec.Groups(); i++ {
			c.groups = append(c.groups, &link{b: euler.NewBuilder(sc.Grid)})
		}
		for _, r := range sc.Seed {
			c.update(r, true)
		}
		return c, c.Publish()
	}}
}

func (c *chain) Apply(m gen.Mutation) (bool, error) {
	old, removes := m.Removed()
	removed := removes && c.update(old, false)
	added := m.Op != gen.OpDelete && c.update(m.R, true)
	return removed || added, nil
}

func (c *chain) update(r geom.Rect, add bool) bool {
	gi, ok := c.spec.Group(c.g, r)
	if !ok {
		return false
	}
	for _, l := range c.groups[gi:] {
		if add {
			ok = l.b.Add(r)
		} else {
			ok = l.b.Remove(r)
		}
	}
	if ok {
		c.ops++
	}
	return ok
}

func (c *chain) Publish() (err error) {
	if slices.ContainsFunc(c.groups, func(l *link) bool { return l.b.CellWidth() == 8 }) {
		for _, l := range c.groups {
			l.b.Widen()
		}
	}
	pyrs := make([]*euler.Pyramid, len(c.groups))
	for i, l := range c.groups {
		if err := l.publish(c.r, c.limit >= 0 && c.ops > c.limit, &c.intoScratch); err != nil {
			return fmt.Errorf("plane %d after %d updates under limit %d: %w", i, c.ops, c.limit, err)
		}
		pyrs[i] = l.p
	}
	c.est, err = c.spec.FromPyramids(pyrs)
	return err
}

func (l *link) publish(r *rand.Rand, wide bool, intoScratch *strategies) error {
	var opts euler.BuildFromOpts
	donor, inPlace := l.p, false
	if l.retired != nil && r.Intn(3) > 0 {
		opts.Scratch, opts.Stale = l.retired.Base(), l.stale
		donor, inPlace = l.retired, true
	}
	moved := l.b.Dirty()
	next, stats := l.b.BuildFrom(l.h, opts)
	if next != l.h {
		if inPlace {
			l.retired = nil // donated arrays are consumed
			if stats.Incremental {
				intoScratch.repaired++
			} else {
				intoScratch.rebuilt++
			}
		}
		np := euler.PyramidFrom(next, euler.PyramidFromOpts{Opts: popts, Donor: donor, Stale: stats.Dirty, InPlace: inPlace})
		switch {
		case l.p == nil:
		case l.retired == nil:
			l.retired, l.stale = l.p, moved
		default:
			l.stale = l.stale.Union(moved)
		}
		l.h, l.p = next, np
	}
	if l.h.CellWidth() == 8 != wide {
		return fmt.Errorf("%d-byte cells", l.h.CellWidth())
	}
	for k := 1; k < l.p.Levels(); k++ {
		if w := l.p.Level(k).CellWidth(); w != l.h.CellWidth() {
			return fmt.Errorf("level %d has %d-byte cells over a base of %d", k, w, l.h.CellWidth())
		}
	}
	return nil
}

func (c *chain) Observe(p gen.Probe) string { return c.observe(c.est, p) }

func (c *chain) Close() error { return nil }
