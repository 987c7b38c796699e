package gen

import (
	"fmt"
	"math/rand"
	"slices"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// Script is one seeded life of a mutable histogram store, written once and
// carried out by every interpreter of internal/check: seed objects, then
// steps — single mutations, publishes, checkpoints, restarts and probes.
// Every interpreter must see the same things at the probes.
type Script struct {
	Grid  *grid.Grid
	Seed  []geom.Rect
	Steps []Step
}

// StepKind names what one step does.
type StepKind uint8

// The steps of a script.
const (
	StepMutate     StepKind = iota // apply Mut
	StepPublish                    // make every mutation so far visible
	StepCheckpoint                 // write a checkpoint, where there is one to write
	StepRestart                    // close and reopen, where there is something to reopen
	StepProbe                      // observe Probe
)

// Step is one step of a script.
type Step struct {
	Kind  StepKind
	Mut   Mutation
	Probe Probe
}

// ProbeKind names what a probe looks at.
type ProbeKind uint8

// The probes of a script: the first two ask the estimator, the rest ask
// the histograms it serves from.
const (
	ProbeEstimates ProbeKind = iota // Estimate at every span of Spans
	ProbeMap                        // the Cols×Rows tile map of Region
	ProbeBuckets                    // every bucket of the published histograms, and their sums at Spans
	ProbePyramid                    // the same for every coarse pyramid level
	ProbeFile                       // the published histograms written, read back and resumed
	ProbeJoin                       // the published histograms joined with each other and with Polys rasterized
)

var probeNames = [...]string{"estimates", "map", "buckets", "pyramid levels", "file round trips", "joins"}

// Probe is one observation.
type Probe struct {
	Kind       ProbeKind
	Spans      []grid.Span
	Region     grid.Span
	Cols, Rows int
	Polys      []geom.Polygon
}

// String names the probe.
func (p Probe) String() string {
	if p.Kind == ProbeMap {
		return fmt.Sprintf("%dx%d map of %v", p.Cols, p.Rows, p.Region)
	}
	return probeNames[p.Kind]
}

// String renders the step.
func (s Step) String() string {
	switch s.Kind {
	case StepMutate:
		if s.Mut.Op == OpUpdate {
			return fmt.Sprintf("update %v -> %v", s.Mut.Old, s.Mut.R)
		}
		return fmt.Sprintf("%v %v", s.Mut.Op, s.Mut.R)
	case StepProbe:
		return "probe " + s.Probe.String()
	}
	return [...]string{StepPublish: "publish", StepCheckpoint: "checkpoint", StepRestart: "restart"}[s.Kind]
}

// NewScript draws a script over g: a few seed objects, then three to five
// rounds of a mutation batch — scattered, or localized in one window — a
// publish, and probes of the estimator and,
// by turns, of its histograms' buckets or pyramid levels — one checkpoint
// mid-batch, one restart at or after it with a round still to come, and
// more restarts now and then — and last, after deleting every object one
// time in four, file round trips and joins.
func NewScript(r *rand.Rand, g *grid.Grid) *Script {
	s := &Script{Grid: g, Seed: Rects(r, g, 5+r.Intn(20), RectOpts{})}
	live := slices.Clone(s.Seed)
	full := grid.Span{I2: g.NX() - 1, J2: g.NY() - 1}
	spans := make([]grid.Span, 6, 7)
	for i := range spans {
		spans[i] = Span(r, g)
	}
	spans = append(spans, full)
	add := func(st Step) {
		s.Steps = append(s.Steps, st)
		if st.Kind == StepMutate {
			live = Apply(live, st.Mut)
		}
	}
	// One script in two is localized: every mutation after the seed lands
	// in a window a quarter of the grid a side and takes away only objects
	// placed there, so its publishes repair a small box. The others scatter
	// objects up to 80 % of the space a side, and their publishes rebuild.
	var window *grid.Grid
	var placed []geom.Rect
	if r.Intn(2) == 0 {
		window = windowOf(r, g)
	}
	batch := func(n int) {
		if window == nil {
			for _, m := range Mutations(r, g, live, n, RectOpts{PointFrac: 0.1}) {
				add(Step{Kind: StepMutate, Mut: m})
			}
			return
		}
		for _, m := range Mutations(r, window, placed, n, RectOpts{Inside: true, PointFrac: 0.1}) {
			add(Step{Kind: StepMutate, Mut: m})
			placed = Apply(placed, m)
		}
	}

	rounds := 3 + r.Intn(3)
	ckptAt := r.Intn(rounds - 1)
	restartAt := ckptAt + r.Intn(rounds-1-ckptAt)
	for round := 0; round < rounds; round++ {
		n := 1 + r.Intn(30)
		if round == 0 {
			n = 20 + r.Intn(80)
		}
		batch(n)
		if round == ckptAt {
			add(Step{Kind: StepCheckpoint})
			batch(1 + r.Intn(10))
		}
		add(Step{Kind: StepPublish})
		p := Probe{Kind: ProbeMap, Region: full, Cols: g.NX(), Rows: g.NY()}
		switch r.Intn(4) {
		case 0, 1:
			p.Region, p.Cols, p.Rows = Tiling(r, g)
		case 2:
			p.Cols, p.Rows = Divisor(r, g.NX()), Divisor(r, g.NY())
		}
		add(Step{Kind: StepProbe, Probe: Probe{Kind: ProbeEstimates, Spans: spans}})
		add(Step{Kind: StepProbe, Probe: p})
		add(Step{Kind: StepProbe, Probe: Probe{Kind: ProbeBuckets + ProbeKind(round%2), Spans: spans}})
		if round == restartAt || r.Intn(5) == 0 {
			add(Step{Kind: StepRestart})
		}
	}
	if r.Intn(4) == 0 {
		for len(live) > 0 {
			add(Step{Kind: StepMutate, Mut: Mutation{Op: OpDelete, R: live[r.Intn(len(live))]}})
		}
		add(Step{Kind: StepProbe, Probe: Probe{Kind: ProbeEstimates, Spans: spans}})
		add(Step{Kind: StepProbe, Probe: Probe{Kind: ProbeBuckets, Spans: spans}})
	}
	add(Step{Kind: StepProbe, Probe: Probe{Kind: ProbeFile, Spans: spans}})
	add(Step{Kind: StepProbe, Probe: Probe{Kind: ProbeJoin, Polys: Polygons(r, g, 1+r.Intn(3), PolyOpts{Aligned: 0.2})}})
	return s
}

// windowOf draws a grid over a block of g's cells a quarter of g a side (at
// least one cell), at a random offset: its objects are g's objects, placed
// in that block.
func windowOf(r *rand.Rand, g *grid.Grid) *grid.Grid {
	wx, wy := max(g.NX()/4, 1), max(g.NY()/4, 1)
	i0, j0 := r.Intn(g.NX()-wx+1), r.Intn(g.NY()-wy+1)
	ext, cw, ch := g.Extent(), g.CellWidth(), g.CellHeight()
	x0, y0 := ext.XMin+float64(i0)*cw, ext.YMin+float64(j0)*ch
	return grid.New(geom.NewRect(x0, y0, x0+float64(wx)*cw, y0+float64(wy)*ch), wx, wy)
}

// Divisor draws a tile count that divides n.
func Divisor(r *rand.Rand, n int) int {
	divs := []int{1}
	for d := 2; d <= n; d++ {
		if n%d == 0 {
			divs = append(divs, d)
		}
	}
	return divs[r.Intn(len(divs))]
}

// With returns s with steps in place of its own, less every mutation that
// deletes or replaces an object not live at its step — what dropping
// earlier steps leaves behind while a divergence is shrunk — so that the
// result is still a script a store can be fed.
func (s *Script) With(steps []Step) *Script {
	out := &Script{Grid: s.Grid, Seed: s.Seed}
	live := slices.Clone(s.Seed)
	for _, st := range steps {
		if st.Kind == StepMutate {
			if old, ok := st.Mut.Removed(); ok && !slices.Contains(live, old) {
				continue
			}
			live = Apply(live, st.Mut)
		}
		out.Steps = append(out.Steps, st)
	}
	return out
}
