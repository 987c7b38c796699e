package check

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
	"spatialhist/internal/shard"
	"spatialhist/internal/telemetry"
)

// TestAllChecksClean is the harness's own short soak: every oracle,
// transcript check, metamorphic property and failpoint check must come
// back clean on the canonical seed. cmd/checker runs the same suites for a
// time budget.
func TestAllChecksClean(t *testing.T) {
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for _, c := range All() {
		c := c
		t.Run(string(c.Kind)+"/"+c.Name, func(t *testing.T) {
			if d := Run(c, 2002, rounds); d != nil {
				t.Fatalf("divergence:\n%s", d)
			}
		})
	}
}

func TestNamed(t *testing.T) {
	for _, c := range All() {
		got, ok := Named(c.Name)
		if !ok || got.Name != c.Name {
			t.Fatalf("Named(%q) = %q, %v", c.Name, got.Name, ok)
		}
		if c.Doc == "" {
			t.Fatalf("check %q has no doc line", c.Name)
		}
	}
	if _, ok := Named("no-such-check"); ok {
		t.Fatal("Named accepted an unknown name")
	}
}

// TestDeadLeaderIsReadRemotely: the follower interpreter's dead leader is
// read through Handle, so its downed read path fails over to the follower;
// summed in place as an in-process shard, it would serve every read itself.
func TestDeadLeaderIsReadRemotely(t *testing.T) {
	if _, ok := shard.Handle(deadLeader{}).(shard.InProcess); ok {
		t.Fatal("deadLeader takes the coordinator's in-process path")
	}
}

// TestChainReachesBothStrategies: nothing forces BuildFrom's hand, so the
// chain interpreter must reach both of its strategies through the scripts'
// own data — a repair into a donated scratch and a full rebuild into one —
// within the first rounds of the canonical seed.
func TestChainReachesBothStrategies(t *testing.T) {
	var seen strategies
	const rounds = 10
	for i := 0; i < rounds; i++ {
		r := gen.Rand(RoundSeed(2002, i))
		sc := newScenario(r)
		c := chainConfig(-1, perTile, r.Int63())
		var ch *chain
		open := c.open
		c.open = func(sc *scenario) (interpreter, error) {
			it, err := open(sc)
			ch, _ = it.(*chain)
			return it, err
		}
		transcript(sc, c)
		seen.repaired += ch.intoScratch.repaired
		seen.rebuilt += ch.intoScratch.rebuilt
	}
	t.Logf("into a donated scratch over %d rounds: %d repairs, %d full rebuilds", rounds, seen.repaired, seen.rebuilt)
	if seen.repaired == 0 || seen.rebuilt == 0 {
		t.Fatalf("the chain missed a strategy: %d repairs, %d full rebuilds into a donated scratch", seen.repaired, seen.rebuilt)
	}
}

func TestRoundSeedsDiffer(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		s := RoundSeed(2002, i)
		if seen[s] {
			t.Fatalf("round %d reuses seed %d", i, s)
		}
		seen[s] = true
	}
	if RoundSeed(2002, 5) != RoundSeed(2002, 5) {
		t.Fatal("RoundSeed is not deterministic")
	}
}

func TestShrinkSlice(t *testing.T) {
	items := []int{9, 3, 1, 4, 7, 2, 8, 5, 6, 0}
	// The failure needs both 3 and 7; everything else is noise.
	pred := func(s []int) bool {
		has := map[int]bool{}
		for _, v := range s {
			has[v] = true
		}
		return has[3] && has[7]
	}
	got := shrinkSlice(items, 1000, pred)
	if len(got) != 2 || !pred(got) {
		t.Fatalf("shrinkSlice kept %v, want exactly {3, 7}", got)
	}
}

func TestShrinkSliceRespectsBudget(t *testing.T) {
	evals := 0
	shrinkSlice(make([]int, 64), 10, func(s []int) bool {
		evals++
		return len(s) > 0
	})
	if evals > 10 {
		t.Fatalf("shrinkSlice ran %d evaluations, budget was 10", evals)
	}
}

func TestShrinkSpan(t *testing.T) {
	q := grid.Span{I1: 0, J1: 0, I2: 15, J2: 15}
	// The failure needs only cell (4, 5).
	got := shrinkSpan(q, func(s grid.Span) bool {
		return s.I1 <= 4 && 4 <= s.I2 && s.J1 <= 5 && 5 <= s.J2
	})
	want := grid.Span{I1: 4, J1: 5, I2: 4, J2: 5}
	if got != want {
		t.Fatalf("shrinkSpan = %v, want %v", got, want)
	}
}

// TestMinimizeProducesMinimalCounterexample drives minimize with a synthetic
// defect — the comparison "fails" whenever a designated rect is present and
// the query touches cell (2, 2) — and expects the report to name exactly
// that rect and that cell.
func TestMinimizeProducesMinimalCounterexample(t *testing.T) {
	g := grid.NewUnit(8, 8)
	culprit := geom.NewRect(2.2, 2.2, 2.8, 2.8)
	rects := []geom.Rect{
		geom.NewRect(0, 0, 1, 1),
		culprit,
		geom.NewRect(5, 5, 7, 7),
		geom.NewRect(1, 6, 3, 7),
	}
	diverges := func(rs []geom.Rect, q grid.Span) (string, string, bool) {
		for _, r := range rs {
			if r == culprit && q.I1 <= 2 && 2 <= q.I2 && q.J1 <= 2 && 2 <= q.J2 {
				return "broken", "fine", true
			}
		}
		return "", "", false
	}
	d := minimize("synthetic", "injected defect", 42, g, rects, grid.Span{I2: 7, J2: 7}, diverges)
	if len(d.Rects) != 1 || d.Rects[0] != culprit {
		t.Fatalf("minimized rects = %v, want just the culprit", d.Rects)
	}
	if want := (grid.Span{I1: 2, J1: 2, I2: 2, J2: 2}); *d.Query != want {
		t.Fatalf("minimized query = %v, want %v", *d.Query, want)
	}
	if d.Seed != 42 || d.Got != "broken" || d.Want != "fine" {
		t.Fatalf("divergence fields not propagated: %+v", d)
	}
	s := d.String()
	for _, frag := range []string{"synthetic", "seed 42", "injected defect", "broken", "fine"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() missing %q:\n%s", frag, s)
		}
	}
}

// TestWALRecordBytes holds walRecordBytes to internal/live's journal
// format: each mutation grows a SyncEvery 1 journal by exactly that much.
func TestWALRecordBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	st, err := live.Open(live.Config{Grid: grid.NewUnit(8, 8), Algo: live.AlgoSEuler,
		WALPath: path, SyncEvery: 1, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a, b := geom.NewRect(1, 1, 3, 3), geom.NewRect(2, 2, 5, 4)
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	for _, m := range []gen.Mutation{{Op: gen.OpInsert, R: a}, {Op: gen.OpUpdate, Old: a, R: b}, {Op: gen.OpDelete, R: b}} {
		before := size()
		if ok, err := applyMut(st, m); !ok || err != nil {
			t.Fatalf("%v: applied %v, %v", m.Op, ok, err)
		}
		if grew := size() - before; grew != walRecordBytes(m) {
			t.Fatalf("%v grew the journal by %d bytes; walRecordBytes says %d", m.Op, grew, walRecordBytes(m))
		}
	}
}

// faulty breaks an interpreter in one place: it swallows its k-th Apply,
// reporting it applied, or alters the k-th probe it answers.
type faulty struct {
	interpreter
	swallow bool
	k, n    int
}

func (f *faulty) Apply(m gen.Mutation) (bool, error) {
	if f.swallow {
		if f.n++; f.n == f.k {
			return true, nil
		}
	}
	return f.interpreter.Apply(m)
}

func (f *faulty) Observe(p gen.Probe) string {
	v := f.interpreter.Observe(p)
	if !f.swallow && v != "" {
		if f.n++; f.n == f.k {
			v += " (altered)"
		}
	}
	return v
}

func (f *faulty) Checkpoint() error {
	if rs, ok := f.interpreter.(restarter); ok {
		return rs.Checkpoint()
	}
	return nil
}

func (f *faulty) Restart() error {
	if rs, ok := f.interpreter.(restarter); ok {
		return rs.Restart()
	}
	return nil
}

// TestTranscriptsAreNotVacuous breaks every interpreter in one place and
// expects its pair with the reference to diverge, the report to name both
// interpreters and the first entry they differ at, and the shrunk script to
// reproduce the divergence alone.
func TestTranscriptsAreNotVacuous(t *testing.T) {
	sc := newScenario(gen.Rand(11))
	for i, c := range []config{
		freshConfig(banded, 1),
		chainConfig(20, oneSweep, 2),
		storeConfig(storeOpts{rebuildEvery: 7}, -1, oneSweep, 3),
		storeConfig(storeOpts{wal: true, ckpt: true, syncEvery: 1}, 30, perTile, 4),
		storeConfig(storeOpts{shards: 2}, -1, oneSweep, 5),
		storeConfig(storeOpts{follower: true}, -1, banded, 6),
		registryConfig(-1, perTile, 7),
	} {
		swallow := i%2 == 0
		open := c.open
		c.open = func(sc *scenario) (interpreter, error) {
			it, err := open(sc)
			return &faulty{interpreter: it, swallow: swallow, k: 4}, err
		}
		_, want, got := diverge(sc, c)
		d := shrinkScript("faulty", 11, sc, c, want, got)
		small := sc.with(d.Steps)
		at, _, _ := diverge(small, c)
		switch {
		case !strings.Contains(d.Detail, c.name) || !strings.Contains(d.Detail, reference.name):
			t.Errorf("%s: the report does not name both interpreters: %s", c.name, d.Detail)
		case at < 0:
			t.Errorf("%s: the shrunk script of %d steps does not diverge alone:\n%s", c.name, len(d.Steps), d)
		case !strings.HasSuffix(d.Detail, small.what(at)) || d.Got == d.Want:
			t.Errorf("%s: the report does not name the first differing entry, %s:\n%s", c.name, small.what(at), d)
		case len(d.Steps) >= len(sc.Steps):
			t.Errorf("%s: the script did not shrink below %d steps", c.name, len(sc.Steps))
		}
	}
}
