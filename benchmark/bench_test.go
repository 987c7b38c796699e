package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/query"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"empty", nil, 50, 0},
		{"single", []float64{7}, 99, 7},
		{"p50 of ten is the 5th", ten, 50, 5},
		{"p95 of ten is the 10th", ten, 95, 10},
		{"p90 of ten is the 9th", ten, 90, 9},
		{"p91 of ten rounds up to the 10th", ten, 91, 10},
		{"p100 is the maximum", ten, 100, 10},
		{"tiny p is the minimum", ten, 0.001, 1},
		{"p50 of three is the 2nd", []float64{1, 5, 9}, 50, 5},
		{"never interpolates", []float64{1, 100}, 50, 1},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: percentile(%v, %g) = %g, want %g", c.name, c.sorted, c.p, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{3, 3, 3}, 3, 3, 3},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.vals)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.vals, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{name: "latency", better: "lower", bound: 0.10}
	higher := metricSpec{name: "rate", better: "higher", bound: 0.10}
	exactly := metricSpec{name: "error", better: "lower", bound: 0}
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v * 1.002} }
	noisy := func(v float64) []float64 { return []float64{v * 0.8, v * 1.2, v, v * 0.85, v * 1.15} }
	cases := []struct {
		name string
		a, b []float64
		m    metricSpec
		want verdict
	}{
		{"same", steady(10), steady(10), lower, verdictOK},
		{"lower is better and B is 5 % higher: inside the bound", steady(10), steady(10.5), lower, verdictOK},
		{"lower is better and B is 20 % higher", steady(10), steady(12), lower, verdictWorse},
		{"lower is better and B is 20 % lower", steady(10), steady(8), lower, verdictOK},
		{"higher is better and B is 20 % lower", steady(10), steady(8), higher, verdictWorse},
		{"higher is better and B is 20 % higher", steady(10), steady(12), higher, verdictOK},
		{"spread wider than the bound on A", noisy(10), steady(10), lower, verdictUnresolved},
		{"spread wider than the bound on B", steady(10), noisy(10), lower, verdictUnresolved},
		{"worse wins over unresolved", steady(10), noisy(20), lower, verdictWorse},
		{"deterministic and equal under a zero bound", []float64{3, 3, 3}, []float64{3, 3, 3}, exactly, verdictOK},
		{"deterministic and larger under a zero bound", []float64{3, 3, 3}, []float64{3.01, 3.01, 3.01}, exactly, verdictWorse},
	}
	for _, c := range cases {
		if got, _, _, _, _ := judge(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	mk := func(p50 float64) *report {
		r := &report{NProc: 2, Seconds: 20}
		for i := 0; i < 5; i++ {
			r.Runs = append(r.Runs, &runResult{Workload: "cold-maps",
				Metrics: map[string]metric{"browse_p50_ms": {p50 * (1 + float64(i)/1000), "ms"}}})
		}
		return r
	}
	var out bytes.Buffer
	if code := compareReports(mk(6), mk(6.1), &out); code != 0 {
		t.Errorf("a 2 %% slower B exits %d, want 0:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(mk(6), mk(9), &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 50 %% slower B exits %d, want 1 and a worse row:\n%s", code, out.String())
	}
}

// streams returns fresh copies of every request stream of the HTTP
// workloads, by workload name, on the grid each uses at full size.
func streams(seed int64) map[string][]generator {
	small, big := grid.NewUnit(360, 180), grid.NewUnit(1440, 720)
	s := fullSize
	return map[string][]generator{
		"session-mix":   {newSessionGen(seed, 0, small), newSessionGen(seed, 1, small)},
		"cold-maps":     {newRegionGen(seed, 0, big, s.coldMin, s.coldMax), newRegionGen(seed, 1, big, s.coldMin, s.coldMax)},
		"ingest-browse": {newSessionGen(seed, 0, small), newIngestGen(seed, small)},
		"shard-fanout":  {newRegionGen(seed, 0, small, s.fanMin, s.fanMax), newRegionGen(seed, 1, small, s.fanMin, s.fanMax)},
	}
}

func TestTraceHashIsAFunctionOfTheSeed(t *testing.T) {
	a, again, other := streams(2002), streams(2002), streams(7)
	for name := range a {
		ha, hagain, hother := traceHash(a[name], 300), traceHash(again[name], 300), traceHash(other[name], 300)
		if ha != hagain {
			t.Errorf("%s: seed 2002 hashed %016x then %016x", name, ha, hagain)
		}
		if ha == hother {
			t.Errorf("%s: seeds 2002 and 7 both hashed %016x", name, ha)
		}
	}
}

func TestGeneratedRequestsAreAcceptedByTheServerRules(t *testing.T) {
	for _, seed := range []int64{2002, 7, 1} {
		for name, gens := range streams(seed) {
			nx, ny := 360, 180
			if name == "cold-maps" {
				nx, ny = 1440, 720
			}
			for w, g := range gens {
				distinct := map[string]bool{}
				maps, aligned := 0, 0
				for k := 0; k < 2000; k++ {
					r := g.next()
					if r.kind == kindIngest || r.kind == kindDelete {
						continue
					}
					s := r.span
					if !s.Valid() || s.I1 < 0 || s.J1 < 0 || s.I2 >= nx || s.J2 >= ny {
						t.Fatalf("%s conn %d request %d: span %v outside the %dx%d grid", name, w, k, s, nx, ny)
					}
					if r.kind != kindBrowse {
						continue
					}
					tw, th, err := query.Tiling(s, r.cols, r.rows)
					if err != nil {
						t.Fatalf("%s conn %d request %d: %v", name, w, k, err)
					}
					if r.cols*r.rows > 100_000 {
						t.Fatalf("%s conn %d request %d: %d tiles exceed the server's limit", name, w, k, r.cols*r.rows)
					}
					maps++
					distinct[r.path] = true
					if tw%2 == 0 && th%2 == 0 && s.I1%2 == 0 && s.J1%2 == 0 {
						aligned++
					}
				}
				if _, ok := g.(*regionGen); ok {
					if len(distinct) < maps*99/100 {
						t.Errorf("%s conn %d: only %d of %d maps are distinct", name, w, len(distinct), maps)
					}
					if aligned < maps*4/10 || aligned > maps*6/10 {
						t.Errorf("%s conn %d: %d of %d maps are pyramid-aligned, want about half", name, w, aligned, maps)
					}
				}
			}
		}
	}
}

func TestRegionGenTileCounts(t *testing.T) {
	s := fullSize
	g := newRegionGen(2002, 0, grid.NewUnit(1440, 720), s.coldMin, s.coldMax)
	for k := 0; k < 1000; k++ {
		r := g.next()
		if r.kind == kindBrowse && (r.tiles() < s.coldMin || r.tiles() > s.coldMax) {
			t.Fatalf("request %d has %d tiles, want %d..%d", k, r.tiles(), s.coldMin, s.coldMax)
		}
	}
}

// The feed must only delete what is present, or the child would reject it
// and the final object count could not be predicted.
func TestIngestFeedDeletesOnlyWhatItInserted(t *testing.T) {
	g := grid.NewUnit(360, 180)
	feed := newIngestGen(2002, g)
	live := map[geom.Rect]int{}
	inserts, deletes, flushes := 0, 0, 0
	for k := 0; k < 1000; k++ {
		r := feed.next()
		if len(r.rects) != ingestBatch {
			t.Fatalf("batch %d has %d rects", k, len(r.rects))
		}
		if r.flush {
			flushes++
			if !strings.HasSuffix(r.path, "?flush=1") {
				t.Fatalf("batch %d flushes without saying so: %s", k, r.path)
			}
		}
		var body struct {
			Rects [][4]float64 `json:"rects"`
		}
		if err := json.Unmarshal(r.body, &body); err != nil || len(body.Rects) != len(r.rects) {
			t.Fatalf("batch %d body does not decode to its rects: %v", k, err)
		}
		for i, q := range r.rects {
			if w := body.Rects[i]; geom.NewRect(w[0], w[1], w[2], w[3]) != q {
				t.Fatalf("batch %d rect %d travels as %v, generated as %v", k, i, w, q)
			}
			if _, ok := g.Snap(q); !ok {
				t.Fatalf("batch %d rect %v lies outside the space", k, q)
			}
			if r.kind == kindIngest {
				live[q]++
				inserts++
			} else {
				if live[q] == 0 {
					t.Fatalf("batch %d deletes %v, which is not present", k, q)
				}
				live[q]--
				deletes++
			}
		}
	}
	if inserts != 4*deletes {
		t.Errorf("%d inserts and %d deletes, want 80 %% / 20 %%", inserts, deletes)
	}
	if flushes != 1000/ingestFlushEvery {
		t.Errorf("%d of 1000 batches flush, want every %dth", flushes, ingestFlushEvery)
	}
}

// manifest is BENCHMARK.json as the acceptance contract defines it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestManifestMatchesSpec(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if fmt.Sprint(m.Command) != "[bash benchmark/run.sh]" {
		t.Errorf("command = %v", m.Command)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the spec", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, spec {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the spec", len(m.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, e := range endToEnd {
		checkName(e.name)
		got := m.EndToEnd[i]
		if got.Name != e.name || got.Unit != e.unit || got.Better != e.better || got.Bound != e.bound {
			t.Errorf("end-to-end metric %d: manifest %+v, spec %+v", i, got, e)
		}
		if !unit.MatchString(e.unit) || e.bound < 0 || e.bound > 0.25 || (e.better != "lower" && e.better != "higher") {
			t.Errorf("end-to-end metric %+v breaks the contract", e)
		}
		setup = setup || (e.name == "setup_s" && e.unit == "s" && e.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the spec", len(m.PerLayer), len(perLayer))
	}
	for i, e := range perLayer {
		checkName(e.name)
		got := m.PerLayer[i]
		if got.Name != e.name || got.Unit != e.unit || got.Better != e.better {
			t.Errorf("per-layer metric %d: manifest %+v, spec %+v", i, got, e)
		}
		if !unit.MatchString(e.unit) || (e.better != "lower" && e.better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract", e)
		}
	}
}

// resultLine decodes the last line of a single-workload run.
func resultLine(t *testing.T, out string) (line struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]metric
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return line
}

// TestSmoke runs every workload once untraced and once traced at the smoke
// size: it checks the machinery and the contract's output, not speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts geobrowsed children")
	}
	for _, w := range workloads {
		for trace, owes := range [][]metricSpec{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-smoke", "-workload", w.name, "-seed", "7", "-trace", fmt.Sprint(trace),
				"-trace-out", filepath.Join(t.TempDir(), "trace.json")}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d exits %d:\n%s", w.name, trace, code, stderr.String())
			}
			line := resultLine(t, stdout.String())
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed", w.name, trace, line.Correct, line.Failed, line.Attempted)
			}
			if len(line.Metrics) != len(owes) {
				t.Errorf("%s trace %d reports %d metrics, owes %d", w.name, trace, len(line.Metrics), len(owes))
			}
			for _, m := range owes {
				got, ok := line.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s is missing", w.name, trace, m.name)
				case got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace %d: metric %s is %v %q", w.name, trace, m.name, got.Value, got.Unit)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, m.name, got.Value)
				}
			}
			// Layers a workload does not reach stay at 0; the one that
			// reaches them measures them.
			if trace == 1 {
				owners := map[string]string{"live.": "ingest-browse", "shard.": "shard-fanout"}
				for name, v := range line.Metrics {
					for prefix, owner := range owners {
						if strings.HasPrefix(name, prefix) && w.name != owner && v.Value != 0 {
							t.Errorf("%s reports %s = %v; only %s reaches that layer", w.name, name, v.Value, owner)
						}
					}
				}
				for _, name := range []string{"live.insert_ns", "live.flush_ms", "live.wal_bytes_per_mut", "shard.fanout_ratio"} {
					for prefix, owner := range owners {
						if strings.HasPrefix(name, prefix) && w.name == owner && line.Metrics[name].Value <= 0 {
							t.Errorf("%s reports %s = %v", w.name, name, line.Metrics[name].Value)
						}
					}
				}
			}
		}
	}
}

// A deliberately wrong expected answer must be counted as a failed
// operation and fail the command.
func TestWrongAnswerFailsTheCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("starts geobrowsed children")
	}
	corruptExpected = true
	defer func() { corruptExpected = false }()
	for _, name := range []string{"paper-queries", "session-mix"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-smoke", "-workload", name}, &stdout, &stderr)
		line := resultLine(t, stdout.String())
		if code == 0 || line.Correct || line.Failed == 0 {
			t.Errorf("%s with wrong expected answers: exit %d, correct %v, %d failed", name, code, line.Correct, line.Failed)
		}
	}
}
