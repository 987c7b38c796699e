package telemetry

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentIncrements hammers one counter, one gauge and one
// histogram from many goroutines (run under -race) and checks nothing is
// lost.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Get-or-create on every iteration: the registry lookup
				// itself must be race-free.
				r.Counter("c_total", "", "w", "shared").Inc()
				r.Gauge("g", "").Add(1)
				r.Histogram("h_seconds", "", []float64{0.5}).Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "", "w", "shared").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g", "").Value(); got != workers*per {
		t.Errorf("gauge = %d, want %d", got, workers*per)
	}
	snap := r.Histogram("h_seconds", "", nil).Snapshot()
	if snap.Count != workers*per {
		t.Errorf("histogram count = %d, want %d", snap.Count, workers*per)
	}
	wantSum := 0.25 * workers * per
	if snap.Sum != wantSum {
		t.Errorf("histogram sum = %v, want %v", snap.Sum, wantSum)
	}
}

// TestHistogramBucketBoundaries checks that bucket upper bounds are
// inclusive and overflow lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{0.5, 2})
	for _, v := range []float64{0.25, 0.5, 0.500001, 2, 100} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	want := []uint64{2, 2, 1} // (-inf,0.5], (0.5,2], (2,+inf)
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != 5 {
		t.Errorf("count = %d, want 5", snap.Count)
	}
}

// TestWritePrometheusGolden locks down the exposition format.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	// Creation order differs from output order (families sort by name),
	// and label order at the call site differs from canonical order.
	r.Gauge("b_gauge", "A gauge.").Set(-3)
	r.Counter("a_requests_total", "Requests.", "endpoint", "/api/browse", "code", "200").Add(7)
	r.Counter("a_requests_total", "Requests.", "code", "400", "endpoint", "/api/browse").Inc()
	h := r.Histogram("c_seconds", "Latency.", []float64{0.5, 2})
	for _, v := range []float64{0.25, 0.5, 4} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_requests_total Requests.
# TYPE a_requests_total counter
a_requests_total{code="200",endpoint="/api/browse"} 7
a_requests_total{code="400",endpoint="/api/browse"} 1
# HELP b_gauge A gauge.
# TYPE b_gauge gauge
b_gauge -3
# HELP c_seconds Latency.
# TYPE c_seconds histogram
c_seconds_bucket{le="0.5"} 2
c_seconds_bucket{le="2"} 2
c_seconds_bucket{le="+Inf"} 3
c_seconds_sum 4.75
c_seconds_count 3
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelOrderDoesNotSplitSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", "a", "1", "b", "2").Inc()
	r.Counter("x", "", "b", "2", "a", "1").Inc()
	if got := r.Counter("x", "", "a", "1", "b", "2").Value(); got != 2 {
		t.Errorf("value = %d, want 2 (label order split the series)", got)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "").Add(5)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 5") {
		t.Errorf("body missing counter:\n%s", rec.Body.String())
	}
}

func TestSnapshotSubAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{0.1, 0.2, 0.4, 0.8})
	prev := h.Snapshot()
	for i := 0; i < 90; i++ {
		h.Observe(0.15) // (0.1, 0.2]
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.6) // (0.4, 0.8]
	}
	delta := h.Snapshot().Sub(prev)
	if delta.Count != 100 {
		t.Fatalf("delta count = %d, want 100", delta.Count)
	}
	if p50 := delta.Quantile(0.50); p50 <= 0.1 || p50 > 0.2 {
		t.Errorf("p50 = %v, want in (0.1, 0.2]", p50)
	}
	if p99 := delta.Quantile(0.99); p99 <= 0.4 || p99 > 0.8 {
		t.Errorf("p99 = %v, want in (0.4, 0.8]", p99)
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

func TestFamilySnapshotMergesLabelVariants(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat", "", []float64{1}, "endpoint", "/a").Observe(0.5)
	r.Histogram("lat", "", []float64{1}, "endpoint", "/b").Observe(2)
	r.Histogram("other", "", []float64{1}).Observe(0.5)
	snap := r.FamilySnapshot("lat")
	if snap.Count != 2 || snap.Sum != 2.5 {
		t.Errorf("merged = count %d sum %v, want 2 / 2.5", snap.Count, snap.Sum)
	}
	if empty := r.FamilySnapshot("missing"); empty.Count != 0 || empty.Buckets != nil {
		t.Errorf("missing family = %+v, want zero", empty)
	}
}

func TestLoggerGolden(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	l.now = func() time.Time { return time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC) }
	l.Log("request", "endpoint", "/api/browse", "code", 200, "dangling")
	want := `{"ts":"2026-08-06T12:00:00Z","event":"request","endpoint":"/api/browse","code":200,"dangling":null}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("log line:\ngot  %q\nwant %q", got, want)
	}
}

func TestLoggerConcurrentLinesDoNotInterleave(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Log("e", "k", "vvvvvvvvvvvvvvvv")
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("%d lines, want 400", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, `{"ts":`) || !strings.HasSuffix(line, "}") {
			t.Fatalf("interleaved line %q", line)
		}
	}
}

func TestCounterPanicsOnNegativeAdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Add must panic")
		}
	}()
	NewRegistry().Counter("c", "").Add(-1)
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("gauge lookup of a counter name must panic")
		}
	}()
	r.Gauge("m", "")
}

func TestCounterValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "", "level", "0").Add(7)
	r.Counter("hits_total", "", "level", "1").Add(3)
	r.Counter("hits_total", "")
	r.Counter("other_total", "").Inc()
	r.Gauge("hits_gauge", "") // different family, different type
	got := r.CounterValues("hits_total")
	want := map[string]int64{`{level="0"}`: 7, `{level="1"}`: 3, "": 0}
	if len(got) != len(want) {
		t.Fatalf("CounterValues = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("CounterValues[%q] = %d, want %d", k, got[k], v)
		}
	}
}

// TestLabelValuesAreEscaped: a label value's backslashes, double quotes
// and newlines are escaped in the exposition, and nothing else is.
func TestLabelValuesAreEscaped(t *testing.T) {
	for _, tc := range []struct{ name, value, want string }{
		{"plain", "/api/browse", `/api/browse`},
		{"backslash", `C:\data`, `C:\\data`},
		{"quote", `say "hi"`, `say \"hi\"`},
		{"newline", "two\nlines", `two\nlines`},
		{"all-three", "a\\\"\n", `a\\\"\n`},
		{"non-ascii", "zürich\tτ", "zürich\tτ"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			r.Counter("hits_total", "", "path", tc.value).Inc()
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			if line := `hits_total{path="` + tc.want + `"} 1` + "\n"; !strings.Contains(buf.String(), line) {
				t.Errorf("exposition lacks %q:\n%s", line, buf.String())
			}
		})
	}
}

func TestGaugeIncDec(t *testing.T) {
	g := NewRegistry().Gauge("workers", "")
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != -2 {
		t.Errorf("gauge = %d after +1 +1 -1 -3, want -2", got)
	}
}

// TestObserveDurationRecordsSeconds: durations land in the seconds
// buckets and the sum.
func TestObserveDurationRecordsSeconds(t *testing.T) {
	h := NewRegistry().Histogram("op_seconds", "", []float64{0.001, 1})
	h.ObserveDuration(500 * time.Microsecond)
	h.ObserveDuration(250 * time.Millisecond)
	h.ObserveDuration(2 * time.Second)
	s := h.Snapshot()
	if want := []uint64{1, 1, 1}; s.Count != 3 || len(s.Counts) != 3 || s.Counts[0] != want[0] || s.Counts[1] != want[1] || s.Counts[2] != want[2] {
		t.Errorf("snapshot %+v, want counts %v", s, want)
	}
	if s.Sum < 2.25049 || s.Sum > 2.25051 {
		t.Errorf("sum = %v s, want 2.2505", s.Sum)
	}
}

func TestOddLabelListPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a label key without a value must panic")
		}
	}()
	NewRegistry().Counter("c", "", "endpoint")
}

// TestFamilySnapshotSkipsOtherLayouts: a family whose histograms disagree
// on their buckets is merged only over the ones sharing the first layout
// seen, so counts are never added across different bucket bounds.
func TestFamilySnapshotSkipsOtherLayouts(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat_seconds", "", []float64{1, 2}, "ep", "a").Observe(0.5)
	r.Histogram("lat_seconds", "", []float64{1, 2}, "ep", "b").Observe(1.5)
	odd := r.Histogram("lat_seconds", "", []float64{1, 2, 3}, "ep", "c")
	for range 4 {
		odd.Observe(2.5)
	}
	s := r.FamilySnapshot("lat_seconds")
	switch len(s.Buckets) {
	case 2:
		if s.Count != 2 || s.Counts[0] != 1 || s.Counts[1] != 1 || s.Sum != 2 {
			t.Errorf("merged two-bound layout %+v, want the two ep=a/ep=b observations", s)
		}
	case 3:
		if s.Count != 4 || s.Counts[2] != 4 || s.Sum != 10 {
			t.Errorf("three-bound layout %+v, want ep=c's four observations alone", s)
		}
	default:
		t.Errorf("FamilySnapshot buckets %v, want one of the two layouts", s.Buckets)
	}
	if len(s.Counts) != len(s.Buckets)+1 {
		t.Errorf("%d counts for %d bounds", len(s.Counts), len(s.Buckets))
	}
}
