package geobrowse

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

func smallServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	g := grid.NewUnit(36, 18)
	rects := []geom.Rect{
		geom.NewRect(1.25, 1.25, 3.5, 2.5),
		geom.NewRect(10.5, 5.5, 14.5, 8.5),
		geom.NewRect(20.25, 10.25, 21.75, 11.75),
	}
	s := New("small", StaticSource(core.NewEuler(euler.FromRects(g, rects))), opts)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// metricValue extracts one series value from a Prometheus exposition.
func metricValue(t *testing.T, body, series string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\d+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("series %q not found in exposition:\n%s", series, body)
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMetricsReflectBrowseRequest serves browse requests and asserts the
// /metrics endpoint reports them: request counters by endpoint and code,
// a latency histogram, response bytes, and cache traffic.
func TestMetricsReflectBrowseRequest(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := smallServer(t, Options{Telemetry: reg})
	browse := srv.URL + "/api/browse?x1=0&y1=0&x2=36&y2=18&cols=6&rows=3"

	code, browseBody := get(t, browse)
	if code != http.StatusOK {
		t.Fatalf("browse status %d: %s", code, browseBody)
	}
	_, body := get(t, srv.URL+"/metrics")

	if got := metricValue(t, body, `geobrowse_http_requests_total{code="200",endpoint="/api/browse"}`); got != 1 {
		t.Errorf("request counter = %d, want 1", got)
	}
	if got := metricValue(t, body, `geobrowse_http_request_seconds_count{endpoint="/api/browse"}`); got != 1 {
		t.Errorf("latency histogram count = %d, want 1", got)
	}
	if got := metricValue(t, body, `geobrowse_http_response_bytes_total{endpoint="/api/browse"}`); got <= 0 {
		t.Errorf("response bytes = %d, want > 0", got)
	}
	if got := metricValue(t, body, `geobrowse_cache_misses_total`); got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}
	if got := metricValue(t, body, `geobrowse_cache_hits_total`); got != 0 {
		t.Errorf("cache hits = %d, want 0", got)
	}
	if got := metricValue(t, body, `geobrowse_cache_entries`); got != 1 {
		t.Errorf("cache entries = %d, want 1", got)
	}
	if got := metricValue(t, body, `geobrowse_cache_bytes`); got != int64(len(browseBody)) {
		t.Errorf("cache bytes = %d, want the stored body's %d", got, len(browseBody))
	}
	if got := metricValue(t, body, `geobrowse_cache_bypass_total`); got != 0 {
		t.Errorf("cache bypasses = %d, want 0", got)
	}

	// A repeat of the same browse request is a cache hit, and a bad
	// request lands under its status code.
	get(t, browse)
	get(t, srv.URL+"/api/browse?x1=bogus")
	_, body = get(t, srv.URL+"/metrics")
	if got := metricValue(t, body, `geobrowse_cache_hits_total`); got != 1 {
		t.Errorf("cache hits after repeat = %d, want 1", got)
	}
	if got := metricValue(t, body, `geobrowse_http_requests_total{code="400",endpoint="/api/browse"}`); got != 1 {
		t.Errorf("400 counter = %d, want 1", got)
	}
	if got := metricValue(t, body, `geobrowse_http_requests_total{code="200",endpoint="/api/browse"}`); got != 2 {
		t.Errorf("200 counter after repeat = %d, want 2", got)
	}
}

// TestMetricsDefaultRegistryIncludesEstimatorCounters exercises the
// acceptance-criteria shape: a server on the default registry exposes the
// per-estimator core counters alongside the HTTP and cache families after
// serving a browse request (core instruments telemetry.Default()).
func TestMetricsDefaultRegistryIncludesEstimatorCounters(t *testing.T) {
	srv := smallServer(t, Options{})
	if code, body := get(t, srv.URL+"/api/browse?x1=0&y1=0&x2=36&y2=18&cols=6&rows=3"); code != http.StatusOK {
		t.Fatalf("browse status %d: %s", code, body)
	}
	_, body := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		`core_tile_estimates_total{algo="EulerApprox"}`,
		`core_batch_sweeps_total{algo="EulerApprox"}`,
		`core_batch_sweep_seconds_count{algo="EulerApprox"}`,
		`geobrowse_http_requests_total{code="200",endpoint="/api/browse"}`,
		`geobrowse_cache_misses_total`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSweepTelemetryCountsMaps: a 16k-tile request is ONE sweep to core's
// telemetry — the per-algorithm counter and duration histogram and the
// per-level pyramid histogram each record it once, with the whole map's
// tiles.
func TestSweepTelemetryCountsMaps(t *testing.T) {
	g := grid.NewUnit(256, 128)
	z, err := core.Spec{Algo: core.AlgoEuler}.FromPyramids([]*euler.Pyramid{
		euler.NewPyramid(euler.FromRects(g, []geom.Rect{geom.NewRect(3, 3, 40, 20)}), euler.PyramidOpts{})})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(New("wide", StaticSource(z), Options{Telemetry: reg}))
	t.Cleanup(srv.Close)

	def := telemetry.Default() // where core records, whatever the server's registry
	sweeps := def.Counter("core_batch_sweeps_total", "", "algo", z.Name())
	tiles := def.Counter("core_tile_estimates_total", "", "algo", z.Name())
	sweeps0, tiles0 := sweeps.Value(), tiles.Value()
	seconds0 := def.FamilySnapshot("core_batch_sweep_seconds").Count
	levels0 := def.FamilySnapshot("core_pyramid_sweep_seconds").Count

	const maps = 3
	for k := 0; k < maps; k++ { // shifted regions: every request misses the cache
		url := fmt.Sprintf("%s/api/browse?x1=0&y1=%d&x2=256&y2=%d&cols=128&rows=126", srv.URL, k, k+126)
		if code, body := get(t, url); code != http.StatusOK {
			t.Fatalf("browse status %d: %.200s", code, body)
		}
	}
	if got := sweeps.Value() - sweeps0; got != maps {
		t.Errorf("core_batch_sweeps_total rose by %d for %d maps", got, maps)
	}
	if got := tiles.Value() - tiles0; got != maps*128*126 {
		t.Errorf("core_tile_estimates_total rose by %d, want %d", got, maps*128*126)
	}
	if got := def.FamilySnapshot("core_batch_sweep_seconds").Count - seconds0; got != maps {
		t.Errorf("core_batch_sweep_seconds observed %d sweeps for %d maps", got, maps)
	}
	if got := def.FamilySnapshot("core_pyramid_sweep_seconds").Count - levels0; got != maps {
		t.Errorf("core_pyramid_sweep_seconds observed %d sweeps for %d maps", got, maps)
	}
}

// TestAccessLogLine asserts the structured request log emits one parseable
// line per request.
func TestAccessLogLine(t *testing.T) {
	var buf bytes.Buffer
	srv := smallServer(t, Options{Telemetry: telemetry.NewRegistry(), AccessLog: &buf})
	get(t, srv.URL+"/api/info")
	line := buf.String()
	for _, want := range []string{`"event":"request"`, `"endpoint":"/api/info"`, `"code":200`, `"duration_ms":`} {
		if !strings.Contains(line, want) {
			t.Errorf("access log line %q missing %q", line, want)
		}
	}
}

// TestEncodeErrorCounted routes a marshal failure through WriteJSON behind
// the middleware and checks it lands in the encode-error counter and a 500.
func TestEncodeErrorCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := &httpMetrics{reg: reg}
	h := m.wrap("/boom", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, make(chan int)) // unmarshalable: server bug path
	})
	prevLogf := logf
	logf = func(string, ...any) {}
	defer func() { logf = prevLogf }()

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if got := reg.Counter("geobrowse_http_encode_errors_total", "").Value(); got != 1 {
		t.Errorf("encode errors = %d, want 1", got)
	}
	if got := reg.Counter("geobrowse_http_requests_total", "", "endpoint", "/boom", "code", "500").Value(); got != 1 {
		t.Errorf("500 counter = %d, want 1", got)
	}
}

// TestWriteErrorCounted simulates a client that went away mid-response.
func TestWriteErrorCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := &httpMetrics{reg: reg}
	h := m.wrap("/gone", func(w http.ResponseWriter, r *http.Request) {
		writeJSONBytes(w, []byte(`{}`))
	})
	prevLogf := logf
	logf = func(string, ...any) {}
	defer func() { logf = prevLogf }()

	h(&failingWriter{httptest.NewRecorder()}, httptest.NewRequest("GET", "/gone", nil))
	if got := reg.Counter("geobrowse_http_write_errors_total", "").Value(); got != 1 {
		t.Errorf("write errors = %d, want 1", got)
	}
}

type failingWriter struct{ *httptest.ResponseRecorder }

func (w *failingWriter) Write(p []byte) (int, error) {
	return 0, fmt.Errorf("broken pipe")
}
