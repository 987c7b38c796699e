package geobrowse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

// testTenant builds a deterministic tenant over a few rects derived from
// its index, counting loader invocations.
func testTenant(name string, idx int, loads *atomic.Int64) TenantConfig {
	return TenantConfig{
		Name: name,
		Load: func() (core.Estimator, error) {
			if loads != nil {
				loads.Add(1)
			}
			g := grid.NewUnit(36, 18)
			h := euler.FromRects(g, []geom.Rect{
				geom.NewRect(float64(idx), 1, float64(idx)+3, 5),
				geom.NewRect(10, 5, 30, 15),
			})
			return core.NewEuler(h), nil
		},
	}
}

func TestRegistryLazyLoadAndRouting(t *testing.T) {
	var loads atomic.Int64
	reg, err := NewRegistry([]TenantConfig{
		testTenant("alpha", 2, &loads),
		testTenant("beta", 5, &loads),
	}, RegistryOptions{Server: Options{Telemetry: telemetry.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMultiServer(reg))
	defer srv.Close()

	if loads.Load() != 0 {
		t.Fatalf("tenants loaded before first touch: %d", loads.Load())
	}
	var info Info
	getJSON(t, srv.URL+"/api/alpha/info", &info)
	if info.Dataset != "alpha" || loads.Load() != 1 {
		t.Fatalf("info = %+v, loads = %d", info, loads.Load())
	}
	// Repeat touches reuse the resident server.
	getJSON(t, srv.URL+"/api/alpha/browse?x1=0&y1=0&x2=36&y2=18&cols=6&rows=3", new(BrowseResponse))
	if loads.Load() != 1 {
		t.Fatalf("second touch reloaded: %d", loads.Load())
	}
	getJSON(t, srv.URL+"/api/beta/info", &info)
	if info.Dataset != "beta" || loads.Load() != 2 {
		t.Fatalf("beta info = %+v, loads = %d", info, loads.Load())
	}

	resp, err := http.Get(srv.URL + "/api/nosuch/info")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant = %d, want 404", resp.StatusCode)
	}

	var health Health
	getJSON(t, srv.URL+"/healthz", &health)
	if health.Status != "ok" || health.Tenants != 2 {
		t.Fatalf("health = %+v", health)
	}
}

// TestRegistryEvictReloadRoundTrip caps the budget at one tenant's
// footprint and alternates touches: every touch evicts the other tenant,
// and reloaded tenants must serve responses byte-identical to their
// first incarnation.
func TestRegistryEvictReloadRoundTrip(t *testing.T) {
	var loads atomic.Int64
	tel := telemetry.NewRegistry()
	// One 36×18 Euler histogram is 4 sub-histograms of (37×19) corners;
	// budget just above one tenant's bytes forces single-residency.
	one := estimatorBytes(mustLoad(t, testTenant("alpha", 2, nil)))
	reg, err := NewRegistry([]TenantConfig{
		testTenant("alpha", 2, &loads),
		testTenant("beta", 5, &loads),
	}, RegistryOptions{
		MemoryBudget: one + one/2,
		Server:       Options{Telemetry: tel},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMultiServer(reg))
	defer srv.Close()

	url := func(tenant string) string {
		return srv.URL + "/api/" + tenant + "/browse?x1=0&y1=0&x2=36&y2=18&cols=6&rows=3"
	}
	first := map[string][]byte{
		"alpha": getBody(t, url("alpha")),
		"beta":  getBody(t, url("beta")),
	}
	if loads.Load() != 2 {
		t.Fatalf("loads = %d, want 2", loads.Load())
	}
	if _, loaded, bytes := reg.Stats(); loaded != 1 || bytes > one+one/2 {
		t.Fatalf("budget not enforced: loaded=%d bytes=%d", loaded, bytes)
	}
	// Ping-pong: each touch reloads the evicted tenant; responses must
	// be bit-identical across incarnations.
	for i := 0; i < 3; i++ {
		for _, tenant := range []string{"alpha", "beta"} {
			if got := getBody(t, url(tenant)); !bytes.Equal(got, first[tenant]) {
				t.Fatalf("round %d: %s response diverged after evict/reload\n got: %s\nwant: %s",
					i, tenant, got, first[tenant])
			}
		}
	}
	if loads.Load() < 4 {
		t.Fatalf("expected evict/reload churn, loads = %d", loads.Load())
	}
	evictions := tel.CounterValues("geobrowse_tenant_evictions_total")[""]
	if evictions < 2 {
		t.Fatalf("evictions counter = %d, want >= 2", evictions)
	}
}

func TestRegistryUnlimitedBudgetKeepsAll(t *testing.T) {
	var loads atomic.Int64
	reg, err := NewRegistry([]TenantConfig{
		testTenant("a", 1, &loads), testTenant("b", 2, &loads), testTenant("c", 3, &loads),
	}, RegistryOptions{Server: Options{Telemetry: telemetry.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c", "a", "b", "c"} {
		if _, _, err := reg.Resolve(name); err != nil {
			t.Fatal(err)
		}
	}
	if loads.Load() != 3 {
		t.Fatalf("loads = %d, want 3", loads.Load())
	}
	if _, loaded, _ := reg.Stats(); loaded != 3 {
		t.Fatalf("loaded = %d, want 3", loaded)
	}
}

func TestRegistryConcurrentFirstTouchLoadsOnce(t *testing.T) {
	var loads atomic.Int64
	reg, err := NewRegistry([]TenantConfig{testTenant("a", 1, &loads)},
		RegistryOptions{Server: Options{Telemetry: telemetry.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := reg.Resolve("a"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if loads.Load() != 1 {
		t.Fatalf("concurrent first touch loaded %d times", loads.Load())
	}
}

func TestRegistryValidation(t *testing.T) {
	opts := RegistryOptions{Server: Options{Telemetry: telemetry.NewRegistry()}}
	if _, err := NewRegistry([]TenantConfig{{Name: ""}}, opts); err == nil {
		t.Fatal("empty tenant name must error")
	}
	if _, err := NewRegistry([]TenantConfig{
		testTenant("a", 1, nil), testTenant("a", 2, nil),
	}, opts); err == nil {
		t.Fatal("duplicate tenant name must error")
	}
	reg, err := NewRegistry([]TenantConfig{
		{Name: "broken", Load: func() (core.Estimator, error) {
			return nil, fmt.Errorf("disk on fire")
		}},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Resolve("broken"); err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("loader failure must surface: %v", err)
	}

	// Over HTTP the two failure modes must not blur: an unconfigured
	// name is the client's 404, a failing loader is the server's 500.
	srv := httptest.NewServer(NewMultiServer(reg))
	defer srv.Close()
	for path, want := range map[string]int{
		"/api/nosuch/info": http.StatusNotFound,
		"/api/broken/info": http.StatusInternalServerError,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestRegistryTenantMetricsLabelled checks that per-tenant traffic lands
// in tenant-labelled series of the shared families.
func TestRegistryTenantMetricsLabelled(t *testing.T) {
	tel := telemetry.NewRegistry()
	reg, err := NewRegistry([]TenantConfig{testTenant("alpha", 2, nil)},
		RegistryOptions{Server: Options{Telemetry: tel}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMultiServer(reg))
	defer srv.Close()
	getJSON(t, srv.URL+"/api/alpha/info", new(Info))

	vals := tel.CounterValues("geobrowse_http_requests_total")
	want := `{code="200",endpoint="/api/info",tenant="alpha"}`
	if vals[want] != 1 {
		t.Fatalf("tenant-labelled request series missing: %v", vals)
	}
}

func mustLoad(t *testing.T, tc TenantConfig) core.Estimator {
	t.Helper()
	est, err := tc.Load()
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return body
}

func TestHealthzSingleServerAndDrain(t *testing.T) {
	gb := New("testdata", StaticSource(fixedEstimator(t)), Options{Telemetry: telemetry.NewRegistry()})
	srv := httptest.NewServer(gb)
	defer srv.Close()

	var h Health
	getJSON(t, srv.URL+"/healthz", &h)
	if h.Status != "ok" || h.Dataset != "testdata" || h.Tenants != 1 {
		t.Fatalf("health = %+v", h)
	}

	gb.StartDrain()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	var hd Health
	if err := json.NewDecoder(resp.Body).Decode(&hd); err != nil {
		t.Fatal(err)
	}
	if hd.Status != "draining" {
		t.Fatalf("draining payload = %+v", hd)
	}
	// API traffic still completes while draining.
	getJSON(t, srv.URL+"/api/info", new(Info))
}

func fixedEstimator(t *testing.T) core.Estimator {
	t.Helper()
	g := grid.NewUnit(36, 18)
	return core.NewEuler(euler.FromRects(g, []geom.Rect{geom.NewRect(2, 2, 4, 4)}))
}

// TestTenantBytesAreLatticeBytes pins the budget's unit: a loaded tenant is
// charged the resident bytes of the lattices it serves from — every group
// and pyramid level at its cells' real width, 4 bytes per bucket as built —
// not a flat 8 bytes per storage bucket, which charges a tenant for twice
// the memory it holds.
func TestTenantBytesAreLatticeBytes(t *testing.T) {
	g := grid.NewUnit(64, 32)
	rects := []geom.Rect{geom.NewRect(2, 1, 5, 5), geom.NewRect(10, 5, 30, 15), geom.NewRect(40, 3, 41, 4)}
	areas := []float64{1, 9}
	meuler, err := core.NewMEuler(g, areas, rects)
	if err != nil {
		t.Fatal(err)
	}
	var pyrs []*euler.Pyramid
	var widened []*euler.Histogram
	const lattice = 127 * 63                                    // buckets per group
	static, zoomBytes, wideBytes := 2*4*lattice, 0, 2*8*lattice // two groups each
	for _, h := range meuler.Histograms() {
		p := euler.NewPyramid(h, euler.PyramidOpts{MinGrid: 8})
		pyrs = append(pyrs, p)
		for k := 0; k < p.Levels(); k++ {
			zoomBytes += 4 * p.Level(k).StorageBuckets()
		}
		widened = append(widened, h.Unpack())
	}
	zoom, err := core.ZoomMEuler(areas, pyrs)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := core.MEulerFromHistograms(areas, widened)
	if err != nil {
		t.Fatal(err)
	}
	// 64×32 halves to 32×16, 16×8 and stops at the floor of 8 cells.
	if pyrs[0].Levels() != 3 || zoomBytes != 2*4*(lattice+63*31+31*15) {
		t.Fatalf("fixture: %d levels, %d zoom bytes", pyrs[0].Levels(), zoomBytes)
	}

	tel := telemetry.NewRegistry()
	load := func(e core.Estimator) func() (core.Estimator, error) {
		return func() (core.Estimator, error) { return e, nil }
	}
	reg, err := NewRegistry([]TenantConfig{
		{Name: "static", Load: load(meuler)},
		{Name: "zoom", Load: load(zoom)},
		{Name: "wide", Load: load(wide)},
	}, RegistryOptions{Server: Options{Telemetry: tel}})
	if err != nil {
		t.Fatal(err)
	}
	gauge := tel.Gauge("geobrowse_tenant_bytes", "")
	want := int64(0)
	for _, c := range []struct {
		name  string
		bytes int
	}{{"static", static}, {"zoom", zoomBytes}, {"wide", wideBytes}} {
		if _, _, err := reg.Resolve(c.name); err != nil {
			t.Fatal(err)
		}
		want += int64(c.bytes)
		if _, _, got := reg.Stats(); got != want || gauge.Value() != want {
			t.Fatalf("after loading %s: loaded bytes %d (gauge %d), want %d", c.name, got, gauge.Value(), want)
		}
	}
}
