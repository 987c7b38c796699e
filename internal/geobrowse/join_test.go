package geobrowse

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/exact"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

// joinTestFront builds a MultiServer over span-backed tenants and returns
// the exact-side spans per tenant.
func joinTestFront(t *testing.T, reg *telemetry.Registry) (*MultiServer, *grid.Grid, map[string][]grid.Span) {
	t.Helper()
	g := grid.NewUnit(24, 18)
	r := rand.New(rand.NewSource(77))
	spans := map[string][]grid.Span{}
	var cfgs []TenantConfig
	for _, name := range []string{"roads", "parcels"} {
		var ss []grid.Span
		for k := 0; k < 30; k++ {
			i1, j1 := r.Intn(g.NX()), r.Intn(g.NY())
			ss = append(ss, grid.Span{I1: i1, J1: j1, I2: i1 + r.Intn(g.NX()-i1), J2: j1 + r.Intn(g.NY()-j1)})
		}
		spans[name] = ss
		rects := make([]geom.Rect, len(ss))
		for i, s := range ss {
			rects[i] = g.SpanRect(s)
		}
		cfgs = append(cfgs, TenantConfig{Name: name, Load: func() (core.Estimator, error) {
			return core.NewSEuler(euler.FromRects(g, rects)), nil
		}})
	}
	// A tenant on an incompatible extent, to drive the 422 path.
	cfgs = append(cfgs, TenantConfig{Name: "elsewhere", Load: func() (core.Estimator, error) {
		og := grid.New(geom.NewRect(0, 0, 7, 7), 24, 18)
		return core.NewSEuler(euler.FromRects(og, []geom.Rect{geom.NewRect(1, 1, 3, 3)})), nil
	}})
	registry, err := NewRegistry(cfgs, RegistryOptions{Server: Options{Telemetry: reg}})
	if err != nil {
		t.Fatal(err)
	}
	return NewMultiServer(registry), g, spans
}

func postJoin(t *testing.T, h http.Handler, body any) (*httptest.ResponseRecorder, JoinResponse) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/join", bytes.NewReader(raw)))
	var resp JoinResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding join response %q: %v", rec.Body.Bytes(), err)
		}
	}
	return rec, resp
}

func TestJoinEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	ms, g, spans := joinTestFront(t, reg)

	rec, resp := postJoin(t, ms, JoinRequest{A: "roads", B: "parcels"})
	if rec.Code != http.StatusOK {
		t.Fatalf("join: %d: %s", rec.Code, rec.Body.Bytes())
	}
	want := exact.JoinSpans(g, spans["roads"], spans["parcels"])
	if resp.Pairs != want {
		t.Fatalf("Pairs = %d, want exact %d", resp.Pairs, want)
	}
	if resp.CountA != 30 || resp.CountB != 30 || resp.A != "roads" || resp.B != "parcels" {
		t.Fatalf("response = %+v", resp)
	}
	if wantSel := float64(want) / 900.0; resp.Selectivity != wantSel {
		t.Fatalf("Selectivity = %g, want %g", resp.Selectivity, wantSel)
	}
	if resp.Resampled || resp.Certified {
		t.Fatalf("flags = %+v", resp)
	}

	// The estimate is cached by both tenants' generations: a repeat hits.
	_, before := ms.join.cache.Stats()
	rec2, resp2 := postJoin(t, ms, JoinRequest{A: "roads", B: "parcels"})
	if rec2.Code != http.StatusOK || resp2 != resp {
		t.Fatalf("repeat join diverged: %d, %+v vs %+v", rec2.Code, resp2, resp)
	}
	hits, after := ms.join.cache.Stats()
	if hits != 1 || after != before {
		t.Fatalf("cache stats after repeat = (%d hits, %d misses), want (1, %d)", hits, after, before)
	}
	// The swapped direction is a different key but a symmetric count.
	_, respBA := postJoin(t, ms, JoinRequest{A: "parcels", B: "roads"})
	if respBA.Pairs != resp.Pairs {
		t.Fatalf("join not symmetric: %d vs %d", respBA.Pairs, resp.Pairs)
	}

	if v := reg.CounterValues("core_join_requests_total"); v[""] != 3 {
		t.Fatalf("core_join_requests_total = %v, want 3", v)
	}
	if v := reg.CounterValues("core_join_errors_total"); v[""] != 0 {
		t.Fatalf("core_join_errors_total = %v, want 0", v)
	}
}

func TestJoinEndpointErrors(t *testing.T) {
	reg := telemetry.NewRegistry()
	ms, _, _ := joinTestFront(t, reg)

	if rec, _ := postJoin(t, ms, JoinRequest{A: "roads", B: "nope"}); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown tenant: %d, want 404", rec.Code)
	}
	if rec, _ := postJoin(t, ms, JoinRequest{A: "roads"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing side: %d, want 400", rec.Code)
	}
	for name, body := range map[string]string{
		"bad body":       "{not json",
		"trailing bytes": `{"a":"roads","b":"roads"}{"a":"roads","b":"nope"}`,
		"past 64 KiB":    `{"a":"roads","b":"roads","pad":"` + strings.Repeat("x", 64<<10) + `"}`,
	} {
		rec := httptest.NewRecorder()
		ms.ServeHTTP(rec, httptest.NewRequest("POST", "/api/join", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", name, rec.Code)
		}
	}
	if rec, _ := postJoin(t, ms, JoinRequest{A: "roads", B: "elsewhere"}); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("incompatible grids: %d, want 422", rec.Code)
	}
	if v := reg.CounterValues("core_join_errors_total"); v[""] != 6 {
		t.Fatalf("core_join_errors_total = %v, want 6", v)
	}
	// Tenant routing still works next to the literal /api/join route.
	rr := httptest.NewRecorder()
	ms.ServeHTTP(rr, httptest.NewRequest("GET", "/api/roads/info", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("tenant route broken: %d: %s", rr.Code, rr.Body.Bytes())
	}
}
