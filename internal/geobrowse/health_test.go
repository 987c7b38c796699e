package geobrowse

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
	"spatialhist/internal/telemetry"
)

func probeHealthz(t *testing.T, h http.Handler, n int) {
	t.Helper()
	req := httptest.NewRequest("GET", "/healthz", nil)
	for k := 0; k < n; k++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
		}
	}
}

// TestHealthzProbesAreNotReaders: a load balancer probing /healthz must not
// count as a reader of the live store. The store keeps no leak flag in
// view, so the test watches what it controls: generation-buffer recycling
// (a snapshot taken unpinned is withdrawn from it, so every later publish
// clones the whole lattice).
func TestHealthzProbesAreNotReaders(t *testing.T) {
	t.Run("publish allocations", func(t *testing.T) {
		// 511×511 lattice buckets: a cloned generation is a megabyte, a
		// repaired one kilobytes.
		store := newLiveStore(t, live.Config{Grid: grid.NewUnit(256, 256), Algo: live.AlgoSEuler, RebuildEvery: -1})
		srv := New("live", store, Options{Telemetry: telemetry.NewRegistry()})
		publishBytes := func(probes int) (total uint64) {
			var before, after runtime.MemStats
			for round := 0; round < 8; round++ {
				probeHealthz(t, srv, probes)
				if ok, err := store.Insert(geom.NewRect(10, 10, 12, 12)); err != nil || !ok {
					t.Fatalf("insert: %v %v", ok, err)
				}
				runtime.ReadMemStats(&before)
				if err := store.Flush(); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				total += after.TotalAlloc - before.TotalAlloc
			}
			return total
		}
		publishBytes(0) // fill the arena: steady state from here on
		quiet := publishBytes(0)
		probed := publishBytes(125)
		if probed > quiet+quiet/2+64<<10 {
			t.Fatalf("8 publishes allocate %d KB under 1000 probes, %d KB without", probed>>10, quiet>>10)
		}
	})
}

// TestHealthzSingleServerAndDrain: /healthz names the dataset and answers
// 200 until StartDrain, then 503 "draining", while API traffic still
// completes.
func TestHealthzSingleServerAndDrain(t *testing.T) {
	est := core.NewEuler(euler.FromRects(grid.NewUnit(36, 18), []geom.Rect{geom.NewRect(2, 2, 4, 4)}))
	gb := New("testdata", StaticSource(est), Options{Telemetry: telemetry.NewRegistry()})
	srv := httptest.NewServer(gb)
	defer srv.Close()

	var h Health
	getJSON(t, srv.URL+"/healthz", &h)
	if h != (Health{Status: "ok", Dataset: "testdata"}) {
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
