package live_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"spatialhist/internal/geobrowse"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
	"spatialhist/internal/telemetry"
)

// TestEveryReaderReleasesItsPin: with one pinned protocol and no unpinned
// accessor, every way of reading a live store through the browse server —
// probes included — leaves the published snapshot at its resting count of
// one reference, so its buffers recycle the moment it is retired.
func TestEveryReaderReleasesItsPin(t *testing.T) {
	store, err := live.Open(live.Config{Grid: grid.NewUnit(64, 64), Algo: live.AlgoMEuler, Areas: []float64{1, 9},
		Seed: []geom.Rect{geom.NewRect(1, 1, 3, 3), geom.NewRect(8, 8, 40, 40)}, RebuildEvery: -1,
		PyramidLevels: 2, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := geobrowse.New("live", store, geobrowse.Options{Telemetry: telemetry.NewRegistry(), OverviewEpsilon: 0.5})
	for _, target := range []string{
		"/healthz",
		"/api/info",
		"/api/query?x1=0&y1=0&x2=64&y2=64",
		"/api/browse?x1=0&y1=0&x2=64&y2=64&cols=8&rows=8",
		"/api/browse?x1=0&y1=0&x2=64&y2=64&cols=8&rows=8", // cache hit
		"/api/browse?x1=1&y1=1&x2=61&y2=61&cols=2&rows=2", // ε plan
		"/api/browse?x1=0&y1=0&x2=64&y2=64&cols=7&rows=8", // refused by the plan
		"/api/browse?x1=0.5&y1=0&x2=64&y2=64&cols=8&rows=8",
		"/api/store/status",
	} {
		for probe := 0; probe < 3; probe++ {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code >= 500 {
				t.Fatalf("%s: %d %s", target, rec.Code, rec.Body.String())
			}
			if refs := store.PublishedRefs(); refs != 1 {
				t.Fatalf("%s left the published snapshot at %d references, want 1", target, refs)
			}
		}
	}
	_, _, release := store.AcquireEstimator()
	if refs := store.PublishedRefs(); refs != 2 {
		t.Fatalf("a held pin shows as %d references, want 2", refs)
	}
	release()
	release() // idempotent
	if refs := store.PublishedRefs(); refs != 1 {
		t.Fatalf("released pin left %d references, want 1", refs)
	}
}
