package geobrowse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialhist/internal/core"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
	"spatialhist/internal/telemetry"
)

func newLiveStore(t testing.TB, cfg live.Config) *live.Store {
	t.Helper()
	if cfg.Grid == nil {
		cfg.Grid = grid.NewUnit(20, 20)
	}
	if cfg.Algo == 0 {
		cfg.Algo = live.AlgoEuler
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	s, err := live.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func postJSON(t *testing.T, h http.Handler, path string, body any) (*httptest.ResponseRecorder, MutationResponse) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(raw)))
	var resp MutationResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding %s response %q: %v", path, rec.Body.Bytes(), err)
		}
	}
	return rec, resp
}

func getBrowse(t *testing.T, h http.Handler, query string) BrowseResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/browse?"+query, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("browse %s: %d %s", query, rec.Code, rec.Body.String())
	}
	var resp BrowseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestLiveServerEndpoints(t *testing.T) {
	store := newLiveStore(t, live.Config{RebuildEvery: -1})
	srv := New("live", store, Options{Telemetry: telemetry.NewRegistry()})

	// Ingest two objects and one rect outside the space, flushing so the
	// response generation has them.
	rec, resp := postJSON(t, srv, "/api/ingest?flush=1", MutationRequest{
		Rects: [][4]float64{{1, 1, 3, 3}, {5, 5, 9, 9}, {500, 500, 600, 600}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Applied != 2 || resp.Rejected != 1 || resp.Generation < 2 {
		t.Fatalf("ingest response %+v, want 2 applied, 1 rejected, gen >= 2", resp)
	}

	// The snapshot serves them.
	irec := httptest.NewRecorder()
	srv.ServeHTTP(irec, httptest.NewRequest("GET", "/api/info", nil))
	var info Info
	if err := json.Unmarshal(irec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Objects != 2 || info.Generation != resp.Generation {
		t.Fatalf("info %+v, want 2 objects at gen %d", info, resp.Generation)
	}

	// Delete one back out.
	rec, resp = postJSON(t, srv, "/api/delete?flush=1", MutationRequest{Rects: [][4]float64{{1, 1, 3, 3}}})
	if rec.Code != http.StatusOK || resp.Applied != 1 {
		t.Fatalf("delete: %d %+v", rec.Code, resp)
	}

	// Status reflects the journal-free live store.
	srec := httptest.NewRecorder()
	srv.ServeHTTP(srec, httptest.NewRequest("GET", "/api/store/status", nil))
	var st live.Status
	if err := json.Unmarshal(srec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.LiveObjects != 1 || st.Mutations != 4 || st.Rejected != 1 {
		t.Fatalf("status %+v, want 1 live, 4 mutations, 1 rejected", st)
	}

	// Malformed bodies are 400s.
	for name, body := range map[string]string{
		"not json":   "nope",
		"empty":      `{"rects":[]}`,
		"wrong type": `{"rects":"x"}`,
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/ingest", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", name, rec.Code)
		}
	}

	// Mutations against a closed store surface as 503s.
	store.Close()
	rec, _ = postJSON(t, srv, "/api/ingest", MutationRequest{Rects: [][4]float64{{1, 1, 2, 2}}})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after close: %d, want 503", rec.Code)
	}
}

// TestGenerationCacheInvalidation is the satellite contract: a snapshot
// swap must make identical browse requests miss the cache (they see the
// new data), while entries of other generations stay resident rather than
// being flushed.
func TestGenerationCacheInvalidation(t *testing.T) {
	store := newLiveStore(t, live.Config{RebuildEvery: -1})
	srv := New("live", store, Options{Telemetry: telemetry.NewRegistry()})
	if _, resp := postJSON(t, srv, "/api/ingest?flush=1", MutationRequest{Rects: [][4]float64{{1, 1, 3, 3}}}); resp.Applied != 1 {
		t.Fatalf("seed ingest: %+v", resp)
	}

	const q = "x1=0&y1=0&x2=20&y2=20&cols=2&rows=2"
	before := getBrowse(t, srv, q)
	getBrowse(t, srv, q)
	if hits, misses := srv.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("pre-swap stats: %d hits, %d misses; want 1, 1", hits, misses)
	}

	// Swap generations.
	if _, resp := postJSON(t, srv, "/api/ingest?flush=1", MutationRequest{Rects: [][4]float64{{6, 6, 9, 9}}}); resp.Applied != 1 {
		t.Fatalf("swap ingest: %+v", resp)
	}

	after := getBrowse(t, srv, q)
	hits, misses := srv.CacheStats()
	if hits != 1 || misses != 2 {
		t.Fatalf("post-swap stats: %d hits, %d misses; want the identical request to recompute", hits, misses)
	}
	var sumBefore, sumAfter int64
	for i := range before.Tiles {
		sumBefore += before.Tiles[i].Contains + before.Tiles[i].Overlap + before.Tiles[i].Disjoint
		sumAfter += after.Tiles[i].Contains + after.Tiles[i].Overlap + after.Tiles[i].Disjoint
	}
	if sumAfter <= sumBefore {
		t.Fatalf("post-swap browse does not see the new object (%d -> %d)", sumBefore, sumAfter)
	}
	// Both generations' entries are resident: the swap invalidated by
	// keying, not by flushing the cache.
	if n := srv.cache.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want both generations' responses", n)
	}
	// And the post-swap key now hits.
	getBrowse(t, srv, q)
	if hits, _ := srv.CacheStats(); hits != 2 {
		t.Fatalf("post-swap repeat did not hit (hits %d)", hits)
	}
}

// gateEstimator blocks inside the first Estimate call of a browse
// computation until released, so a test can hold one request mid-compute
// while identical requests pile up behind the single-flight.
type gateEstimator struct {
	core.Estimator
	entered chan struct{} // one send per blocked computation
	release chan struct{}
	gated   atomic.Bool
}

func (g *gateEstimator) Estimate(q grid.Span) core.Estimate {
	if g.gated.CompareAndSwap(false, true) {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Estimator.Estimate(q)
}

// swappableSource is an EstimatorSource a test can repoint.
type swappableSource struct {
	mu  sync.Mutex
	est core.Estimator
	gen uint64
}

func (s *swappableSource) Grid() *grid.Grid { return s.est.Grid() }

func (s *swappableSource) AcquireEstimator() (core.Estimator, uint64, func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est, s.gen, func() {}
}

// TestPreSwapSingleFlight pins down the other half of the satellite
// contract: identical requests against the SAME generation still share one
// computation through the single-flight, even while a swap is imminent.
func TestPreSwapSingleFlight(t *testing.T) {
	base, err := core.NewMEuler(grid.NewUnit(20, 20), []float64{1, 9},
		[]geom.Rect{geom.NewRect(1, 1, 3, 3), geom.NewRect(4, 4, 11, 11)})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateEstimator{Estimator: base,
		entered: make(chan struct{}, 1), release: make(chan struct{})}
	src := &swappableSource{est: gate, gen: 7}
	reg := telemetry.NewRegistry()
	srv := New("gated", src, Options{Telemetry: reg})

	const q = "x1=0&y1=0&x2=20&y2=20&cols=2&rows=2"
	results := make(chan BrowseResponse, 2)
	go func() { results <- getBrowse(t, srv, q) }()
	<-gate.entered // the first request is mid-computation

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); results <- getBrowse(t, srv, q) }()
	// Give the follower time to queue behind the in-flight computation —
	// the gate admits one computation, so even if it arrives later it can
	// only hit the stored entry, never recompute.
	time.Sleep(20 * time.Millisecond)
	close(gate.release)
	wg.Wait()

	a, b := <-results, <-results
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("deduplicated responses diverge: %v vs %v", a, b)
	}
	if _, misses := srv.CacheStats(); misses != 1 {
		t.Fatalf("misses = %d, want the follower to share the one computation", misses)
	}
}

// TestConcurrentIngestAndBrowse is the race gate for the whole live stack:
// ingestion POSTs, browse GETs and status reads all hammering one server.
// Run under -race this fails on any unsynchronized access.
func TestConcurrentIngestAndBrowse(t *testing.T) {
	store := newLiveStore(t, live.Config{Algo: live.AlgoMEuler, Areas: []float64{1, 9, 40},
		RebuildEvery: 8})
	srv := New("live", store, Options{Telemetry: telemetry.NewRegistry()})

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				x, y := r.Float64()*15, r.Float64()*15
				body, _ := json.Marshal(MutationRequest{Rects: [][4]float64{{x, y, x + 2, y + 3}}})
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/ingest", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("ingest: %d %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(int64(w))
	}
	for rdr := 0; rdr < 3; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, path := range []string{
					"/api/browse?x1=0&y1=0&x2=20&y2=20&cols=4&rows=4",
					"/api/query?x1=5&y1=5&x2=10&y2=10",
					"/api/store/status",
					"/api/info",
				} {
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
					if rec.Code != http.StatusOK {
						t.Errorf("%s: %d %s", path, rec.Code, rec.Body.String())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if gen := store.Generation(); gen < 2 {
		t.Fatalf("no snapshot swaps under load (gen %d)", gen)
	}
}
