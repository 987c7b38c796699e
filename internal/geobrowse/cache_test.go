package geobrowse

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

func TestBrowseCacheLRU(t *testing.T) {
	c := newBrowseCache(2, telemetry.NewRegistry(), "")
	calls := 0
	get := func(key string) []byte {
		t.Helper()
		v, err := c.Do(key, func() ([]byte, error) {
			calls++
			return []byte(key), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	get("a")
	get("b")
	if got := get("a"); string(got) != "a" {
		t.Fatalf("hit returned %q", got)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (a and b computed once)", calls)
	}
	get("c") // evicts b (a was just used)
	get("a")
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (a still cached after eviction of b)", calls)
	}
	get("b")
	if calls != 4 {
		t.Fatalf("calls = %d, want 4 (b was evicted)", calls)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 4 {
		t.Fatalf("stats = %d hits / %d misses, want 2/4", hits, misses)
	}
}

func TestBrowseCacheErrorNotCached(t *testing.T) {
	c := newBrowseCache(4, telemetry.NewRegistry(), "")
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err := c.Do("k", func() ([]byte, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 3 {
		t.Fatalf("calls = %d: errors must not be cached", calls)
	}
}

func TestBrowseCacheSingleFlight(t *testing.T) {
	c := newBrowseCache(4, telemetry.NewRegistry(), "")
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do("k", func() ([]byte, error) {
				close(started) // panics if a second caller computes
				calls.Add(1)
				<-release
				return []byte("v"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	<-started
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	for i, v := range results {
		if string(v) != "v" {
			t.Fatalf("waiter %d got %q", i, v)
		}
	}
}

// denseRects is the shared dense dataset of the cache tests and bench,
// drawn from the harness generators so its seed lines up with the
// property suites.
func denseRects(g *grid.Grid) []geom.Rect {
	return gen.Rects(gen.Rand(9), g, 300, gen.RectOpts{MaxCellsX: 10, MaxCellsY: 6, Inside: true})
}

// denseServer builds a server over a 128×64 grid, large enough for
// 8192-tile maps.
func denseServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	g := grid.NewUnit(128, 64)
	rects := denseRects(g)
	s := New("dense", StaticSource(core.NewEuler(euler.FromRects(g, rects))), opts)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

// TestBrowseConcurrentIdenticalRequests hammers one browse URL from many
// goroutines (run with -race): all responses must be identical and the
// underlying tile map must be computed far fewer times than it is served.
func TestBrowseConcurrentIdenticalRequests(t *testing.T) {
	s, srv := denseServer(t, Options{})
	url := srv.URL + "/api/browse?x1=0&y1=0&x2=128&y2=64&cols=128&rows=64"
	const clients = 24
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	var resp BrowseResponse
	if err := json.Unmarshal(bodies[0], &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Tiles) != 128*64 {
		t.Fatalf("%d tiles, want %d", len(resp.Tiles), 128*64)
	}
	hits, misses := s.CacheStats()
	if misses != 1 || hits != clients-1 {
		t.Fatalf("cache stats %d hits / %d misses, want %d/1", hits, misses, clients-1)
	}
}

// BenchmarkBrowseCache measures the browse handler with a warm cache
// (every request hits) against an uncached server (every request computes
// the 64x64 tile map and re-encodes it).
func BenchmarkBrowseCache(b *testing.B) {
	g := grid.NewUnit(128, 64)
	rects := denseRects(g)
	est := core.NewEuler(euler.FromRects(g, rects))
	req := httptest.NewRequest("GET", "/api/browse?x1=0&y1=0&x2=128&y2=64&cols=64&rows=64", nil)
	run := func(b *testing.B, s *Server) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d", w.Code)
			}
		}
	}
	b.Run("hit", func(b *testing.B) {
		s := New("bench", StaticSource(est), Options{})
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req) // warm the cache
		b.ResetTimer()
		run(b, s)
	})
	b.Run("miss", func(b *testing.B) {
		run(b, New("bench", StaticSource(est), Options{CacheSize: -1}))
	})
}

func TestBrowseTileLimitOverflowGuard(t *testing.T) {
	_, srv := denseServer(t, Options{})
	for _, q := range []string{
		// Individually over the per-parameter bound.
		fmt.Sprintf("cols=%d&rows=1", maxTiles+1),
		fmt.Sprintf("cols=1&rows=%d", maxTiles+1),
		// Each under the bound, product overflows int32 (and the limit).
		fmt.Sprintf("cols=%d&rows=%d", maxTiles, maxTiles),
		"cols=100000&rows=99999",
	} {
		url := srv.URL + "/api/browse?x1=0&y1=0&x2=128&y2=64&" + q
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", q, resp.StatusCode)
		}
	}
}
