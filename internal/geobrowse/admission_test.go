package geobrowse

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

// newTestHTTPServer serves the small fixed dataset of testServer with
// explicit options, for admission and health tests.
func newTestHTTPServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	g := grid.NewUnit(36, 18)
	h := euler.FromRects(g, []geom.Rect{
		geom.NewRect(2, 2, 4, 4),
		geom.NewRect(10, 5, 30, 15),
	})
	srv := httptest.NewServer(New("testdata", StaticSource(core.NewEuler(h)), opts))
	t.Cleanup(srv.Close)
	return srv
}

func testLimiter(t *testing.T, cfg AdmissionConfig) (*Limiter, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	l := NewLimiter(cfg)
	if l == nil {
		t.Fatal("NewLimiter returned nil for a positive MaxInflight")
	}
	return l, reg
}

func TestLimiterDisabled(t *testing.T) {
	if l := NewLimiter(AdmissionConfig{}); l != nil {
		t.Fatal("MaxInflight 0 must disable admission control")
	}
	var l *Limiter
	release, err := l.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatalf("nil limiter must admit: %v", err)
	}
	release()
	if in, q := l.Stats(); in != 0 || q != 0 {
		t.Fatalf("nil limiter stats = %d,%d", in, q)
	}
}

func TestLimiterAdmitsUpToCapacity(t *testing.T) {
	l, _ := testLimiter(t, AdmissionConfig{MaxInflight: 3, ShedAfter: 300 * time.Millisecond, MaxQueue: 1})
	var releases []func()
	for i := 0; i < 3; i++ {
		release, err := l.Acquire(context.Background(), "a")
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		releases = append(releases, release)
	}
	if in, _ := l.Stats(); in != 3 {
		t.Fatalf("inflight = %d, want 3", in)
	}
	// Capacity full, queue capacity 1: the 4th waits then times out, the
	// 5th (queued behind it) is shed immediately.
	done := make(chan error, 1)
	go func() {
		_, err := l.Acquire(context.Background(), "a")
		done <- err
	}()
	// Wait until the 4th occupies the queue so the 5th sees it full.
	for i := 0; ; i++ {
		if _, q := l.Stats(); q == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("4th acquire never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := l.Acquire(context.Background(), "a"); !errors.Is(err, ErrShedQueueFull) {
		t.Fatalf("over-queue acquire = %v, want ErrShedQueueFull", err)
	}
	if err := <-done; !errors.Is(err, ErrShedTimeout) {
		t.Fatalf("queued acquire = %v, want ErrShedTimeout", err)
	}
	for _, r := range releases {
		r()
	}
	if in, q := l.Stats(); in != 0 || q != 0 {
		t.Fatalf("after release: inflight %d queued %d", in, q)
	}
}

func TestLimiterBoundedWait(t *testing.T) {
	l, _ := testLimiter(t, AdmissionConfig{MaxInflight: 1, ShedAfter: 30 * time.Millisecond})
	release, err := l.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := l.Acquire(context.Background(), "a"); !errors.Is(err, ErrShedTimeout) {
		t.Fatalf("want timeout shed, got %v", err)
	}
	if wait := time.Since(start); wait < 25*time.Millisecond || wait > 5*time.Second {
		t.Fatalf("shed after %v, want ≈30ms", wait)
	}
	release()

	// A waiter that gets its slot within the bound is admitted.
	release, err = l.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		release()
	}()
	release2, err := l.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatalf("waiter within the bound must be admitted: %v", err)
	}
	release2()
}

func TestLimiterContextCancel(t *testing.T) {
	l, _ := testLimiter(t, AdmissionConfig{MaxInflight: 1, ShedAfter: time.Minute})
	release, err := l.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := l.Acquire(ctx, "a"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestLimiterTenantFairness floods tenant "hog" with waiters while
// tenant "mouse" queues a few: freed slots must alternate between the
// tenants, so mouse's small queue drains in its first few grants rather
// than behind the hog's backlog.
func TestLimiterTenantFairness(t *testing.T) {
	l, _ := testLimiter(t, AdmissionConfig{MaxInflight: 1, ShedAfter: time.Minute, MaxQueue: 64})
	release, err := l.Acquire(context.Background(), "hog")
	if err != nil {
		t.Fatal(err)
	}

	const hogs, mice = 20, 3
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	admitted := func(tenant string) {
		mu.Lock()
		order = append(order, tenant)
		mu.Unlock()
	}
	enqueue := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rel, err := l.Acquire(context.Background(), tenant)
				if err != nil {
					t.Errorf("%s: %v", tenant, err)
					return
				}
				admitted(tenant)
				rel()
			}()
		}
	}
	enqueue("hog", hogs)
	// Wait for the hog backlog to queue before the mice arrive, so the
	// test observes fairness, not arrival order.
	for i := 0; ; i++ {
		if _, q := l.Stats(); q == hogs {
			break
		}
		if i > 5000 {
			t.Fatal("hog backlog never queued")
		}
		time.Sleep(time.Millisecond)
	}
	enqueue("mouse", mice)
	for i := 0; ; i++ {
		if _, q := l.Stats(); q == hogs+mice {
			break
		}
		if i > 5000 {
			t.Fatal("mice never queued")
		}
		time.Sleep(time.Millisecond)
	}

	release() // start draining
	wg.Wait()

	// Round-robin over two tenants admits every mouse within the first
	// 2*mice grants (alternating), far ahead of FIFO order which would
	// put them after all 20 hogs.
	lastMouse := -1
	for i, tenant := range order {
		if tenant == "mouse" {
			lastMouse = i
		}
	}
	if lastMouse == -1 || lastMouse >= 2*mice+1 {
		t.Fatalf("last mouse admitted at position %d of %d; round-robin should interleave (order %v)",
			lastMouse, len(order), order)
	}
}

func TestLimiterShedAccounting(t *testing.T) {
	l, reg := testLimiter(t, AdmissionConfig{MaxInflight: 1, ShedAfter: 5 * time.Millisecond, MaxQueue: 1})
	release, err := l.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var timeouts, fulls atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := l.Acquire(context.Background(), "a")
			switch {
			case errors.Is(err, ErrShedTimeout):
				timeouts.Add(1)
			case errors.Is(err, ErrShedQueueFull):
				fulls.Add(1)
			case err == nil:
				t.Error("no slot should free while the holder sleeps")
			}
		}()
	}
	wg.Wait()
	release()
	if timeouts.Load() == 0 || fulls.Load() == 0 {
		t.Fatalf("want both shed reasons, got timeouts=%d queue_full=%d", timeouts.Load(), fulls.Load())
	}
	vals := reg.CounterValues("geobrowse_admission_shed_total")
	var total int64
	for _, v := range vals {
		total += v
	}
	if total != timeouts.Load()+fulls.Load() {
		t.Fatalf("shed counter total %d != observed %d (%v)", total, timeouts.Load()+fulls.Load(), vals)
	}
	if v := vals[`{reason="timeout",tenant="a"}`]; v != timeouts.Load() {
		t.Fatalf("timeout series = %d, want %d (%v)", v, timeouts.Load(), vals)
	}
}

// TestAdmissionHTTP drives the limiter through the browse endpoint: with
// one slot held by a slow request, concurrent identical requests are
// shed with 429 + Retry-After.
func TestAdmissionHTTP(t *testing.T) {
	reg := telemetry.NewRegistry()
	limiter := NewLimiter(AdmissionConfig{
		MaxInflight: 1, ShedAfter: 5 * time.Millisecond, MaxQueue: 1, Telemetry: reg,
	})
	srv := newTestHTTPServer(t, Options{Telemetry: reg, Limiter: limiter})

	// Hold the only slot via a request that blocks in the handler by
	// acquiring out-of-band.
	release, err := limiter.Acquire(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/api/query?x1=0&y1=0&x2=6&y2=6")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	release()

	resp, err = http.Get(srv.URL + "/api/query?x1=0&y1=0&x2=6&y2=6")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after release = %d, want 200", resp.StatusCode)
	}
	// /api/info and /healthz stay outside admission control.
	for _, path := range []string{"/api/info", "/healthz"} {
		release, err := limiter.Acquire(context.Background(), "")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s under full admission = %d, want 200", path, resp.StatusCode)
		}
		release()
	}

	sheds := reg.CounterValues("geobrowse_admission_shed_total")
	if len(sheds) == 0 {
		t.Fatal("shed counter never recorded")
	}
	for label := range sheds {
		if !strings.Contains(label, `tenant=""`) {
			t.Fatalf("unexpected shed label %q", label)
		}
	}
}
