package geobrowse

import (
	"context"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
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
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("nil limiter must admit: %v", err)
	}
	release()
	if in, q := l.Stats(); in != 0 || q != 0 {
		t.Fatalf("nil limiter stats = %d,%d", in, q)
	}
}

// waitQueued polls until n requests wait on l.
func waitQueued(t *testing.T, l *Limiter, n int) {
	t.Helper()
	for i := 0; ; i++ {
		if _, q := l.Stats(); q == n {
			return
		}
		if i > 5000 {
			t.Fatalf("queue never reached %d waiters", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLimiterAdmitsUpToCapacity: MaxInflight requests hold slots, four
// times as many wait, and the next is shed at once; the waiters time out.
func TestLimiterAdmitsUpToCapacity(t *testing.T) {
	l, reg := testLimiter(t, AdmissionConfig{MaxInflight: 3, ShedAfter: 300 * time.Millisecond})
	var releases []func()
	for i := 0; i < 3; i++ {
		release, err := l.Acquire(context.Background())
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		releases = append(releases, release)
	}
	if in, _ := l.Stats(); in != 3 {
		t.Fatalf("inflight = %d, want 3", in)
	}
	const queue = 4 * 3
	done := make(chan error, queue)
	for i := 0; i < queue; i++ {
		go func() {
			_, err := l.Acquire(context.Background())
			done <- err
		}()
	}
	waitQueued(t, l, queue)
	if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrShedQueueFull) {
		t.Fatalf("over-queue acquire = %v, want ErrShedQueueFull", err)
	}
	for i := 0; i < queue; i++ {
		if err := <-done; !errors.Is(err, ErrShedTimeout) {
			t.Fatalf("queued acquire = %v, want ErrShedTimeout", err)
		}
	}
	for _, r := range releases {
		r()
	}
	if in, q := l.Stats(); in != 0 || q != 0 {
		t.Fatalf("after release: inflight %d queued %d", in, q)
	}
	sheds := reg.CounterValues("geobrowse_admission_shed_total")
	if sheds[`{reason="queue_full"}`] != 1 || sheds[`{reason="timeout"}`] != queue {
		t.Fatalf("shed counters %v, want 1 queue_full and %d timeouts", sheds, queue)
	}
}

func TestLimiterBoundedWait(t *testing.T) {
	l, _ := testLimiter(t, AdmissionConfig{MaxInflight: 1, ShedAfter: 30 * time.Millisecond})
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrShedTimeout) {
		t.Fatalf("want timeout shed, got %v", err)
	}
	if wait := time.Since(start); wait < 25*time.Millisecond || wait > 5*time.Second {
		t.Fatalf("shed after %v, want ≈30ms", wait)
	}
	release()

	// A waiter that gets its slot within the bound is admitted.
	release, err = l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		release()
	}()
	release2, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("waiter within the bound must be admitted: %v", err)
	}
	release2()
}

func TestLimiterContextCancel(t *testing.T) {
	l, _ := testLimiter(t, AdmissionConfig{MaxInflight: 1, ShedAfter: time.Minute})
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := l.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestLimiterGrantsInArrivalOrder: with both slots held, five waiters
// queued one at a time (a queue one slot could not hold: it bounds four)
// are granted in the order they arrived as slots free one at a time, and a
// canceled waiter leaves the queue without a grant.
func TestLimiterGrantsInArrivalOrder(t *testing.T) {
	l, reg := testLimiter(t, AdmissionConfig{MaxInflight: 2, ShedAfter: time.Minute})
	var held []func() // releases, oldest grant first
	for i := 0; i < 2; i++ {
		release, err := l.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, release)
	}
	type grant struct {
		i       int
		release func()
	}
	const waiters, canceled = 5, 2
	grants := make(chan grant, waiters)
	errs := make(chan error, waiters)
	var cancels []context.CancelFunc
	for i := 0; i < waiters; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cancels = append(cancels, cancel)
		go func() {
			rel, err := l.Acquire(ctx)
			if err != nil {
				errs <- err
				return
			}
			grants <- grant{i, rel}
		}()
		waitQueued(t, l, i+1)
	}
	cancels[canceled]()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: %v, want context.Canceled", err)
	}
	if _, q := l.Stats(); q != waiters-1 {
		t.Fatalf("%d waiting after the cancel, want %d", q, waiters-1)
	}

	var order []int
	for len(held) > 0 {
		held[0]()
		held = held[1:]
		if len(order) == waiters-1 {
			continue // nobody waits any more
		}
		select {
		case g := <-grants:
			order = append(order, g.i)
			held = append(held, g.release)
		case <-time.After(10 * time.Second):
			t.Fatalf("no grant after a release; granted %v", order)
		}
	}
	if want := []int{0, 1, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
	if in, q := l.Stats(); in != 0 || q != 0 {
		t.Fatalf("after the last release: inflight %d queued %d", in, q)
	}
	if d := reg.Gauge("geobrowse_admission_queue_depth", "").Value(); d != 0 {
		t.Fatalf("queue depth gauge = %d, want 0", d)
	}
}

func TestLimiterShedAccounting(t *testing.T) {
	l, reg := testLimiter(t, AdmissionConfig{MaxInflight: 1, ShedAfter: 200 * time.Millisecond})
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	const queue = 4
	var wg sync.WaitGroup
	var timeouts atomic.Int64
	for i := 0; i < queue; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := l.Acquire(context.Background())
			switch {
			case errors.Is(err, ErrShedTimeout):
				timeouts.Add(1)
			case err == nil:
				t.Error("no slot should free while the holder holds it")
			}
		}()
	}
	waitQueued(t, l, queue)
	for i := 0; i < 3; i++ {
		if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrShedQueueFull) {
			t.Fatalf("acquire past a full queue = %v, want ErrShedQueueFull", err)
		}
	}
	wg.Wait()
	vals := reg.CounterValues("geobrowse_admission_shed_total")
	want := map[string]int64{`{reason="queue_full"}`: 3, `{reason="timeout"}`: queue}
	if timeouts.Load() != queue || !maps.Equal(vals, want) {
		t.Fatalf("%d timeouts observed, shed counters %v, want %v", timeouts.Load(), vals, want)
	}
}

// TestAdmissionHTTP drives the limiter through the browse endpoint: with
// one slot held by a slow request, concurrent identical requests are
// shed with 429 + Retry-After.
func TestAdmissionHTTP(t *testing.T) {
	reg := telemetry.NewRegistry()
	limiter := NewLimiter(AdmissionConfig{
		MaxInflight: 1, ShedAfter: 5 * time.Millisecond, Telemetry: reg,
	})
	srv := newTestHTTPServer(t, Options{Telemetry: reg, Limiter: limiter})

	// Hold the only slot via a request that blocks in the handler by
	// acquiring out-of-band.
	release, err := limiter.Acquire(context.Background())
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
		release, err := limiter.Acquire(context.Background())
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
		if label != `{reason="timeout"}` {
			t.Fatalf("unexpected shed label %q", label)
		}
	}
}

// TestLimiterReleaseIsIdempotent: a release callback frees its one slot
// however often it is called, so a double release cannot admit a request
// past MaxInflight.
func TestLimiterReleaseIsIdempotent(t *testing.T) {
	l, _ := testLimiter(t, AdmissionConfig{MaxInflight: 2, ShedAfter: 10 * time.Millisecond})
	first, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first()
	first()
	if in, _ := l.Stats(); in != 1 {
		t.Fatalf("inflight after releasing one slot twice = %d, want 1", in)
	}
	third, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrShedTimeout) {
		t.Fatalf("acquire past two held slots = %v, want ErrShedTimeout", err)
	}
	second()
	third()
	third()
	if in, q := l.Stats(); in != 0 || q != 0 {
		t.Fatalf("after every release: inflight %d queued %d", in, q)
	}
}

// TestLimiterGaugesAndWaitHistogram: the capacity and inflight gauges
// report the limiter's slots, and the wait histogram observes each waiter
// that was granted a slot but no shed one and no fast-path admission.
func TestLimiterGaugesAndWaitHistogram(t *testing.T) {
	l, reg := testLimiter(t, AdmissionConfig{MaxInflight: 2, ShedAfter: 200 * time.Millisecond})
	gauge := func(name string) int64 { return reg.Gauge(name, "").Value() }
	waits := func() uint64 { return reg.Histogram("geobrowse_admission_wait_seconds", "", nil).Snapshot().Count }
	if c := gauge("geobrowse_admission_capacity"); c != 2 {
		t.Fatalf("capacity gauge = %d, want 2", c)
	}
	a, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if in := gauge("geobrowse_admission_inflight"); in != 2 || waits() != 0 {
		t.Fatalf("two fast-path admissions: inflight gauge %d, %d waits observed", in, waits())
	}
	if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrShedTimeout) {
		t.Fatalf("acquire past two held slots = %v, want ErrShedTimeout", err)
	}
	if n := waits(); n != 0 {
		t.Fatalf("a shed waiter was observed: %d waits", n)
	}
	granted := make(chan func())
	go func() {
		rel, err := l.Acquire(context.Background())
		if err != nil {
			t.Error(err)
			rel = func() {}
		}
		granted <- rel
	}()
	waitQueued(t, l, 1)
	a()
	c := <-granted
	if in, n := gauge("geobrowse_admission_inflight"), waits(); in != 2 || n != 1 {
		t.Fatalf("after a granted wait: inflight gauge %d, %d waits observed, want 2 and 1", in, n)
	}
	b()
	c()
	if in, q := gauge("geobrowse_admission_inflight"), gauge("geobrowse_admission_queue_depth"); in != 0 || q != 0 {
		t.Fatalf("after every release: inflight gauge %d, queue depth gauge %d", in, q)
	}
}
