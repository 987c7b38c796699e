package geobrowse

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"spatialhist/internal/telemetry"
)

// Admission control for the browse path. Estimation work is CPU-bound and
// runs on the request's goroutine, so nothing else bounds how many
// requests compete for the cores when offered load exceeds capacity. Past
// that point every request's latency grows without bound while throughput
// stays flat — the classic overload collapse. The Limiter keeps the knee
// sharp: at most MaxInflight browse-path requests run at once, a bounded
// number wait for a bounded time, and everything beyond that is shed
// immediately with 429 + Retry-After so clients back off instead of piling
// on. Waiters are admitted in arrival order.

// Shed reasons, used as the reason label of
// geobrowse_admission_shed_total.
const (
	shedQueueFull = "queue_full"
	shedTimeout   = "timeout"
	shedCanceled  = "canceled"
)

// ErrShedQueueFull is returned by Acquire when the wait queue is at its
// bound; the request should be shed immediately.
var ErrShedQueueFull = errors.New("geobrowse: admission queue full")

// ErrShedTimeout is returned by Acquire when a request waited ShedAfter
// without getting a slot.
var ErrShedTimeout = errors.New("geobrowse: admission wait timed out")

// AdmissionConfig tunes a Limiter.
type AdmissionConfig struct {
	// MaxInflight bounds concurrently admitted browse-path requests, and
	// waitersPerSlot × MaxInflight the requests waiting for one. Values
	// <= 0 disable admission control (NewLimiter returns nil).
	MaxInflight int
	// ShedAfter bounds how long a request may wait for a slot before it
	// is shed with 429. 0 means DefaultShedAfter.
	ShedAfter time.Duration
	// Telemetry receives the limiter's metrics. nil means
	// telemetry.Default().
	Telemetry *telemetry.Registry
}

// DefaultShedAfter is the wait bound when AdmissionConfig.ShedAfter is 0.
const DefaultShedAfter = 250 * time.Millisecond

// waitersPerSlot bounds the queue: a request arriving to find
// waitersPerSlot × MaxInflight waiting is shed at once.
const waitersPerSlot = 4

// waiter is one queued request. granted and the channel close are flipped
// together under the limiter lock, so a timeout racing a grant can tell
// which side won.
type waiter struct {
	ch      chan struct{}
	granted bool
}

// Limiter is a FIFO concurrency limiter with bounded wait. The zero value
// is not usable; a nil *Limiter admits everything (see Acquire), so
// servers can hold one unconditionally.
type Limiter struct {
	mu        sync.Mutex
	capacity  int
	inflight  int
	shedAfter time.Duration
	waiters   []*waiter // arrival order

	mInflight *telemetry.Gauge
	mQueue    *telemetry.Gauge
	reg       *telemetry.Registry
	mWait     *telemetry.Histogram
}

// NewLimiter builds a Limiter from cfg, or returns nil (admit everything)
// when MaxInflight <= 0.
func NewLimiter(cfg AdmissionConfig) *Limiter {
	if cfg.MaxInflight <= 0 {
		return nil
	}
	if cfg.ShedAfter <= 0 {
		cfg.ShedAfter = DefaultShedAfter
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	reg.Gauge("geobrowse_admission_capacity",
		"Maximum concurrently admitted browse-path requests.").Set(int64(cfg.MaxInflight))
	return &Limiter{
		capacity:  cfg.MaxInflight,
		shedAfter: cfg.ShedAfter,
		reg:       reg,
		mInflight: reg.Gauge("geobrowse_admission_inflight",
			"Browse-path requests currently holding an admission slot."),
		mQueue: reg.Gauge("geobrowse_admission_queue_depth",
			"Browse-path requests waiting for an admission slot."),
		mWait: reg.Histogram("geobrowse_admission_wait_seconds",
			"Time admitted requests spent waiting for a slot.", nil),
	}
}

// shed counts one shed request by reason.
func (l *Limiter) shed(reason string) {
	l.reg.Counter("geobrowse_admission_shed_total",
		"Browse-path requests shed with 429, by reason.",
		"reason", reason).Inc()
}

// Acquire admits one request, blocking up to the configured wait bound
// when all slots are busy. It returns a release callback the
// caller must invoke when the request is done, or an error when the
// request was shed (queue full, wait bound exceeded, or context
// canceled). A nil Limiter admits immediately.
func (l *Limiter) Acquire(ctx context.Context) (release func(), err error) {
	if l == nil {
		return func() {}, nil
	}
	l.mu.Lock()
	if l.inflight < l.capacity && len(l.waiters) == 0 {
		l.inflight++
		l.mInflight.Set(int64(l.inflight))
		l.mu.Unlock()
		return l.releaseFunc(), nil
	}
	if len(l.waiters) >= waitersPerSlot*l.capacity {
		l.mu.Unlock()
		l.shed(shedQueueFull)
		return nil, ErrShedQueueFull
	}
	w := &waiter{ch: make(chan struct{})}
	l.waiters = append(l.waiters, w)
	// A slot may have freed between the fast-path check and the enqueue;
	// granting under the same lock keeps the queue drained.
	l.grantLocked()
	l.mu.Unlock()

	start := time.Now()
	timer := time.NewTimer(l.shedAfter)
	defer timer.Stop()
	select {
	case <-w.ch:
		l.mWait.ObserveDuration(time.Since(start))
		return l.releaseFunc(), nil
	case <-timer.C:
		if l.cancelWaiter(w) {
			l.shed(shedTimeout)
			return nil, ErrShedTimeout
		}
		// The grant won the race: the slot is ours.
		l.mWait.ObserveDuration(time.Since(start))
		return l.releaseFunc(), nil
	case <-ctx.Done():
		if l.cancelWaiter(w) {
			l.shed(shedCanceled)
			return nil, ctx.Err()
		}
		l.mWait.ObserveDuration(time.Since(start))
		return l.releaseFunc(), nil
	}
}

// releaseFunc returns the callback that frees one slot and hands it to
// the longest waiter.
func (l *Limiter) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			l.mu.Lock()
			l.inflight--
			l.grantLocked()
			l.mu.Unlock()
		})
	}
}

// grantLocked hands free slots to waiting requests in arrival order, and
// sets the gauges either way.
func (l *Limiter) grantLocked() {
	for l.inflight < l.capacity && len(l.waiters) > 0 {
		w := l.waiters[0]
		l.waiters[0] = nil
		l.waiters = l.waiters[1:]
		l.inflight++
		w.granted = true
		close(w.ch)
	}
	l.mInflight.Set(int64(l.inflight))
	l.mQueue.Set(int64(len(l.waiters)))
}

// cancelWaiter removes w from the queue if it has not been granted yet.
// It reports true when the waiter was removed (the caller sheds) and false
// when the grant won the race (the caller owns a slot).
func (l *Limiter) cancelWaiter(w *waiter) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if w.granted {
		return false
	}
	i := slices.Index(l.waiters, w)
	l.waiters = slices.Delete(l.waiters, i, i+1)
	l.mQueue.Set(int64(len(l.waiters)))
	return true
}

// Stats reports the limiter's instantaneous occupancy, for tests and
// health reporting.
func (l *Limiter) Stats() (inflight, queued int) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight, len(l.waiters)
}
