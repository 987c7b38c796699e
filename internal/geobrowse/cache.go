package geobrowse

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"spatialhist/internal/telemetry"
)

// browseCache is a small LRU of marshaled browse responses with
// single-flight deduplication: identical concurrent requests — the common
// case when many clients watch the same region — are computed once, and
// repeats of a recent request are served from memory without touching the
// histograms or re-encoding JSON.
//
// Values are the final response bytes, so a hit is a map lookup plus one
// Write. The cache keeps at most capacity entries, each its own copy of a
// body of at most cacheBytesPerEntry, so what a server keeps resident for
// its cache is fixed by -cache and not by the size of the maps its clients
// happen to ask for. A larger body is served but never stored.
type browseCache struct {
	mu       sync.Mutex
	capacity int        // entries
	bytes    int64      // bytes of stored bodies now
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flight

	hits, misses atomic.Int64

	// Telemetry counters, created once at construction so the hot path
	// pays one atomic add, not a registry lookup. mHits counts stored-
	// response hits only; single-flight followers are mDedup (Stats keeps
	// its historical hits-include-dedup semantics for callers).
	mHits, mMisses, mDedup, mEvictions, mBypass *telemetry.Counter
	mEntries, mBytes                            *telemetry.Gauge
}

// cacheBytesPerEntry is the largest body the cache stores. A session map
// (36×18 tiles, ≈ 55 KB) and anything up to ≈ 1500 tiles fits, so for them
// the cache is the plain capacity-entry LRU. A larger map is rarely asked
// twice before it would be evicted, and storing it would cost the copy.
const cacheBytesPerEntry = 128 << 10

type cacheEntry struct {
	key string
	val []byte
}

// flight is one in-progress computation; followers register in waiting
// and, once done is closed, read val/err.
type flight struct {
	done    chan struct{}
	waiting int // followers, counted under the cache's mu
	val     []byte
	err     error
}

// errComputePanicked is what the followers of a computation that panicked
// get: a server bug, answered 500. The panic itself goes on up the
// computing caller's stack.
var errComputePanicked = errors.New("geobrowse: the response's computation panicked")

// newBrowseCache returns a cache holding up to capacity responses of up to
// cacheBytesPerEntry each; capacity <= 0 disables storage but keeps
// single-flight deduplication.
// Cache events are recorded into reg (nil means telemetry.Default()).
func newBrowseCache(capacity int, reg *telemetry.Registry) *browseCache {
	if reg == nil {
		reg = telemetry.Default()
	}
	return &browseCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight),
		mHits: reg.Counter("geobrowse_cache_hits_total",
			"Browse requests served from a stored response."),
		mMisses: reg.Counter("geobrowse_cache_misses_total",
			"Browse requests that computed their response."),
		mDedup: reg.Counter("geobrowse_cache_dedup_total",
			"Browse requests that waited on an identical in-flight computation."),
		mEvictions: reg.Counter("geobrowse_cache_evictions_total",
			"Stored responses evicted by the entry bound."),
		mBypass: reg.Counter("geobrowse_cache_bypass_total",
			"Computed responses larger than one entry's 128 KiB, served but not stored."),
		mEntries: reg.Gauge("geobrowse_cache_entries",
			"Stored responses currently in the cache."),
		mBytes: reg.Gauge("geobrowse_cache_bytes",
			"Bytes of response bodies currently stored in the cache."),
	}
}

// Do returns the cached response for key, or computes it with compute,
// deduplicating concurrent calls for the same key: one caller runs
// compute, the rest wait for its result. Errors are returned to every
// waiter and never cached. The computing caller gets compute's own slice
// back, free to recycle it once it is written; the cache stores a copy of
// a body of at most cacheBytesPerEntry, and waiters get that copy or, for
// a larger body, which is not stored and evicts nothing, one made for them.
// A compute that panics releases its key: its followers get
// errComputePanicked, the next call computes afresh, and the panic goes on.
func (c *browseCache) Do(key string, compute func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		val := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		c.hits.Add(1)
		c.mHits.Inc()
		return val, nil
	}
	if f, ok := c.inflight[key]; ok {
		f.waiting++
		c.mu.Unlock()
		<-f.done
		c.mDedup.Inc()
		// A deduplicated follower is neither a recomputation nor a store
		// hit; count it as a hit since the work was shared.
		if f.err == nil {
			c.hits.Add(1)
		}
		return f.val, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	c.misses.Add(1)
	c.mMisses.Inc()
	returned := false
	defer func() {
		if !returned {
			c.mu.Lock()
			delete(c.inflight, key)
			c.mu.Unlock()
			f.err = errComputePanicked
			close(f.done)
		}
	}()
	val, err := compute()
	returned = true

	c.mu.Lock()
	delete(c.inflight, key)
	stored := err == nil && c.capacity > 0 && len(val) <= cacheBytesPerEntry
	if stored || err == nil && f.waiting > 0 {
		kept := make([]byte, len(val)) // with the copy: not zeroed first
		copy(kept, val)
		f.val = kept
	}
	if stored {
		c.store(key, f.val)
	} else if err == nil && c.capacity > 0 {
		c.mBypass.Inc()
	}
	c.mu.Unlock()
	f.err = err
	close(f.done)
	return val, err
}

// store inserts a computed response at the hot end and evicts from the cold
// end down to capacity entries. Called with mu held.
func (c *browseCache) store(key string, val []byte) {
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	c.bytes += int64(len(val))
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Remove(c.ll.Back()).(*cacheEntry)
		delete(c.entries, oldest.key)
		c.bytes -= int64(len(oldest.val))
		c.mEvictions.Inc()
	}
	c.mEntries.Set(int64(c.ll.Len()))
	c.mBytes.Set(c.bytes)
}

// Stats returns how many Do calls were served from cache (or a shared
// in-flight computation) versus computed.
func (c *browseCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Bytes returns the bytes of response bodies stored.
func (c *browseCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
