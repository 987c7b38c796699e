package geobrowse

import (
	"container/list"
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
// Write. The cache is bounded twice: at most capacity entries and at most
// capacity × cacheBytesPerEntry bytes of stored bodies, whichever binds
// first, so what a server keeps resident for its cache is fixed by -cache
// and not by the size of the maps its clients happen to ask for. A body
// larger than the whole byte budget is served but never stored.
type browseCache struct {
	mu       sync.Mutex
	capacity int        // entries
	budget   int64      // bytes of stored bodies: capacity × cacheBytesPerEntry
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

// cacheBytesPerEntry is the byte budget one entry of capacity buys. A
// session map (36×18 tiles, ≈ 55 KB) and anything up to ≈ 1500 tiles fits
// one share, so for them the byte bound never binds and the cache is the
// plain capacity-entry LRU; a 0.8 MB map of 10k tiles takes the room of
// seven.
const cacheBytesPerEntry = 128 << 10

type cacheEntry struct {
	key string
	val []byte
}

// flight is one in-progress computation; followers wait on done and read
// val/err afterwards.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// newBrowseCache returns a cache holding up to capacity responses in up to
// capacity × cacheBytesPerEntry bytes; capacity <= 0 disables storage but
// keeps single-flight deduplication.
// Cache events are recorded into reg (nil means telemetry.Default()).
func newBrowseCache(capacity int, reg *telemetry.Registry) *browseCache {
	if reg == nil {
		reg = telemetry.Default()
	}
	return &browseCache{
		capacity: capacity,
		budget:   int64(capacity) * cacheBytesPerEntry,
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
			"Stored responses evicted by the entry or byte bound."),
		mBypass: reg.Counter("geobrowse_cache_bypass_total",
			"Computed responses larger than the cache's whole byte budget, served but not stored."),
		mEntries: reg.Gauge("geobrowse_cache_entries",
			"Stored responses currently in the cache."),
		mBytes: reg.Gauge("geobrowse_cache_bytes",
			"Bytes of response bodies currently stored in the cache."),
	}
}

// Do returns the cached response for key, or computes it with compute,
// deduplicating concurrent calls for the same key: one caller runs
// compute, the rest wait for its result. Errors are returned to every
// waiter and never cached. A response larger than the byte budget goes to
// its caller and its waiters, is not stored and evicts nothing.
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
	f.val, f.err = compute()

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil && c.capacity > 0 {
		c.store(key, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, f.err
}

// store inserts a computed response at the hot end and evicts from the cold
// end until both bounds hold. The new entry is never the one evicted: it
// fits the byte budget on its own, or it is not stored. Called with mu held.
func (c *browseCache) store(key string, val []byte) {
	size := int64(len(val))
	if size > c.budget {
		c.mBypass.Inc()
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	c.bytes += size
	for c.ll.Len() > c.capacity || c.bytes > c.budget {
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

// Len returns the number of stored responses.
func (c *browseCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the bytes of response bodies stored.
func (c *browseCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
