package geobrowse

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spatialhist/internal/telemetry"
)

// storedKeys lists the cache's keys from the hot end to the cold end.
func storedKeys(c *browseCache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*cacheEntry).key)
	}
	return keys
}

// checkCacheAccounting: Len, Bytes, the two gauges and the stored bodies
// themselves must tell one story after every operation.
func checkCacheAccounting(t *testing.T, c *browseCache, when string) {
	t.Helper()
	c.mu.Lock()
	var sum int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		sum += int64(len(el.Value.(*cacheEntry).val))
	}
	entries, mapped := c.ll.Len(), len(c.entries)
	c.mu.Unlock()
	if mapped != entries || c.Len() != entries || c.mEntries.Value() != int64(entries) {
		t.Fatalf("%s: list %d, map %d, Len %d, entries gauge %d", when, entries, mapped, c.Len(), c.mEntries.Value())
	}
	if c.Bytes() != sum || c.mBytes.Value() != sum {
		t.Fatalf("%s: stored bodies hold %d bytes, Bytes %d, bytes gauge %d", when, sum, c.Bytes(), c.mBytes.Value())
	}
	if entries > c.capacity || sum > c.budget {
		t.Fatalf("%s: %d entries / %d bytes exceed %d / %d", when, entries, sum, c.capacity, c.budget)
	}
}

// TestBrowseCacheTwoBounds walks the entry bound and the byte bound through
// scripted requests. Sizes are in units of cacheBytesPerEntry/4, so a
// capacity-4 cache has room for 16 units.
func TestBrowseCacheTwoBounds(t *testing.T) {
	const unit = cacheBytesPerEntry / 4
	boom := errors.New("boom")
	type op struct {
		key   string
		units int  // body size when computed; ignored on a hit
		fail  bool // compute returns an error
		// expectations after the op
		computed bool
		stored   string // keys hot → cold, space separated
		evicted  int64  // evictions this op
		bypassed int64  // bypasses this op
	}
	for _, tc := range []struct {
		name     string
		capacity int
		ops      []op
	}{
		{"entry bound binds for small bodies", 3, []op{
			{key: "a", units: 1, computed: true, stored: "a"},
			{key: "b", units: 1, computed: true, stored: "b a"},
			{key: "c", units: 1, computed: true, stored: "c b a"},
			{key: "a", stored: "a c b"},
			{key: "d", units: 1, computed: true, stored: "d a c", evicted: 1},
			{key: "b", units: 1, computed: true, stored: "b d a", evicted: 1},
		}},
		{"byte bound evicts cold entries until the new body fits", 4, []op{
			{key: "a", units: 4, computed: true, stored: "a"},
			{key: "b", units: 4, computed: true, stored: "b a"},
			{key: "c", units: 4, computed: true, stored: "c b a"},
			{key: "a", stored: "a c b"},
			{key: "d", units: 9, computed: true, stored: "d a", evicted: 2},   // 12+9 > 16: b, then c, go
			{key: "e", units: 3, computed: true, stored: "e d a"},             // 4+9+3 = 16 fits exactly
			{key: "f", units: 1, computed: true, stored: "f e d", evicted: 1}, // one unit over: a goes
			{key: "g", units: 16, computed: true, stored: "g", evicted: 3},    // the whole budget: alone
			{key: "h", units: 1, computed: true, stored: "h", evicted: 1},
			{key: "i", units: 0, computed: true, stored: "i h"}, // an empty body is an entry
			{key: "g", units: 16, computed: true, stored: "g i", evicted: 1},
			{key: "j", units: 1, computed: true, stored: "j", evicted: 2}, // cold end first, though i frees nothing
			{key: "k", units: 1, computed: true, stored: "k j"},
			{key: "l", units: 1, computed: true, stored: "l k j"},
			{key: "m", units: 13, computed: true, stored: "m l k j"},            // 4 entries, 16 units: both bounds met
			{key: "n", units: 0, computed: true, stored: "n m l k", evicted: 1}, // the entry bound still binds
		}},
		{"an over-budget body is served, not stored, and evicts nothing", 2, []op{
			{key: "a", units: 3, computed: true, stored: "a"},
			{key: "b", units: 4, computed: true, stored: "b a"},
			{key: "big", units: 9, computed: true, stored: "b a", bypassed: 1},
			{key: "big", units: 9, computed: true, stored: "b a", bypassed: 1}, // recomputed every time
			{key: "a", stored: "a b"},
			{key: "b", stored: "b a"},
			{key: "edge", units: 8, computed: true, stored: "edge", evicted: 2}, // exactly the budget is stored
		}},
		{"errors are never stored and cost no room", 2, []op{
			{key: "a", units: 1, computed: true, stored: "a"},
			{key: "x", fail: true, computed: true, stored: "a"},
			{key: "x", fail: true, computed: true, stored: "a"},
			{key: "x", units: 1, computed: true, stored: "x a"},
			{key: "a", stored: "a x"},
		}},
		{"capacity 0 stores nothing and bypasses nothing", 0, []op{
			{key: "a", units: 1, computed: true},
			{key: "a", units: 1, computed: true},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newBrowseCache(tc.capacity, telemetry.NewRegistry(), "")
			for i, o := range tc.ops {
				when := fmt.Sprintf("op %d (%s)", i, o.key)
				evBefore, byBefore := c.mEvictions.Value(), c.mBypass.Value()
				computed := false
				body := bytes.Repeat([]byte{o.key[0]}, o.units*unit)
				val, err := c.Do(o.key, func() ([]byte, error) {
					computed = true
					if o.fail {
						return nil, boom
					}
					return body, nil
				})
				if o.fail != (err != nil) {
					t.Fatalf("%s: err = %v", when, err)
				}
				if err == nil && computed && !bytes.Equal(val, body) {
					t.Fatalf("%s: the caller did not get the computed body", when)
				}
				if err == nil && len(val) > 0 && val[0] != o.key[0] {
					t.Fatalf("%s: got the body of %q", when, val[0])
				}
				if computed != o.computed {
					t.Fatalf("%s: computed = %v, want %v", when, computed, o.computed)
				}
				if got := strings.Join(storedKeys(c), " "); got != o.stored {
					t.Fatalf("%s: stored %q, want %q", when, got, o.stored)
				}
				if got := c.mEvictions.Value() - evBefore; got != o.evicted {
					t.Fatalf("%s: %d evictions, want %d", when, got, o.evicted)
				}
				if got := c.mBypass.Value() - byBefore; got != o.bypassed {
					t.Fatalf("%s: %d bypasses, want %d", when, got, o.bypassed)
				}
				checkCacheAccounting(t, c, when)
			}
		})
	}
}

// TestBrowseCacheOverBudgetSingleFlight (run with -race): concurrent
// identical requests for a body larger than the whole budget share one
// computation like any other, every caller gets the body, and the cache —
// holding a small entry — is left exactly as it was. Callers that arrive
// after the leader finished find nothing stored and compute again, so the
// invariant is calls + deduplicated = callers; a round in which the
// followers were in time must turn up within a few tries.
func TestBrowseCacheOverBudgetSingleFlight(t *testing.T) {
	const callers = 8
	big := bytes.Repeat([]byte("x"), 2*cacheBytesPerEntry+1)
	for round := 0; round < 20; round++ {
		c := newBrowseCache(2, telemetry.NewRegistry(), "")
		if _, err := c.Do("small", func() ([]byte, error) { return []byte("s"), nil }); err != nil {
			t.Fatal(err)
		}
		var calls, entered atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				entered.Add(1)
				v, err := c.Do("big", func() ([]byte, error) {
					calls.Add(1)
					for entered.Load() < callers {
						runtime.Gosched()
					}
					for k := 0; k < 100; k++ { // let the others reach the flight
						runtime.Gosched()
					}
					return big, nil
				})
				if err != nil || !bytes.Equal(v, big) {
					t.Errorf("caller got %d bytes, err %v", len(v), err)
				}
			}()
		}
		wg.Wait()
		dedup := c.mDedup.Value()
		if calls.Load()+dedup != callers || c.mBypass.Value() != calls.Load() {
			t.Fatalf("%d computations + %d deduplicated ≠ %d callers (bypass counter %d)",
				calls.Load(), dedup, callers, c.mBypass.Value())
		}
		if got := storedKeys(c); !slices.Equal(got, []string{"small"}) || c.mEvictions.Value() != 0 {
			t.Fatalf("stored %q after %d evictions, want the small entry untouched", got, c.mEvictions.Value())
		}
		checkCacheAccounting(t, c, "after the flight")
		if dedup > 0 {
			return
		}
	}
	t.Fatal("no round deduplicated a follower onto the over-budget flight")
}

// entryLRU is the cache as it was before the byte bound: capacity entries,
// least recently used out first. The reference of the differential test.
type entryLRU struct {
	capacity int
	keys     []string // hot → cold
}

// do reports whether key was a hit, and the key evicted to store it ("" for
// none).
func (l *entryLRU) do(key string) (hit bool, evicted string) {
	if i := slices.Index(l.keys, key); i >= 0 {
		l.keys = slices.Insert(slices.Delete(l.keys, i, i+1), 0, key)
		return true, ""
	}
	l.keys = slices.Insert(l.keys, 0, key)
	if len(l.keys) > l.capacity {
		evicted = l.keys[len(l.keys)-1]
		l.keys = l.keys[:len(l.keys)-1]
	}
	return false, evicted
}

// TestBrowseCacheMatchesEntryLRUForSmallBodies is why a workload of session
// maps cannot see the byte bound: while every body is at most
// cacheBytesPerEntry, capacity of them fit the budget, the byte bound never
// binds, and the cache makes exactly the hit, miss and eviction decisions of
// the entry-count LRU it replaced.
func TestBrowseCacheMatchesEntryLRUForSmallBodies(t *testing.T) {
	backing := make([]byte, cacheBytesPerEntry)
	for _, capacity := range []int{1, 2, 7, 64} {
		r := rand.New(rand.NewSource(int64(2002 + capacity)))
		zipf := rand.NewZipf(r, 1.2, 4, uint64(4*capacity+10))
		c := newBrowseCache(capacity, telemetry.NewRegistry(), "")
		ref := &entryLRU{capacity: capacity}
		var hits, evictions int64
		for i := 0; i < 5000; i++ {
			k := zipf.Uint64()
			key := fmt.Sprintf("k%d", k)
			// A key's body size is a function of the key; every fourth key
			// is a full cacheBytesPerEntry, the largest the claim covers.
			size := int(k*7919) % (cacheBytesPerEntry + 1)
			if k%4 == 0 {
				size = cacheBytesPerEntry
			}
			computed := false
			before := storedKeys(c)
			if _, err := c.Do(key, func() ([]byte, error) {
				computed = true
				return backing[:size], nil
			}); err != nil {
				t.Fatal(err)
			}
			hit, evicted := ref.do(key)
			if computed == hit {
				t.Fatalf("capacity %d, request %d (%s): computed = %v where the entry LRU has hit = %v",
					capacity, i, key, computed, hit)
			}
			after := storedKeys(c)
			if !slices.Equal(after, ref.keys) {
				t.Fatalf("capacity %d, request %d (%s): stored %q, the entry LRU holds %q",
					capacity, i, key, after, ref.keys)
			}
			if evicted != "" {
				evictions++
				if before[len(before)-1] != evicted {
					t.Fatalf("capacity %d, request %d: evicted %q, the entry LRU evicts %q",
						capacity, i, before[len(before)-1], evicted)
				}
			}
			if hit {
				hits++
			}
			if c.mEvictions.Value() != evictions || c.mHits.Value() != hits || c.mBypass.Value() != 0 {
				t.Fatalf("capacity %d, request %d: counters %d hits / %d evictions / %d bypasses, want %d / %d / 0",
					capacity, i, c.mHits.Value(), c.mEvictions.Value(), c.mBypass.Value(), hits, evictions)
			}
		}
		checkCacheAccounting(t, c, fmt.Sprintf("capacity %d, end of stream", capacity))
		if hits == 0 || evictions == 0 {
			t.Fatalf("capacity %d: stream made %d hits and %d evictions; it exercises nothing", capacity, hits, evictions)
		}
	}
}

// TestBrowseCacheSizeMetricsAreTenantLabelled: the bytes gauge and the
// bypass counter carry the tenant label of their siblings, so a registry
// front's per-tenant caches stay apart in /metrics.
func TestBrowseCacheSizeMetricsAreTenantLabelled(t *testing.T) {
	reg := telemetry.NewRegistry()
	west := newBrowseCache(1, reg, "west")
	east := newBrowseCache(1, reg, "east")
	if _, err := west.Do("k", func() ([]byte, error) { return make([]byte, 10), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := east.Do("k", func() ([]byte, error) { return make([]byte, cacheBytesPerEntry+1), nil }); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("geobrowse_cache_bytes", "", "tenant", "west").Value(); got != 10 {
		t.Errorf("west holds %d bytes, want 10", got)
	}
	if got := reg.Gauge("geobrowse_cache_bytes", "", "tenant", "east").Value(); got != 0 {
		t.Errorf("east holds %d bytes, want 0", got)
	}
	bypass := reg.CounterValues("geobrowse_cache_bypass_total")
	if bypass[`{tenant="west"}`] != 0 || bypass[`{tenant="east"}`] != 1 {
		t.Errorf("bypass counters %v, want east alone at 1", bypass)
	}
}

// TestBrowseOverBudgetMapBypassesTheCache: over HTTP, a tile map larger
// than the server's whole cache budget is answered every time with the
// bytes a server that stores it answers with, and leaves the cache empty.
func TestBrowseOverBudgetMapBypassesTheCache(t *testing.T) {
	reg := telemetry.NewRegistry()
	tight, tightSrv := denseServer(t, Options{CacheSize: 1, Telemetry: reg})
	roomy, roomySrv := denseServer(t, Options{Telemetry: telemetry.NewRegistry()})
	path := "/api/browse?x1=0&y1=0&x2=128&y2=64&cols=128&rows=64"
	_, want := get(t, roomySrv.URL+path)
	if len(want) <= cacheBytesPerEntry {
		t.Fatalf("the %d-byte map fits one entry's budget; the test needs a larger one", len(want))
	}
	for i := 0; i < 2; i++ {
		if code, body := get(t, tightSrv.URL+path); code != 200 || body != want {
			t.Fatalf("request %d: status %d, body differs from the caching server's: %v", i, code, body != want)
		}
	}
	if _, again := get(t, roomySrv.URL+path); again != want {
		t.Fatal("the cached repeat differs from the computed body")
	}
	if hits, misses := tight.CacheStats(); hits != 0 || misses != 2 || tight.CacheBytes() != 0 {
		t.Errorf("tight server: %d hits / %d misses / %d bytes stored, want 0 / 2 / 0", hits, misses, tight.CacheBytes())
	}
	if got := reg.Counter("geobrowse_cache_bypass_total", "").Value(); got != 2 {
		t.Errorf("bypass counter = %d, want 2", got)
	}
	if hits, misses := roomy.CacheStats(); hits != 1 || misses != 1 || roomy.CacheBytes() != int64(len(want)) {
		t.Errorf("roomy server: %d hits / %d misses / %d bytes stored, want 1 / 1 / %d", hits, misses, roomy.CacheBytes(), len(want))
	}
}
