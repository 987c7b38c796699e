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
// themselves must tell one story after every operation, and no more than
// capacity bodies of at most one share each may be stored, each with no
// capacity to spare.
func checkCacheAccounting(t *testing.T, c *browseCache, when string) {
	t.Helper()
	c.mu.Lock()
	var sum int64
	largest := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		val := el.Value.(*cacheEntry).val
		sum += int64(len(val))
		largest = max(largest, len(val))
		if cap(val) != len(val) {
			t.Errorf("%s: a stored body of %d bytes has capacity %d", when, len(val), cap(val))
		}
	}
	entries, mapped := c.ll.Len(), len(c.entries)
	c.mu.Unlock()
	if mapped != entries || c.mEntries.Value() != int64(entries) {
		t.Fatalf("%s: list %d, map %d, entries gauge %d", when, entries, mapped, c.mEntries.Value())
	}
	if c.Bytes() != sum || c.mBytes.Value() != sum {
		t.Fatalf("%s: stored bodies hold %d bytes, Bytes %d, bytes gauge %d", when, sum, c.Bytes(), c.mBytes.Value())
	}
	if entries > c.capacity || largest > cacheBytesPerEntry {
		t.Fatalf("%s: %d entries, the largest %d bytes, exceed %d / %d", when, entries, largest, c.capacity, cacheBytesPerEntry)
	}
}

// TestBrowseCacheTwoBounds walks the entry bound and the share bound through
// scripted requests. Sizes are in units of cacheBytesPerEntry/4, so one
// share is 4 units. The caller scribbles over every body it computed once
// Do returns, as a server recycles it, so a hit that reads the caller's
// slice instead of the cache's copy shows.
func TestBrowseCacheTwoBounds(t *testing.T) {
	const unit = cacheBytesPerEntry / 4
	boom := errors.New("boom")
	type op struct {
		key   string
		units int  // body size when computed; ignored on a hit
		extra int  // bytes added to the body
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
		{"a body over one share is served, not stored, and evicts nothing", 2, []op{
			{key: "a", units: 3, computed: true, stored: "a"},
			{key: "b", units: 4, computed: true, stored: "b a"}, // exactly one share is stored
			{key: "big", units: 9, computed: true, stored: "b a", bypassed: 1},
			{key: "big", units: 9, computed: true, stored: "b a", bypassed: 1}, // recomputed every time
			{key: "a", stored: "a b"},
			{key: "b", stored: "b a"},
			{key: "over", units: 4, extra: 1, computed: true, stored: "b a", bypassed: 1}, // one byte over
			{key: "huge", units: 64, computed: true, stored: "b a", bypassed: 1},
			{key: "i", units: 0, computed: true, stored: "i b", evicted: 1}, // an empty body is an entry
			{key: "edge", units: 4, computed: true, stored: "edge i", evicted: 1},
			{key: "edge", stored: "edge i"},
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
			c := newBrowseCache(tc.capacity, telemetry.NewRegistry())
			for i, o := range tc.ops {
				when := fmt.Sprintf("op %d (%s)", i, o.key)
				evBefore, byBefore := c.mEvictions.Value(), c.mBypass.Value()
				computed := false
				body := bytes.Repeat([]byte{o.key[0]}, o.units*unit+o.extra)
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
				if err == nil && bytes.Count(val, []byte{o.key[0]}) != len(val) {
					t.Fatalf("%s: got a body that is not all %q", when, o.key[0])
				}
				for k := range body {
					body[k] = '!'
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
// identical requests for a body over one share are computed once like any
// other, every caller gets the body, and the cache — holding a small
// entry — is left exactly as it was. Each computation returns its
// own slice, which its caller overwrites once Do returns, as a server
// recycles it: a follower handed the leader's slice would read the
// overwrite. Callers that arrive after the leader finished find nothing
// stored and compute again, so the invariant is calls + deduplicated =
// callers; a round in which the followers were in time must turn up within
// a few tries.
func TestBrowseCacheOverBudgetSingleFlight(t *testing.T) {
	const callers = 8
	big := bytes.Repeat([]byte("x"), 2*cacheBytesPerEntry+1)
	for round := 0; round < 20; round++ {
		c := newBrowseCache(2, telemetry.NewRegistry())
		if _, err := c.Do("small", func() ([]byte, error) { return []byte("s"), nil }); err != nil {
			t.Fatal(err)
		}
		var calls, entered atomic.Int64
		got := make([][]byte, callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				entered.Add(1)
				var own []byte
				v, err := c.Do("big", func() ([]byte, error) {
					calls.Add(1)
					for entered.Load() < callers {
						runtime.Gosched()
					}
					for k := 0; k < 100; k++ { // let the others reach the flight
						runtime.Gosched()
					}
					own = bytes.Clone(big)
					return own, nil
				})
				if err != nil {
					t.Errorf("caller %d: %v", i, err)
				}
				if own == nil {
					got[i] = v // a follower's, read once every leader has overwritten its own
					return
				}
				if !bytes.Equal(v, big) || &v[0] != &own[0] {
					t.Errorf("caller %d computed the body but was not handed its own slice", i)
				}
				for k := range own {
					own[k] = '!'
				}
			}()
		}
		wg.Wait()
		dedup := c.mDedup.Value()
		for i, v := range got {
			if v != nil && !bytes.Equal(v, big) {
				t.Fatalf("round %d: follower %d read %d bytes that are not the body (%d of them 'x')",
					round, i, len(v), bytes.Count(v, []byte("x")))
			}
		}
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

// entryLRU is the plain capacity-entry LRU: least recently used out first.
// The reference of the differential test.
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
// maps cannot see the share bound: while every body is at most
// cacheBytesPerEntry, every one is stored, and the cache makes exactly the
// hit, miss and eviction decisions of the entry-count LRU.
func TestBrowseCacheMatchesEntryLRUForSmallBodies(t *testing.T) {
	backing := make([]byte, cacheBytesPerEntry)
	for _, capacity := range []int{1, 2, 7, 64} {
		r := rand.New(rand.NewSource(int64(2002 + capacity)))
		zipf := rand.NewZipf(r, 1.2, 4, uint64(4*capacity+10))
		c := newBrowseCache(capacity, telemetry.NewRegistry())
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

// TestBrowseOverBudgetMapBypassesTheCache: over HTTP, a tile map larger
// than one share is answered every time with the bytes of a server that
// stores nothing, and leaves the cache empty whatever its size; a map of
// one share or less is stored, and its repeat is a hit.
func TestBrowseOverBudgetMapBypassesTheCache(t *testing.T) {
	_, plainSrv := denseServer(t, Options{CacheSize: -1, Telemetry: telemetry.NewRegistry()})
	big := "/api/browse?x1=0&y1=0&x2=128&y2=64&cols=128&rows=64"
	small := "/api/browse?x1=0&y1=0&x2=128&y2=64&cols=32&rows=16"
	_, wantBig := get(t, plainSrv.URL+big)
	_, wantSmall := get(t, plainSrv.URL+small)
	if len(wantBig) <= cacheBytesPerEntry || len(wantSmall) > cacheBytesPerEntry {
		t.Fatalf("maps of %d and %d bytes, one share is %d; the test needs one over it and one within", len(wantBig), len(wantSmall), cacheBytesPerEntry)
	}
	for _, size := range []int{1, 0} { // -cache 1 and the default 64
		reg := telemetry.NewRegistry()
		s, srv := denseServer(t, Options{CacheSize: size, Telemetry: reg})
		bypass := reg.Counter("geobrowse_cache_bypass_total", "")
		evictions := reg.Counter("geobrowse_cache_evictions_total", "")
		for i := 0; i < 2; i++ {
			if code, body := get(t, srv.URL+big); code != 200 || body != wantBig {
				t.Fatalf("cache %d, request %d: status %d, body differs from the uncached server's: %v", size, i, code, body != wantBig)
			}
		}
		if hits, misses := s.CacheStats(); hits != 0 || misses != 2 || s.CacheBytes() != 0 || bypass.Value() != 2 {
			t.Errorf("cache %d: %d hits / %d misses / %d bytes stored / %d bypasses, want 0 / 2 / 0 / 2",
				size, hits, misses, s.CacheBytes(), bypass.Value())
		}
		for i := 0; i < 2; i++ {
			if code, body := get(t, srv.URL+small); code != 200 || body != wantSmall {
				t.Fatalf("cache %d, small request %d: status %d, body differs from the uncached server's: %v", size, i, code, body != wantSmall)
			}
		}
		if hits, misses := s.CacheStats(); hits != 1 || misses != 3 || s.CacheBytes() != int64(len(wantSmall)) || bypass.Value() != 2 || evictions.Value() != 0 {
			t.Errorf("cache %d: %d hits / %d misses / %d bytes stored / %d bypasses / %d evictions, want 1 / 3 / %d / 2 / 0",
				size, hits, misses, s.CacheBytes(), bypass.Value(), evictions.Value(), len(wantSmall))
		}
	}
}

// TestBrowseCacheDisabledStoresNothing: a capacity-0 cache (-cache -1)
// computes every request, stores no body however small, and neither
// evicts nor counts a bypass, so its size gauges stay at zero.
func TestBrowseCacheDisabledStoresNothing(t *testing.T) {
	c := newBrowseCache(0, telemetry.NewRegistry())
	calls := 0
	for i := 0; i < 3; i++ {
		v, err := c.Do("k", func() ([]byte, error) { calls++; return []byte("body"), nil })
		if err != nil || string(v) != "body" {
			t.Fatalf("request %d: %q, %v", i, v, err)
		}
		checkCacheAccounting(t, c, fmt.Sprintf("after request %d", i))
	}
	hits, misses := c.Stats()
	if calls != 3 || hits != 0 || misses != 3 || len(storedKeys(c)) != 0 {
		t.Fatalf("%d computations, %d hits / %d misses, %d stored; want 3, 0 / 3, 0", calls, hits, misses, len(storedKeys(c)))
	}
	if c.mEvictions.Value() != 0 || c.mBypass.Value() != 0 {
		t.Fatalf("%d evictions and %d bypasses counted by a disabled cache", c.mEvictions.Value(), c.mBypass.Value())
	}
}
