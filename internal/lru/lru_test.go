package lru_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/evserve"
	"repro/internal/lru"
	"repro/internal/pipeline"
	"repro/internal/sqlengine"
)

func TestEvictionOrderAndRefresh(t *testing.T) {
	c := lru.New[string, int](2, 1, lru.HashString) // one shard, two entries
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Put("c", 3) // evicts b: a was refreshed by the Get above
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	// Re-putting refreshes value and recency: c becomes the eviction
	// candidate.
	c.Put("a", 10)
	c.Put("d", 4)
	if _, ok := c.Get("c"); ok {
		t.Error("c should have been evicted: a was re-put after it")
	}
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Errorf("a = %d, %v; want the re-put value 10", v, ok)
	}
	if v, ok := c.Get("d"); !ok || v != 4 {
		t.Errorf("d = %d, %v; want 4", v, ok)
	}
	st := c.Stats()
	if st.Evictions != 2 || st.Entries != 2 {
		t.Errorf("evictions = %d, entries = %d; want 2, 2", st.Evictions, st.Entries)
	}
	if st.Hits != 3 || st.Misses != 2 {
		t.Errorf("hits = %d, misses = %d; want 3, 2", st.Hits, st.Misses)
	}
}

// TestPeekCountsAndRefreshesNothing: Peek reads a value and leaves both
// the hit/miss counters and the eviction order as it found them.
func TestPeekCountsAndRefreshesNothing(t *testing.T) {
	c := lru.New[string, int](2, 1, lru.HashString)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v; want 1, true", v, ok)
	}
	if _, ok := c.Peek("zz"); ok {
		t.Fatal("Peek found a key that was never put")
	}
	c.Put("c", 3) // a is still the oldest: the Peek did not refresh it
	if _, ok := c.Peek("a"); ok {
		t.Error("a survived eviction: Peek refreshed its recency")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("hits = %d, misses = %d after Peeks only; want 0, 0", st.Hits, st.Misses)
	}
}

func TestShardRoundingAndPerShardCapacity(t *testing.T) {
	// 3 shards round up to 4; ceil(10/4) = 3 per shard, so the exact
	// bound is 12, and one shard alone never holds more than 3.
	c := lru.New[uint64, int](10, 3, func(k uint64) uint64 { return k })
	for k := uint64(0); k < 400; k++ {
		c.Put(k, int(k))
	}
	if got := c.Len(); got != 12 {
		t.Errorf("Len = %d, want 4 shards x 3 entries", got)
	}
	one := lru.New[uint64, int](10, 3, func(uint64) uint64 { return 5 })
	for k := uint64(0); k < 50; k++ {
		one.Put(k, int(k))
	}
	if got := one.Len(); got != 3 {
		t.Errorf("Len = %d with every key in one shard, want 3", got)
	}
	if st := one.Stats(); st.Evictions != 47 {
		t.Errorf("evictions = %d, want 47", st.Evictions)
	}
	// Non-positive arguments take the defaults: 4096 entries fit.
	def := lru.New[uint64, int](0, 0, func(k uint64) uint64 { return k })
	for k := uint64(0); k < 4096; k++ {
		def.Put(k, 0)
	}
	if st := def.Stats(); st.Entries != 4096 || st.Evictions != 0 {
		t.Errorf("default-sized cache: %+v, want 4096 entries and no eviction", st)
	}
}

func TestResetKeepsCounters(t *testing.T) {
	c := lru.New[string, int](8, 2, lru.HashString)
	c.Put("a", 1)
	c.Get("a")
	c.Get("zz")
	c.Reset()
	if c.Len() != 0 {
		t.Errorf("Len after Reset = %d", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Error("entry survived Reset")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("counters after Reset: %+v, want 1 hit and 2 misses", st)
	}
	c.Put("a", 2)
	if v, ok := c.Get("a"); !ok || v != 2 {
		t.Error("cache unusable after Reset")
	}
}

func TestHashStringIsFNV1a(t *testing.T) {
	// Published FNV-1a 64 test vectors.
	for s, want := range map[string]uint64{
		"":       0xcbf29ce484222325,
		"a":      0xaf63dc4c8601ec8c,
		"foobar": 0x85944171f73967e8,
	} {
		if got := lru.HashString(s); got != want {
			t.Errorf("HashString(%q) = %#x, want %#x", s, got, want)
		}
	}
}

// TestConcurrentHammer is the -race assertion: many goroutines over few
// shards, every operation mixed.
func TestConcurrentHammer(t *testing.T) {
	c := lru.New[string, int](64, 4, lru.HashString)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", (i*7+w)%200)
				if v, ok := c.Get(k); ok && v != len(k) {
					t.Errorf("Get(%q) = %d, want %d", k, v, len(k))
					return
				}
				c.Put(k, len(k))
				if i%500 == 0 {
					c.Len()
					c.Stats()
				}
				if w == 0 && i == 1000 {
					c.Reset()
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > 64 {
		t.Errorf("Len = %d, above the 64-entry bound", n)
	}
}

// TestHitAllocatesNothing pins the hot path of the three adapters: a hit
// must not allocate.
func TestHitAllocatesNothing(t *testing.T) {
	cache := evserve.NewCache(16, 2)
	key := evserve.KeyFor("db", "seed_gpt", "question")
	cache.Put(key, evserve.Entry{Evidence: "ev"})

	memo := pipeline.NewMemo(16, 2)
	memo.Put("stage-key", "value")

	db := sqlengine.NewDatabase("allocs")
	db.MustExec("CREATE TABLE t (id INTEGER)")
	const q = "SELECT id FROM t WHERE id = 1"
	if _, err := db.Prepare(q); err != nil {
		t.Fatal(err)
	}

	for name, hit := range map[string]func(){
		"evserve.Cache.Get": func() {
			if _, ok := cache.Get(key); !ok {
				t.Fatal("miss")
			}
		},
		"pipeline.Memo.Get": func() {
			if _, ok := memo.Get("stage-key"); !ok {
				t.Fatal("miss")
			}
		},
		"sqlengine.PrepareCached": func() {
			if _, hit, err := db.PrepareCached(q); err != nil || !hit {
				t.Fatalf("hit = %v, err = %v", hit, err)
			}
		},
	} {
		if n := testing.AllocsPerRun(200, hit); n != 0 {
			t.Errorf("%s: %.1f allocs per hit, want 0", name, n)
		}
	}
}
