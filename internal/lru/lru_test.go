package lru_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/evserve"
	"repro/internal/lru"
	"repro/internal/sqlengine"
)

func TestEvictionOrderAndRefresh(t *testing.T) {
	c := lru.New[string, int](2)
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
	c := lru.New[string, int](2)
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

// TestCapacityIsExact: a cache of capacity n holds any n keys, and the
// key after them evicts exactly one entry, the least recently used of all.
func TestCapacityIsExact(t *testing.T) {
	for _, n := range []int{1, 10, 100} {
		c := lru.New[string, int](n)
		for i := 0; i < n; i++ {
			c.Put(fmt.Sprintf("k%d", i), i)
		}
		if st := c.Stats(); st.Entries != n || st.Evictions != 0 {
			t.Fatalf("n=%d: %+v after n puts, want n entries and no eviction", n, st)
		}
		// Refresh k0, so k1 (or k0 itself when it is the only key) is the
		// least recently used.
		c.Get("k0")
		oldest := "k1"
		if n == 1 {
			oldest = "k0"
		}
		c.Put("extra", -1)
		if st := c.Stats(); st.Entries != n || st.Evictions != 1 {
			t.Fatalf("n=%d: %+v after n+1 puts, want n entries and one eviction", n, st)
		}
		if _, ok := c.Peek(oldest); ok {
			t.Errorf("n=%d: %s survived; it was the least recently used", n, oldest)
		}
		for i := 0; i < n; i++ {
			if k := fmt.Sprintf("k%d", i); k != oldest {
				if v, ok := c.Peek(k); !ok || v != i {
					t.Errorf("n=%d: %s = %d, %v; want %d, true", n, k, v, ok, i)
				}
			}
		}
	}
	// A non-positive capacity takes the default: 4096 entries fit.
	def := lru.New[uint64, int](0)
	for k := uint64(0); k < 4096; k++ {
		def.Put(k, 0)
	}
	if st := def.Stats(); st.Entries != 4096 || st.Evictions != 0 {
		t.Errorf("default-sized cache: %+v, want 4096 entries and no eviction", st)
	}
}

// TestConcurrentHammer is the -race assertion: many goroutines on one
// cache, every operation mixed.
func TestConcurrentHammer(t *testing.T) {
	c := lru.New[string, int](64)
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
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > 64 {
		t.Errorf("Len = %d, above the 64-entry bound", n)
	}
}

// TestHitAllocatesNothing pins the hot path of the two adapters: a hit
// must not allocate.
func TestHitAllocatesNothing(t *testing.T) {
	cache := evserve.NewCache(16)
	key := evserve.KeyFor("db", "seed_gpt", "question")
	cache.Put(key, evserve.Entry{Evidence: "ev"})

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
