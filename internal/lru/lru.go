// Package lru is the one sharded LRU under every in-memory reuse layer of
// the stack: the evidence cache (evserve.Cache), the stage memos
// (pipeline.Memo) and the prepared-plan cache (sqlengine). Each of those
// keeps its key type, its hash and its exported stats type; the
// mechanics — power-of-two shards, one lock and one recency list per
// shard, hit/miss/eviction counters — live here once.
package lru

import (
	"sync"
	"sync/atomic"
)

// Cache is a sharded LRU from K to V. Each shard has its own lock and
// recency list, so concurrent lookups on different shards never contend.
// The zero value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	shards []shard[K, V]
	mask   uint64
	hash   func(K) uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// shard is one independently locked LRU segment. Its recency list is
// intrusive and circular through root: root.next is the most recently
// used node, root.prev the eviction candidate.
type shard[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*node[K, V]
	root     node[K, V]
}

// node is one entry; it carries its key so eviction can delete the map
// slot.
type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	val        V
}

// New builds a sharded LRU of roughly capacity entries over the given
// shard count. Shards is rounded up to a power of two and each shard
// holds ceil(capacity/shards) entries, so the exact total bound is that
// per-shard capacity times the shard count — slightly above capacity when
// it doesn't divide evenly. Non-positive arguments fall back to defaults
// (capacity 4096, 16 shards). hash picks a key's shard: it must be
// deterministic per key and should spread keys evenly over its low bits.
func New[K comparable, V any](capacity, shards int, hash func(K) uint64) *Cache[K, V] {
	if capacity <= 0 {
		capacity = 4096
	}
	if shards <= 0 {
		shards = 16
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	c := &Cache[K, V]{shards: make([]shard[K, V], n), mask: uint64(n - 1), hash: hash}
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = perShard
		s.reset()
	}
	return c
}

// HashString is 64-bit FNV-1a over s, the shard hash of the string-keyed
// caches. Written out because hash/fnv only takes byte slices.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (s *shard[K, V]) reset() {
	s.entries = make(map[K]*node[K, V])
	s.root.prev, s.root.next = &s.root, &s.root
}

func (s *shard[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &s.root, s.root.next
	n.prev.next, n.next.prev = n, n
}

func (n *node[K, V]) unlink() {
	n.prev.next, n.next.prev = n.next, n.prev
}

// touch marks n most recently used.
func (s *shard[K, V]) touch(n *node[K, V]) {
	if s.root.next != n {
		n.unlink()
		s.pushFront(n)
	}
}

func (c *Cache[K, V]) shardFor(k K) *shard[K, V] {
	return &c.shards[c.hash(k)&c.mask]
}

// Get returns the value cached under k, marking it most recently used.
// The second result reports whether the key was present.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	n, ok := s.entries[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	s.touch(n)
	v := n.val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Peek returns the value cached under k without counting the lookup or
// touching recency: for a caller re-reading a key whose lookup it has
// already had counted by Get.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.entries[k]; ok {
		return n.val, true
	}
	var zero V
	return zero, false
}

// Put stores v under k, evicting the shard's least recently used entry
// when the shard is full. Re-putting an existing key refreshes both the
// value and its recency.
func (c *Cache[K, V]) Put(k K, v V) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.entries[k]; ok {
		n.val = v
		s.touch(n)
		return
	}
	if len(s.entries) >= s.capacity {
		oldest := s.root.prev
		oldest.unlink()
		delete(s.entries, oldest.key)
		c.evictions.Add(1)
	}
	n := &node[K, V]{key: k, val: v}
	s.entries[k] = n
	s.pushFront(n)
}

// Reset drops every entry (counters are preserved). Benchmarks use it to
// re-measure the cold path on a warmed pipeline.
func (c *Cache[K, V]) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.reset()
		s.mu.Unlock()
	}
}

// Len returns the current number of cached entries across all shards.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
// evserve.CacheStats and pipeline.MemoStats are this type;
// sqlengine.PlanCacheStats shares its field set and converts from it.
type Stats struct {
	// Hits counts lookups served from the cache.
	Hits int64
	// Misses counts lookups that found nothing.
	Misses int64
	// Evictions counts entries displaced by the LRU policy.
	Evictions int64
	// Entries is the current population.
	Entries int
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
