// Package lru is the one LRU under both in-memory reuse layers of the
// stack: the evidence cache (evserve.Cache) and the prepared-plan cache
// (sqlengine). Each keeps its key type and its exported stats type; the
// mechanics — one lock, one map, one recency list, an exact capacity and
// hit/miss/eviction counters — live here once.
package lru

import "sync"

// Cache is an LRU from K to V holding at most its capacity in entries.
// One mutex guards the map, the recency list and the counters. The zero
// value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*node[K, V]
	// root anchors the intrusive circular recency list: root.next is the
	// most recently used node, root.prev the eviction candidate.
	root node[K, V]

	hits, misses, evictions int64
}

// node is one entry; it carries its key so eviction can delete the map
// slot.
type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	val        V
}

// New builds an LRU of exactly capacity entries; a non-positive capacity
// falls back to 4096.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		capacity = 4096
	}
	c := &Cache[K, V]{capacity: capacity, entries: make(map[K]*node[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}

func (n *node[K, V]) unlink() {
	n.prev.next, n.next.prev = n.next, n.prev
}

// touch marks n most recently used.
func (c *Cache[K, V]) touch(n *node[K, V]) {
	if c.root.next != n {
		n.unlink()
		c.pushFront(n)
	}
}

// Get returns the value cached under k, marking it most recently used.
// The second result reports whether the key was present.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.touch(n)
	return n.val, true
}

// Peek returns the value cached under k without counting the lookup or
// touching recency: for a caller re-reading a key whose lookup it has
// already had counted by Get.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.entries[k]; ok {
		return n.val, true
	}
	var zero V
	return zero, false
}

// Put stores v under k, evicting the least recently used entry when the
// cache is full. Re-putting an existing key refreshes both the value and
// its recency.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.entries[k]; ok {
		n.val = v
		c.touch(n)
		return
	}
	if len(c.entries) >= c.capacity {
		oldest := c.root.prev
		oldest.unlink()
		delete(c.entries, oldest.key)
		c.evictions++
	}
	n := &node[K, V]{key: k, val: v}
	c.entries[k] = n
	c.pushFront(n)
}

// Len returns the current number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
// evserve.CacheStats is this type;
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.entries)}
}
