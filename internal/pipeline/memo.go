package pipeline

import "repro/internal/lru"

// Memo is a sharded LRU cache for stage results (internal/lru), keyed by
// the stage's input-derived key string, so concurrent runs memoizing
// different questions never contend on one lock.
//
// Values are stored as produced by the stage and returned to later runs
// by reference: memoized stage outputs must be treated as immutable by
// every consumer.
type Memo = lru.Cache[string, any]

// NewMemo builds a memo of roughly capacity entries over the given shard
// count; see lru.New for the rounding and the defaults non-positive
// arguments fall back to.
func NewMemo(capacity, shards int) *Memo {
	return lru.New[string, any](capacity, shards, lru.HashString)
}

// MemoStats is a point-in-time snapshot of memo effectiveness counters.
type MemoStats = lru.Stats
