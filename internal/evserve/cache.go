package evserve

import (
	"hash/fnv"

	"repro/internal/lru"
	"repro/internal/pipeline"
)

// Key identifies one evidence request in the cache: the database name, the
// SEED variant that generated the evidence, and a 64-bit FNV-1a hash of the
// whole (db, variant, question) triple. Hashing the question keeps keys
// fixed-size regardless of prompt length; at 64 bits the collision
// probability is negligible for any realistic corpus. Always construct
// through KeyFor — QHash doubles as the shard selector, so a hand-built
// Key will not match one the cache stored.
type Key struct {
	// DB is the target database name.
	DB string
	// Variant names the SEED architecture (e.g. "seed_gpt").
	Variant string
	// QHash is the FNV-1a hash of the (db, variant, question) triple.
	QHash uint64
}

// CacheNamespace maps a SEED variant and corpus name to the service
// variant string used in cache and store keys. Spider corpora get a
// "_spider" suffix: their evidence is generated over model-written
// description files, so it must never be served from (or persisted into)
// BIRD's namespace under the same variant. Every construction site —
// serving, seedgen, the experiment drivers — must use this one rule, or
// a shared store replays entries whose keys never match.
func CacheNamespace(variant, corpus string) string {
	if corpus == "spider" {
		return variant + "_spider"
	}
	return variant
}

// KeyFor builds the cache key for a (db, variant, question) triple. The
// hash covers all three components so it can double as the shard selector
// without re-hashing on the hot lookup path.
func KeyFor(db, variant, question string) Key {
	h := fnv.New64a()
	h.Write([]byte(db))
	h.Write([]byte{0})
	h.Write([]byte(variant))
	h.Write([]byte{0})
	h.Write([]byte(question))
	return Key{DB: db, Variant: variant, QHash: h.Sum64()}
}

// Cache is the sharded LRU of generated evidence: internal/lru keyed by
// Key, sharded by a mask over the precomputed QHash so Get and Put cost
// no hashing. Construct with NewCache.
type Cache = lru.Cache[Key, Entry]

// Entry is one cached evidence result: the evidence text plus the
// provenance trace of the generation that produced it. The trace is
// preserved across cache hits so a served response can always say where
// its evidence came from — it describes the original generation, not the
// lookup.
type Entry struct {
	// Evidence is the generated evidence text.
	Evidence string
	// Trace is the stage-graph provenance of the original generation;
	// nil when the wrapped generator is untraced.
	Trace *pipeline.Trace
}

// NewCache builds an evidence cache of roughly capacity entries over the
// given shard count; see lru.New for the rounding and the defaults
// non-positive arguments fall back to.
func NewCache(capacity, shards int) *Cache {
	return lru.New[Key, Entry](capacity, shards, func(k Key) uint64 { return k.QHash })
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters:
// a miss is a lookup that fell through to generation.
type CacheStats = lru.Stats
