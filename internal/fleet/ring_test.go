package fleet

import (
	"fmt"
	"testing"
)

// testKeys builds a deterministic 10k-question keyspace shaped like real
// routing keys: a handful of databases, many distinct questions.
func testKeys(n int) []string {
	dbs := []string{"financial", "california_schools", "toxicology", "card_games"}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = ShardKey(dbs[i%len(dbs)], fmt.Sprintf("question %d about column %d", i, i*7))
	}
	return keys
}

func replicaNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("http://127.0.0.1:%d", 9000+i)
	}
	return names
}

// TestRingMinimalRemapOnMembershipChange is the consistent-hashing
// property the shard-aware router depends on: adding or removing one of N
// replicas may remap only ~1/N of the keyspace. A modulo-hash router
// would remap nearly everything, flushing every replica's hot cache on
// each membership change.
func TestRingMinimalRemapOnMembershipChange(t *testing.T) {
	keys := testKeys(10000)
	const n = 5
	full := NewRing(replicaNames(n), 0)

	t.Run("remove one of N", func(t *testing.T) {
		smaller := NewRing(replicaNames(n)[:n-1], 0)
		removed := replicaNames(n)[n-1]
		moved := 0
		for _, k := range keys {
			before, after := owner(full, k), owner(smaller, k)
			if before != after {
				moved++
				// Only keys the departed replica owned may move; everything
				// else must stay put — that is what keeps surviving caches hot.
				if before != removed {
					t.Fatalf("key %q moved from surviving replica %s to %s", k, before, after)
				}
			}
		}
		frac := float64(moved) / float64(len(keys))
		ideal := 1.0 / float64(n)
		if frac > 1.5*ideal {
			t.Fatalf("removing 1 of %d replicas remapped %.3f of the keyspace (ideal %.3f, bound %.3f)",
				n, frac, ideal, 1.5*ideal)
		}
	})

	t.Run("add one more", func(t *testing.T) {
		bigger := NewRing(replicaNames(n+1), 0)
		added := replicaNames(n + 1)[n]
		moved := 0
		for _, k := range keys {
			before, after := owner(full, k), owner(bigger, k)
			if before != after {
				moved++
				if after != added {
					t.Fatalf("key %q moved to %s, not the newly added replica", k, after)
				}
			}
		}
		frac := float64(moved) / float64(len(keys))
		ideal := 1.0 / float64(n+1)
		if frac > 1.5*ideal {
			t.Fatalf("adding a replica remapped %.3f of the keyspace (ideal %.3f, bound %.3f)",
				frac, ideal, 1.5*ideal)
		}
	})
}

// TestRingStableAcrossConstruction pins that the mapping is a pure
// function of the membership set: rebuilt rings (process restarts) and
// reordered replica lists map every key identically. This is what rules
// out any dependence on Go map iteration order in the implementation.
func TestRingStableAcrossConstruction(t *testing.T) {
	keys := testKeys(10000)
	names := replicaNames(5)
	a := NewRing(names, 0)
	b := NewRing(names, 0) // fresh construction = restart
	shuffled := []string{names[3], names[0], names[4], names[2], names[1]}
	c := NewRing(shuffled, 0)
	for _, k := range keys {
		oa, ob, oc := owner(a, k), owner(b, k), owner(c, k)
		if oa != ob {
			t.Fatalf("key %q maps to %s then %s across identical constructions", k, oa, ob)
		}
		if oa != oc {
			t.Fatalf("key %q maps to %s then %s when the replica list is reordered", k, oa, oc)
		}
	}
}

// TestRingBalance bounds the per-replica keyspace share: with 128 virtual
// nodes per replica no replica may own a pathological slice of the ring.
func TestRingBalance(t *testing.T) {
	keys := testKeys(10000)
	names := replicaNames(5)
	ring := NewRing(names, 0)
	counts := make(map[string]int)
	for _, k := range keys {
		counts[owner(ring, k)]++
	}
	mean := float64(len(keys)) / float64(len(names))
	for _, name := range names {
		share := float64(counts[name])
		if share > 2*mean || share < mean/2.5 {
			t.Fatalf("replica %s owns %d of %d keys (mean %.0f) — ring is unbalanced", name, counts[name], len(keys), mean)
		}
	}
}

// TestRingSuccessors pins the failover order contract: entries are
// distinct, and the list is a prefix of the full ring order (asking for
// fewer returns the same heads).
func TestRingSuccessors(t *testing.T) {
	names := replicaNames(4)
	ring := NewRing(names, 0)
	for _, k := range testKeys(100) {
		all := ring.Successors(k, len(names))
		if len(all) != len(names) {
			t.Fatalf("Successors returned %d replicas, want %d", len(all), len(names))
		}
		seen := make(map[string]bool)
		for _, r := range all {
			if seen[r] {
				t.Fatalf("Successors repeated replica %s", r)
			}
			seen[r] = true
		}
		two := ring.Successors(k, 2)
		if len(two) != 2 || two[0] != all[0] || two[1] != all[1] {
			t.Fatalf("Successors(2) = %v is not a prefix of Successors(all) = %v", two, all)
		}
	}
	if got := ring.Successors("k", 0); got != nil {
		t.Fatalf("Successors(0) = %v, want nil", got)
	}
	empty := NewRing(nil, 0)
	if got := empty.Successors("k", 1); got != nil {
		t.Fatalf("empty ring: Successors = %v, want nil", got)
	}
}

// owner is the replica that owns key: its first successor.
func owner(r *Ring, key string) string { return r.Successors(key, 1)[0] }
