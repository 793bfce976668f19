// Package fleet is the multi-node robustness layer over seedd: a
// shard-aware front tier that consistent-hashes (db, question) across N
// seedd replicas so each replica's evidence cache and durable store stay
// hot for its shard, with per-replica health probes, bounded retries with
// exponential backoff and jitter, hedged retries to the next ring replica,
// and a circuit breaker that ejects flapping replicas and re-admits them
// after probation.
//
// The paper's practical-usability claim — evidence is generated once and
// reused forever — only survives production if the serving path tolerates
// crashes, slow nodes and partitions. Combined with WAL shipping in
// internal/evstore (each replica tails its peers' stores), a killed
// replica costs bounded tail latency, never availability: the next ring
// replica serves the dead replica's shard from replicated records with
// zero LLM calls.
package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-replica virtual-node count used when a
// Ring is built with vnodes <= 0. 128 points per replica keeps the
// keyspace spread within a few percent of uniform and the remap fraction
// on membership change near the ideal 1/N.
const DefaultVirtualNodes = 128

// ShardKey renders the routing key for one request. The router and any
// diagnostic tooling must build keys through this one function so a
// question always lands on the same shard regardless of which component
// asks. The NUL separator keeps ("ab","c") and ("a","bc") distinct.
func ShardKey(db, question string) string {
	return db + "\x00" + question
}

// ringPoint is one virtual node: a position on the 64-bit hash circle and
// the index of the replica that owns it.
type ringPoint struct {
	hash    uint64
	replica int
}

// Ring is an immutable consistent-hash ring over a set of replica names.
// Construction is deterministic: the same replica set (in any order)
// always produces the same ring, and key mapping depends only on hashes —
// never on Go map iteration order — so a restarted router routes every
// question to the same replica it did before. Build with NewRing; a Ring
// is safe for concurrent use.
type Ring struct {
	replicas []string
	points   []ringPoint
}

// NewRing builds a ring over the given replica names with the given
// virtual-node count per replica (<= 0 uses DefaultVirtualNodes).
// Duplicate names collapse to one replica. An empty replica set yields a
// ring whose lookups return nothing.
func NewRing(replicas []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make([]string, 0, len(replicas))
	seen := make(map[string]bool, len(replicas))
	for _, r := range replicas {
		if !seen[r] {
			seen[r] = true
			uniq = append(uniq, r)
		}
	}
	// Sorting first makes the ring independent of the order replicas were
	// listed in — a restarted router with a reordered -replicas flag still
	// maps every key identically.
	sort.Strings(uniq)
	ring := &Ring{replicas: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for i, name := range uniq {
		for v := 0; v < vnodes; v++ {
			ring.points = append(ring.points, ringPoint{hash: pointHash(name, v), replica: i})
		}
	}
	sort.Slice(ring.points, func(a, b int) bool {
		pa, pb := ring.points[a], ring.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		// A 64-bit collision between two replicas' points is vanishingly
		// rare but must still order deterministically.
		return ring.replicas[pa.replica] < ring.replicas[pb.replica]
	})
	return ring
}

// pointHash positions one virtual node on the circle: FNV-1a over
// "name\x00vnode", then mixed through fmix64.
func pointHash(name string, vnode int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(vnode)))
	return fmix64(h.Sum64())
}

// keyHash positions a shard key on the circle.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmix64(h.Sum64())
}

// fmix64 is MurmurHash3's 64-bit finalizer. FNV-1a alone is not enough
// here: a trailing-byte difference only moves the raw hash by about
// delta*prime (~2^44 for a final digit), which is far less than the
// ~2^55 average gap between ring points, so keys sharing a long prefix —
// "question 1" vs "question 2" — all collapse into one arc and one
// replica owns the whole family. The finalizer's shift-xor-multiply
// rounds give full avalanche, restoring uniform shard spread.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Replicas returns the ring's member names in sorted order. The returned
// slice is shared; callers must not mutate it.
func (r *Ring) Replicas() []string { return r.replicas }

// Successors returns up to n distinct replicas in ring order starting at
// the key's owner. Index 0 is the owner; index 1 is where a hedged retry
// goes when the owner fails — and, symmetrically, the peer whose shipped
// WAL should hold the owner's shard.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.replicas) {
		n = len(r.replicas)
	}
	kh := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !taken[p.replica] {
			taken[p.replica] = true
			out = append(out, r.replicas[p.replica])
		}
	}
	return out
}
