// Package evstore is the durability layer under the evidence cache: a
// crash-safe, append-only store that lets generated SEED evidence (and its
// per-stage provenance) survive process death. The paper's practicality
// claim is that evidence is generated once and reused across queries and
// sessions; without a durable store every seedd restart throws the evserve
// cache away and re-pays the full LLM round-trip cost for every question.
//
// The store is an internal/wal log — see that package for the on-disk
// format, the crash points and the replication feed — over the files
// wal.evs, wal.tail.evs, snapshot.evs, lock and manifest, with one JSON
// record per accepted evidence entry: the full cache key plus the entry.
package evstore

import (
	"cmp"
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/evserve"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/wal"
)

// files are the names inside a store directory; they are the on-disk
// format every earlier build wrote.
var files = wal.Files{
	WAL:      "wal.evs",
	Tail:     "wal.tail.evs",
	Snapshot: "snapshot.evs",
	Lock:     "lock",
	Manifest: "manifest",
}

// Manifest renders the canonical corpus-identity stamp every tool in this
// repository writes (seedd, seedgen, the experiment drivers, storebench),
// so a store produced by one opens cleanly in the others. Byte equality
// is load-bearing — Open refuses a store whose stamp differs — which is
// why the string is built in exactly one place.
func Manifest(corpus string, seed uint64) string {
	return fmt.Sprintf("corpus=%s seed=%d", corpus, seed)
}

// Options and Stats are the log's own: see internal/wal.
type (
	Options = wal.Options
	Stats   = wal.Stats
)

// record is the on-disk JSON payload: the full cache key plus the entry.
// QHash is persisted rather than recomputed because evserve hashes the
// whole (db, variant, question) triple and the question text itself is not
// stored — the store never needs it, only the key the cache will look up.
type record struct {
	DB       string          `json:"db"`
	Variant  string          `json:"variant"`
	QHash    uint64          `json:"qhash"`
	Evidence string          `json:"evidence"`
	Trace    *pipeline.Trace `json:"trace,omitempty"`
}

// codec is the wal.Codec of evidence records.
type codec struct{}

func (codec) Encode(k evserve.Key, e evserve.Entry) ([]byte, error) {
	return json.Marshal(record{
		DB: k.DB, Variant: k.Variant, QHash: k.QHash,
		Evidence: e.Evidence, Trace: e.Trace,
	})
}

func (codec) Decode(payload []byte) (evserve.Key, evserve.Entry, bool) {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return evserve.Key{}, evserve.Entry{}, false
	}
	return evserve.Key{DB: rec.DB, Variant: rec.Variant, QHash: rec.QHash},
		evserve.Entry{Evidence: rec.Evidence, Trace: rec.Trace}, true
}

// Compare orders keys by DB, then variant, then hash.
func (codec) Compare(a, b evserve.Key) int {
	return cmp.Or(cmp.Compare(a.DB, b.DB), cmp.Compare(a.Variant, b.Variant), cmp.Compare(a.QHash, b.QHash))
}

// Store is a durable evidence store. Construct with Open; the zero value
// is not usable. It implements evserve.Store.
type Store struct {
	*wal.Log[evserve.Key, evserve.Entry]
}

// Open creates (or re-opens) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	l, err := wal.Open(dir, files, codec{}, opts)
	if err != nil {
		return nil, err
	}
	return &Store{l}, nil
}

// Load streams every live entry (latest per key) to fn, in a
// deterministic key order. evserve.New uses it to rebuild the evidence
// cache on startup.
func (s *Store) Load(fn func(evserve.Key, evserve.Entry)) error {
	s.Log.Load(fn)
	return nil
}

// RegisterMetrics publishes the store's counters into reg as evstore_*.
func (s *Store) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	s.Log.RegisterMetrics(reg, "evstore", labels...)
}

// TailerOptions configures a Tailer (see wal.TailerOptions).
type TailerOptions = wal.TailerOptions

// Tailer replicates one peer's store into a local store by tailing its
// WAL over HTTP.
type Tailer = wal.Tailer[evserve.Key, evserve.Entry]

// NewTailer builds a tailer that replicates from the peer named by source
// (see wal.NewTailer) into store. A record is skipped when the store
// already holds an identical entry: full-mesh shipping would otherwise
// echo every record back and forth forever. Every record appended is then
// handed to inject, when non-nil — seedd puts replicated evidence
// straight into the serving cache, so a promoted follower answers from
// memory.
func NewTailer(source string, store *Store, inject func(evserve.Key, evserve.Entry), opts TailerOptions) *Tailer {
	land := func(k evserve.Key, e evserve.Entry) (bool, error) {
		if held, ok := store.Get(k); ok && held.Evidence == e.Evidence && reflect.DeepEqual(held.Trace, e.Trace) {
			return false, nil
		}
		if err := store.Append(k, e); err != nil {
			return false, err
		}
		if inject != nil {
			inject(k, e)
		}
		return true, nil
	}
	return wal.NewTailer(source, codec{}, land, opts)
}
