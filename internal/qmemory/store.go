package qmemory

import (
	"cmp"
	"encoding/json"
	"net/http"

	"repro/internal/obs"
	"repro/internal/wal"
)

// storeFiles are the names inside a memory directory. qmemory.wal and
// MANIFEST are what every earlier build wrote; the snapshot, tail and
// lock came with internal/wal's compaction and flock.
var storeFiles = wal.Files{
	WAL:      "qmemory.wal",
	Tail:     "qmemory.wal.tail",
	Snapshot: "qmemory.snapshot",
	Lock:     "LOCK",
	Manifest: "MANIFEST",
}

// recordCodec is the wal.Codec of pattern records, keyed by Record.ID.
type recordCodec struct{}

func (recordCodec) Encode(_ string, rec Record) ([]byte, error) { return json.Marshal(rec) }

// Decode rejects a record without an ID as a corrupt frame: no Memory
// ever wrote one.
func (recordCodec) Decode(payload []byte) (string, Record, bool) {
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil || rec.ID == "" {
		return "", Record{}, false
	}
	return rec.ID, rec, true
}

func (recordCodec) Compare(a, b string) int { return cmp.Compare(a, b) }

// Store is the memory's durable side: an internal/wal log of pattern
// records — see that package for the framing, replay, compaction and
// one-process-per-directory rule. Every confidence change appends the
// pattern's full record, so replay needs no delta logic and compaction is
// just "rewrite the live set". The log is a named field, not embedded:
// every write goes through Memory, under its lock (Append here, Inject
// for replicated records), so the log's point reads and its keyed Append
// are not part of this store's surface; its replication feed is.
type Store struct {
	log *wal.Log[string, Record]
}

// OpenStore opens (creating if needed) the store in dir and replays its
// live set. opts.Manifest should carry the corpus identity
// (evstore.Manifest formatting): reopening over a different one fails
// instead of serving another corpus's SQL.
func OpenStore(dir string, opts wal.Options) (*Store, error) {
	l, err := wal.Open(dir, storeFiles, recordCodec{}, opts)
	if err != nil {
		return nil, err
	}
	return &Store{l}, nil
}

// Append durably records a pattern's current state.
func (s *Store) Append(rec Record) error { return s.log.Append(rec.ID, rec) }

// Load replays the live set (sorted by ID for determinism) into fn.
func (s *Store) Load(fn func(Record)) {
	s.log.Load(func(_ string, rec Record) { fn(rec) })
}

// ServeReplication serves the log's WAL to a peer's NewTailer (see
// wal.Log.ServeReplication).
func (s *Store) ServeReplication(w http.ResponseWriter, r *http.Request) {
	s.log.ServeReplication(w, r)
}

// Flush reports a failed append and waits for any compaction in flight.
func (s *Store) Flush() error { return s.log.Flush() }

// Stats snapshots the log's counters.
func (s *Store) Stats() wal.Stats { return s.log.Stats() }

// Compact rewrites the live set as a snapshot now, rather than waiting
// for the background threshold.
func (s *Store) Compact() error { return s.log.Compact() }

// Close flushes and closes the log, releasing the directory.
func (s *Store) Close() error { return s.log.Close() }

// RegisterMetrics publishes the log's counters as qmemory_store_*.
func (s *Store) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	s.log.RegisterMetrics(reg, "qmemory_store", labels...)
}
