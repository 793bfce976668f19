package qmemory

import (
	"repro/internal/sqlengine"
	"repro/internal/wal"
)

// Replication ships learned patterns between fleet replicas exactly the
// way evidence ships: a replica's Store serves its log's WAL through
// wal.Log.ServeReplication, and NewTailer follows a peer's feed with
// wal.Tailer. Each replicated record lands through Inject, whose
// dominance rule keeps the mesh convergent and echo-free even though
// every replica both serves and tails — and which checks and appends
// under the memory's one lock, so the store's last record for a pattern
// is always the version the index holds.

// NewTailer builds a tailer that replicates the memory of the peer named
// by source (see wal.NewTailer) into m through Inject.
func NewTailer(source string, m *Memory, opts wal.TailerOptions) *wal.Tailer[string, Record] {
	return wal.NewTailer(source, recordCodec{}, func(_ string, rec Record) (bool, error) { return m.Inject(rec) }, opts)
}

// Inject lands a replicated pattern. The dominance rule keeps the mesh
// convergent and echo-free:
//
//   - unknown pattern: apply;
//   - more observed events (successes+failures) than ours: the peer has
//     seen more of the world — apply;
//   - equal events but different state: break the tie toward the lower
//     confidence (pessimism is the safe direction for a serve gate), and
//     on an exact confidence tie toward more phrasings;
//   - otherwise: skip (our copy dominates, or the records are equal —
//     this is what stops A→B→A echo).
//
// A record whose SQL is not a SELECT is never applied, whatever its
// events: it is counted in Stats.Refused and reported as not applied.
//
// Injected patterns persist write-through like local mutations, so a
// replica that learned a pattern over the wire still has it after a
// restart.
func (m *Memory) Inject(rec Record) (applied bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !sqlengine.IsSelect(rec.SQL) {
		m.stats.Refused++
		return false, nil
	}
	cur, ok := m.patterns[rec.ID]
	if ok {
		ce, re := cur.rec.events(), rec.events()
		switch {
		case re > ce:
			// apply
		case re == ce && !sameRecord(cur.rec, rec) &&
			(rec.Confidence < cur.rec.Confidence ||
				rec.Confidence == cur.rec.Confidence && len(rec.Phrasings) > len(cur.rec.Phrasings)):
			// apply
		default:
			return false, nil
		}
	}
	if err := m.applyHeld(rec, true); err != nil {
		return false, err
	}
	m.stats.Injected++
	return true, nil
}

func sameRecord(a, b Record) bool {
	if a.ID != b.ID || a.DB != b.DB || a.SQL != b.SQL || a.Evidence != b.Evidence ||
		a.Fingerprint != b.Fingerprint || a.Confidence != b.Confidence ||
		a.Successes != b.Successes || a.Failures != b.Failures ||
		len(a.Phrasings) != len(b.Phrasings) {
		return false
	}
	for i := range a.Phrasings {
		if a.Phrasings[i] != b.Phrasings[i] {
			return false
		}
	}
	return true
}
