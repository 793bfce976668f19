package qmemory

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/sqlengine"
	"repro/internal/wal"
)

func testRows() *sqlengine.Rows {
	return sqlengine.NewRows([]string{"n"}, [][]sqlengine.Value{{sqlengine.Int(42)}})
}

func TestAdmitLookupParaphrase(t *testing.T) {
	m, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(testRows())
	m.Admit("shop", "How many orders have status 'shipped'?", "status means order state",
		"SELECT COUNT(*) FROM orders WHERE status = 'shipped'", fp)

	// The exact phrasing hits.
	hit, ok := m.Lookup("shop", "How many orders have status 'shipped'?")
	if !ok {
		t.Fatal("exact phrasing should hit")
	}
	if hit.SQL != "SELECT COUNT(*) FROM orders WHERE status = 'shipped'" {
		t.Fatalf("wrong SQL: %q", hit.SQL)
	}
	if hit.Confidence < 0.85 {
		t.Fatalf("fresh pattern confidence %v below serve threshold", hit.Confidence)
	}

	// A paraphrase carrying the same literal hits too.
	hit2, ok := m.Lookup("shop", "Count the orders whose status equals 'shipped'.")
	if !ok {
		t.Fatal("paraphrase should hit")
	}
	if hit2.PatternID != hit.PatternID {
		t.Fatal("paraphrase matched a different pattern")
	}

	// A question missing the SQL's literal must NOT be served this
	// pattern, however lexically similar: the literal gate protects
	// against serving someone else's constants.
	if _, ok := m.Lookup("shop", "How many orders have status 'returned'?"); ok {
		t.Fatal("literal gate should reject a different-entity question")
	}

	// An unrelated database misses.
	if _, ok := m.Lookup("other", "How many orders have status 'shipped'?"); ok {
		t.Fatal("lookup must be db-scoped")
	}
}

// TestWritesAreRefused: neither admission nor replication takes a record
// whose SQL is not a SELECT; each refusal is counted, and a read beside it
// still lands.
func TestWritesAreRefused(t *testing.T) {
	m, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	const question = "How many orders are there?"
	m.Admit("shop", question, "", "DELETE FROM orders", "fp")
	m.Admit("shop", question, "", "  update orders SET status = 'x'", "fp")
	write := Record{ID: PatternID("shop", "DROP TABLE orders"), DB: "shop", SQL: "DROP TABLE orders",
		Confidence: 0.9, Successes: 50, Phrasings: []string{question}}
	if applied, err := m.Inject(write); applied || err != nil {
		t.Fatalf("Inject of a write = %v, %v; want refused", applied, err)
	}
	if _, ok := m.Lookup("shop", question); ok {
		t.Fatal("a refused write serves")
	}
	m.Admit("shop", question, "", "SELECT COUNT(*) FROM orders", "fp")
	if st := m.Stats(); st.Refused != 3 || st.Patterns != 1 || st.Admitted != 1 {
		t.Errorf("stats %+v; want 3 refused, 1 pattern admitted", st)
	}
}

func TestSuccessTeachesPhrasing(t *testing.T) {
	m, _ := New(Options{})
	fp := Fingerprint(testRows())
	m.Admit("shop", "How many orders have status 'shipped'?", "",
		"SELECT COUNT(*) FROM orders WHERE status = 'shipped'", fp)
	hit, ok := m.Lookup("shop", "Count orders with status 'shipped'")
	if !ok {
		t.Fatal("paraphrase should hit")
	}
	before := hit.Confidence
	m.Success(hit.PatternID, "Count orders with status 'shipped'")
	hit2, ok := m.Lookup("shop", "Count orders with status 'shipped'")
	if !ok {
		t.Fatal("taught phrasing should hit")
	}
	if hit2.Confidence <= before {
		t.Fatalf("success should raise confidence: %v -> %v", before, hit2.Confidence)
	}
	if hit2.Similarity < hit.Similarity {
		t.Fatalf("taught phrasing should match at least as well: %v -> %v", hit.Similarity, hit2.Similarity)
	}
	st := m.Stats()
	if st.Admitted != 1 || st.Reinforced != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestPoisonedPatternStopsServing is the memory-poisoning regression:
// a pattern whose SQL starts failing verification must lose confidence
// and stop being served — one failure is enough to demote it below the
// serve threshold.
func TestPoisonedPatternStopsServing(t *testing.T) {
	m, _ := New(Options{})
	fp := Fingerprint(testRows())
	q := "How many orders have status 'shipped'?"
	sql := "SELECT COUNT(*) FROM orders WHERE status = 'shipped'"
	m.Admit("shop", q, "", sql, fp)

	hit, ok := m.Lookup("shop", q)
	if !ok {
		t.Fatal("should hit before poisoning")
	}
	m.Failure(hit.PatternID)
	if _, ok := m.Lookup("shop", q); ok {
		t.Fatal("one failure must demote the pattern below the serve threshold")
	}
	st := m.Stats()
	if st.Demotions != 1 {
		t.Fatalf("want 1 demotion, got %+v", st)
	}

	// Re-admission (a fresh verified generation of the same SQL) restores
	// trust over successive successes.
	for i := 0; i < 8; i++ {
		m.Admit("shop", q, "", sql, fp)
	}
	if _, ok := m.Lookup("shop", q); !ok {
		t.Fatal("repeated verified successes should restore serving")
	}
}

func TestStoreRestartRestoresPatterns(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, wal.Options{Manifest: "corpus=test seed=1"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(testRows())
	m.Admit("shop", "How many orders have status 'shipped'?", "ev",
		"SELECT COUNT(*) FROM orders WHERE status = 'shipped'", fp)
	hit, ok := m.Lookup("shop", "How many orders have status 'shipped'?")
	if !ok {
		t.Fatal("should hit before restart")
	}
	m.Success(hit.PatternID, "Count orders whose status is 'shipped'")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir, wal.Options{Manifest: "corpus=test seed=1"})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Stats().Restored; got != 1 {
		t.Fatalf("want 1 restored pattern, got %d", got)
	}
	hit2, ok := m2.Lookup("shop", "Count orders whose status is 'shipped'")
	if !ok {
		t.Fatal("taught phrasing should survive restart")
	}
	if hit2.SQL != hit.SQL || hit2.Fingerprint != hit.Fingerprint {
		t.Fatal("restored pattern lost state")
	}
	if hit2.Confidence != hit.Confidence+0.25*(1-hit.Confidence) {
		t.Fatalf("restored confidence %v does not reflect the pre-restart success", hit2.Confidence)
	}
}

// TestStoreReplayRefusesWrites: a store record whose SQL is not a SELECT —
// written by a build that admitted one, or by hand — is refused on replay
// and counted, as Admit and Inject refuse it, and never becomes a pattern.
func TestStoreReplayRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const del = "DELETE FROM t"
	write := Record{ID: PatternID("d", del), DB: "d", SQL: del, Confidence: 0.99, Successes: 100, Phrasings: []string{"q"}}
	if err := st.Append(write); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if s := m.Stats(); s.Refused != 1 || s.Restored != 0 || s.Patterns != 0 || len(m.Patterns()) != 0 {
		t.Errorf("stats %+v, patterns %v; want the write refused and no pattern", s, m.Patterns())
	}
}

func TestStoreManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, wal.Options{Manifest: "corpus=a seed=1"})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := OpenStore(dir, wal.Options{Manifest: "corpus=b seed=2"}); err == nil {
		t.Fatal("manifest mismatch must refuse to open")
	}
}

func TestStoreTruncatesCorruptTail(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Record{ID: "a", DB: "d", SQL: "SELECT 1", Confidence: 0.9, Successes: 1, Phrasings: []string{"q"}}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Simulate a torn write: garbage after the valid frame.
	path := filepath.Join(dir, storeFiles.WAL)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("deadbeef {\"id\":\"torn")
	f.Close()

	st2, err := OpenStore(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if n := st2.Stats().Records; n != 1 {
		t.Fatalf("want 1 live record after truncation, got %d", n)
	}
	if st2.Stats().TailDropped != 1 {
		t.Fatal("stats should record the truncation")
	}
	// The store must be appendable after truncation (frame boundary
	// restored).
	if err := st2.Append(Record{ID: "b", DB: "d", SQL: "SELECT 2", Confidence: 0.9, Successes: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, wal.Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{ID: "a", DB: "d", SQL: "SELECT 1", Phrasings: []string{"q"}}
	for i := 0; i < 20; i++ {
		rec.Successes++
		rec.Confidence = float64(i) / 20
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction runs behind the appends (Memory calls Append under its
	// one mutex): the crossing append only rotates the WAL, and Flush is
	// what waits for the snapshot.
	if before := st.Stats(); before.WALRecords >= 20 {
		t.Fatalf("WAL never rotated at CompactEvery=4: %+v", before)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if after := st.Stats(); after.Compactions == 0 || after.SnapshotRecords != 1 || after.CompactErrors != 0 {
		t.Fatalf("compaction should have triggered: %+v", after)
	}
	st.Close()

	st2, err := OpenStore(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var got []Record
	st2.Load(func(r Record) { got = append(got, r) })
	if len(got) != 1 || got[0].Successes != 20 {
		t.Fatalf("replay after compaction: %+v", got)
	}
}

func TestInjectDominance(t *testing.T) {
	m, _ := New(Options{})
	rec := Record{ID: "x", DB: "d", SQL: "SELECT a FROM t", Confidence: 0.9, Successes: 2, Phrasings: []string{"q"}}
	if ok, _ := m.Inject(rec); !ok {
		t.Fatal("unknown pattern must apply")
	}
	// Fewer events: skip.
	older := rec
	older.Successes = 1
	if ok, _ := m.Inject(older); ok {
		t.Fatal("fewer events must not override")
	}
	// Same events, lower confidence: pessimism wins.
	demoted := rec
	demoted.Confidence = 0.4
	if ok, _ := m.Inject(demoted); !ok {
		t.Fatal("tie should break toward lower confidence")
	}
	// Identical record: no-op (echo).
	if ok, _ := m.Inject(demoted); ok {
		t.Fatal("identical record must be a no-op")
	}
	// More events always wins, even raising confidence back.
	newer := rec
	newer.Successes = 5
	newer.Confidence = 0.95
	if ok, _ := m.Inject(newer); !ok {
		t.Fatal("more events must apply")
	}
	hit, ok := m.Lookup("d", "q")
	if !ok || hit.Confidence != 0.95 {
		t.Fatalf("final state wrong: %+v ok=%v", hit, ok)
	}
}

func TestSQLLiterals(t *testing.T) {
	got := sqlLiterals("SELECT COUNT(*) FROM t1 WHERE name = 'O''Brien' AND qty > 12 OR price = 3.5 LIMIT 5")
	want := []string{"O'Brien", "12", "3.5", "5"}
	if len(got) != len(want) {
		t.Fatalf("literals %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("literals %v, want %v", got, want)
		}
	}
}

// Patterns returns a copy of every record, sorted by ID.
func (m *Memory) Patterns() []Record {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Record, 0, len(m.patterns))
	for _, p := range m.patterns {
		out = append(out, cloneRecord(p.rec))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
