package evstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/evserve"
	"repro/internal/pipeline"
	"repro/internal/wal"
)

// testEntry builds a deterministic entry with a trace, so persistence
// tests cover the provenance path too.
func testEntry(text string, wall int64) evserve.Entry {
	return evserve.Entry{
		Evidence: text,
		Trace: &pipeline.Trace{
			Graph: "seed_evidence",
			Stages: []pipeline.StageTrace{
				{Stage: "extract_keywords", WallMicros: wall, Tokens: 12},
				{Stage: "generate", Deps: []string{"extract_keywords"}, WallMicros: wall * 2, Tokens: 40},
			},
			WallMicros:   wall * 3,
			SerialMicros: wall * 3,
		},
	}
}

// frame renders one record as it sits on disk, independently of the log's
// own writer: "%08x payload\n" with the CRC-32C of the payload.
func frame(k evserve.Key, e evserve.Entry) []byte {
	payload, err := codec{}.Encode(k, e)
	if err != nil {
		panic(err)
	}
	return fmt.Appendf(nil, "%08x %s\n", crc32.Checksum(payload, castagnoli), payload)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// loadAll replays a store into a map for assertions.
func loadAll(t *testing.T, s *Store) map[evserve.Key]evserve.Entry {
	t.Helper()
	got := make(map[evserve.Key]evserve.Entry)
	if err := s.Load(func(k evserve.Key, e evserve.Entry) { got[k] = e }); err != nil {
		t.Fatalf("Load: %v", err)
	}
	return got
}

// mustJSON marshals for byte-level comparisons.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k1 := evserve.KeyFor("financial", "seed_gpt", "How many accounts?")
	k2 := evserve.KeyFor("financial", "seed_gpt", "List loans over 10k")
	e1, e2 := testEntry("accounts means table account", 100), testEntry("loan.amount is in CZK", 250)
	if err := s.Append(k1, e1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(k2, e2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := loadAll(t, r)
	if len(got) != 2 {
		t.Fatalf("reopened store has %d entries, want 2", len(got))
	}
	for k, want := range map[evserve.Key]evserve.Entry{k1: e1, k2: e2} {
		if !bytes.Equal(mustJSON(t, got[k]), mustJSON(t, want)) {
			t.Errorf("entry for %v not byte-identical after reopen:\n got %s\nwant %s",
				k, mustJSON(t, got[k]), mustJSON(t, want))
		}
	}
	st := r.Stats()
	if st.Records != 2 || st.TailDropped != 0 {
		t.Errorf("stats = %+v, want 2 records, 0 dropped", st)
	}
	if st.ReplayMicros < 0 {
		t.Errorf("negative replay time: %+v", st)
	}
}

func TestReappendLatestWins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := evserve.KeyFor("card_games", "seed_gpt", "q")
	if err := s.Append(k, testEntry("old", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(k, testEntry("new", 2)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (latest per key)", s.Len())
	}
	s.Close()

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := loadAll(t, r)
	if got[k].Evidence != "new" {
		t.Fatalf("replayed evidence = %q, want the newest record to win", got[k].Evidence)
	}
}

func TestCompactionSnapshotsAndEmptiesWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]evserve.Key, 10)
	for i := range keys {
		keys[i] = evserve.KeyFor("db", "v", strings.Repeat("q", i+1))
		if err := s.Append(keys[i], testEntry(strings.Repeat("e", i+1), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Two post-compaction appends land in the fresh WAL generation.
	for i := 0; i < 2; i++ {
		k := evserve.KeyFor("db", "v", strings.Repeat("z", i+1))
		keys = append(keys, k)
		if err := s.Append(k, testEntry("post-compact", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions != 1 || st.SnapshotRecords != 10 || st.WALRecords != 2 {
		t.Fatalf("stats after compaction = %+v, want 1 compaction, 10 snapshot records, 2 wal records", st)
	}
	s.Close()

	// Disk state matches the counters: compacted snapshot + fresh WAL, no
	// leftover tail.
	wal, err := os.ReadFile(filepath.Join(dir, files.WAL))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(wal, []byte{'\n'}); n != st.WALRecords {
		t.Fatalf("wal holds %d records on disk, stats say %d", n, st.WALRecords)
	}
	snap, err := os.ReadFile(filepath.Join(dir, files.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(snap, []byte{'\n'}); n != st.SnapshotRecords {
		t.Fatalf("snapshot holds %d records on disk, stats say %d", n, st.SnapshotRecords)
	}
	if _, err := os.Stat(filepath.Join(dir, files.Tail)); !os.IsNotExist(err) {
		t.Fatalf("tail WAL still present after completed compaction: %v", err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := loadAll(t, r); len(got) != len(keys) {
		t.Fatalf("replayed %d entries after compaction, want %d", len(got), len(keys))
	}
}

// TestAutoCompactionRunsInBackground: crossing CompactEvery triggers a
// compaction off the append path; Flush waits for it, and nothing is
// lost across a reopen.
func TestAutoCompactionRunsInBackground(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	const total = 10
	for i := 0; i < total; i++ {
		if err := s.Append(evserve.KeyFor("db", "v", strings.Repeat("q", i+1)), testEntry("e", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil { // waits for in-flight compactions
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compactions < 1 {
		t.Fatalf("no background compaction ran after %d appends at CompactEvery=4: %+v", total, st)
	}
	if st.CompactErrors != 0 {
		t.Fatalf("compact errors: %+v", st)
	}
	s.Close()

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := loadAll(t, r); len(got) != total {
		t.Fatalf("replayed %d entries, want %d", len(got), total)
	}
	if st := r.Stats(); st.TailDropped != 0 {
		t.Fatalf("background compaction corrupted the log: %+v", st)
	}
}

// TestCrashMidCompactionRecovers: a crash between WAL rotation and
// snapshot rename leaves snapshot + wal.tail.evs + wal.evs on disk; Open
// must replay all three (snapshot, then tail, then WAL) and absorb the
// tail into a fresh snapshot.
func TestCrashMidCompactionRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	k1 := evserve.KeyFor("db", "v", "rotated-away")
	if err := s.Append(k1, testEntry("old-value", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash point: the WAL was rotated to the tail, a fresh
	// WAL took one more append (overwriting k1), and the snapshot never
	// landed.
	if err := os.Rename(filepath.Join(dir, files.WAL), filepath.Join(dir, files.Tail)); err != nil {
		t.Fatal(err)
	}
	k2 := evserve.KeyFor("db", "v", "post-rotation")
	line := frame(k2, evserve.Entry{Evidence: "fresh"})
	line2 := frame(k1, evserve.Entry{Evidence: "new-value"})
	if err := os.WriteFile(filepath.Join(dir, files.WAL), append(line, line2...), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open over interrupted compaction: %v", err)
	}
	got := loadAll(t, r)
	if len(got) != 2 {
		t.Fatalf("recovered %d records, want 2", len(got))
	}
	// WAL replays after the tail, so its overwrite of k1 wins.
	if got[k1].Evidence != "new-value" || got[k2].Evidence != "fresh" {
		t.Fatalf("replay order wrong: %+v", got)
	}
	// The tail was absorbed into a fresh snapshot.
	if _, err := os.Stat(filepath.Join(dir, files.Tail)); !os.IsNotExist(err) {
		t.Fatalf("tail WAL not absorbed at Open: %v", err)
	}
	st := r.Stats()
	if st.SnapshotRecords != 2 || st.Compactions != 1 {
		t.Fatalf("absorb stats = %+v, want 2 snapshot records from 1 compaction", st)
	}
	// And the store remains fully usable afterwards.
	if err := r.Append(evserve.KeyFor("db", "v", "after"), testEntry("x", 3)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := loadAll(t, r2); len(got) != 3 {
		t.Fatalf("post-recovery state lost records: %d, want 3", len(got))
	}
}

func TestExplicitCompactIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Append(evserve.KeyFor("db", "v", strings.Repeat("x", i+1)), testEntry("e", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Records != 5 || st.WALRecords != 0 || st.SnapshotRecords != 5 {
		t.Fatalf("stats after double compact = %+v", st)
	}
}

func TestBatchedFlushSurvivesOnlyAfterFlush(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	k := evserve.KeyFor("db", "v", "q")
	if err := s.Append(k, testEntry("buffered", 1)); err != nil {
		t.Fatal(err)
	}
	// What a SIGKILL right now would preserve is exactly the on-disk WAL:
	// the append is still in the bufio buffer, so the file must be empty.
	// (The flock forbids opening a second Store while this one is alive,
	// so crash survival is asserted at the byte level.)
	if wal := readWAL(t, filepath.Join(dir, files.WAL)); len(wal) != 0 {
		t.Fatalf("unflushed append reached disk: %d bytes", len(wal))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if wal := readWAL(t, filepath.Join(dir, files.WAL)); bytes.Count(wal, []byte{'\n'}) != 1 {
		t.Fatalf("flushed append not on disk: %q", wal)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if n := recovered.Len(); n != 1 {
		t.Fatalf("flushed append lost: %d entries, want 1", n)
	}
}

// TestSecondOpenRefusedWhileLocked: the one-process-per-directory rule is
// enforced, not just documented — a concurrent Open fails fast instead of
// interleaving WAL frames, and the directory is usable again after Close.
func TestSecondOpenRefusedWhileLocked(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open on a locked store directory succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	r.Close()
}

// TestManifestMismatchRefused: a store stamped for one corpus generation
// refuses to open for another — question text hashes identically across
// generation seeds, so replaying would serve stale evidence as hits.
func TestManifestMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Manifest: "corpus=bird seed=7"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(evserve.KeyFor("db", "v", "q"), testEntry("e", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Manifest: "corpus=bird seed=9"}); err == nil {
		t.Fatal("store built for seed 7 opened for seed 9")
	}
	// The matching manifest — and the no-manifest opt-out — both reopen.
	r, err := Open(dir, Options{Manifest: "corpus=bird seed=7"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("matching manifest lost data: %d entries", r.Len())
	}
	r.Close()
	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("manifest-less open should skip the check: %v", err)
	}
	r2.Close()
}

// TestSyncModeRoundTrip drives the fsync-everything configuration
// through append, compaction and reopen — the syncDir call sites all
// execute and the data round-trips.
func TestSyncModeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Append(evserve.KeyFor("db", "v", strings.Repeat("s", i+1)), testEntry("e", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(evserve.KeyFor("db", "v", "post"), testEntry("p", 9)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := loadAll(t, r); len(got) != 7 {
		t.Fatalf("sync-mode store replayed %d entries, want 7", len(got))
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Append(evserve.KeyFor("db", "v", "q"), testEntry("e", 1)); err != wal.ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := s.Flush(); err != wal.ErrClosed {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := evserve.KeyFor("db", "v", strings.Repeat("q", g*per+i+1))
				if err := s.Append(k, testEntry("e", int64(i))); err != nil {
					t.Errorf("append: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != goroutines*per {
		t.Fatalf("Len = %d, want %d", s.Len(), goroutines*per)
	}
	s.Close()

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := loadAll(t, r); len(got) != goroutines*per {
		t.Fatalf("replayed %d entries, want %d", len(got), goroutines*per)
	}
	if st := r.Stats(); st.TailDropped != 0 {
		t.Fatalf("concurrent appends left %d corrupt records", st.TailDropped)
	}
}
