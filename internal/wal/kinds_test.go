package wal_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/evserve"
	"repro/internal/evstore"
	"repro/internal/pipeline"
	"repro/internal/qmemory"
	"repro/internal/wal"
)

// store is what the suite needs of a log instance: numbered records in,
// numbered records out.
type store interface {
	put(i int, text string) error
	get(i int) (text string, ok bool)
	Len() int
	Stats() wal.Stats
	Flush() error
	Close() error
}

// kind is one instance of the log. The file names are spelled out here,
// not imported: they are the on-disk format, and a rename must fail this
// suite.
type kind struct {
	name          string
	wal, snapshot string
	open          func(dir string, opts wal.Options) (store, error)
}

var kinds = []kind{
	{"evstore", "wal.evs", "snapshot.evs", func(dir string, opts wal.Options) (store, error) {
		s, err := evstore.Open(dir, opts)
		return evidenceStore{s}, err
	}},
	{"qmemory", "qmemory.wal", "qmemory.snapshot", func(dir string, opts wal.Options) (store, error) {
		s, err := qmemory.OpenStore(dir, opts)
		return patternStore{s}, err
	}},
}

type evidenceStore struct{ *evstore.Store }

func evidenceKey(i int) evserve.Key {
	return evserve.KeyFor("financial", "seed_gpt", fmt.Sprintf("question %d", i))
}

// Every evidence record carries a two-stage trace, and get reports a
// record whose trace did not survive as damaged text: recovery must keep
// the provenance, not just the evidence.
func (s evidenceStore) put(i int, text string) error {
	return s.Append(evidenceKey(i), evserve.Entry{Evidence: text, Trace: &pipeline.Trace{
		Graph: "seed/seed_gpt",
		Stages: []pipeline.StageTrace{
			{Stage: "extract_keywords", WallMicros: int64(i + 1), Tokens: 12},
			{Stage: "generate", Deps: []string{"extract_keywords"}, WallMicros: 40, Tokens: 40},
		},
	}})
}

func (s evidenceStore) get(i int) (string, bool) {
	e, ok := s.Get(evidenceKey(i))
	if ok && (e.Trace == nil || len(e.Trace.Stages) != 2) {
		return e.Evidence + " (trace lost)", true
	}
	return e.Evidence, ok
}

type patternStore struct{ *qmemory.Store }

func patternSQL(i int) string {
	return fmt.Sprintf("SELECT COUNT(*) FROM account WHERE district_id = %d", i)
}

func (s patternStore) put(i int, text string) error {
	sql := patternSQL(i)
	return s.Append(qmemory.Record{
		ID: qmemory.PatternID("financial", sql), DB: "financial", SQL: sql,
		Evidence: text, Confidence: 0.9, Successes: 1, Phrasings: []string{"q"},
	})
}

// The memory store has no point read or Len of its own: a Memory only
// ever loads the whole live set.
func (s patternStore) get(i int) (text string, ok bool) {
	id := qmemory.PatternID("financial", patternSQL(i))
	s.Load(func(rec qmemory.Record) {
		if rec.ID == id {
			text, ok = rec.Evidence, true
		}
	})
	return text, ok
}

func (s patternStore) Len() int { return s.Stats().Records }

// forEachKind runs fn as a subtest per log instance.
func forEachKind(t *testing.T, fn func(t *testing.T, k kind)) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) { fn(t, k) })
	}
}

// populate writes records 0..n-1 ("e", "ee", ...) and closes the store.
func populate(t *testing.T, k kind, dir string, n int) {
	t.Helper()
	s, err := k.open(dir, wal.Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.put(i, strings.Repeat("e", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWALDamageRecovery is the durability contract under damage, for every
// instance: whatever happens to the tail of the log, Open recovers the
// longest valid prefix, reports what it dropped, and leaves the WAL
// appendable.
func TestWALDamageRecovery(t *testing.T) {
	const total = 6
	tests := []struct {
		name string
		// damage mutates the on-disk WAL after a clean shutdown.
		damage func(t *testing.T, path string)
		// wantRecords is how many of the appended records must survive,
		// wantDropped the TailDropped count Open must report.
		wantRecords, wantDropped int
	}{
		{"truncated tail record", func(t *testing.T, path string) {
			data := readFile(t, path)
			lines := bytes.SplitAfter(data, []byte{'\n'})
			last := lines[len(lines)-2] // the final element is the empty rest after the last \n
			writeFile(t, path, data[:len(data)-len(last)/2-1])
		}, total - 1, 1},
		{"crc mismatch mid-file", func(t *testing.T, path string) {
			data := readFile(t, path)
			lines := bytes.SplitAfter(data, []byte{'\n'})
			// One flipped payload byte in the third record: it and
			// everything after it is untrusted.
			data[len(lines[0])+len(lines[1])+20] ^= 0xff
			writeFile(t, path, data)
		}, 2, total - 2},
		{"bad frame mid-file", func(t *testing.T, path string) {
			lines := bytes.SplitAfter(readFile(t, path), []byte{'\n'})
			out := append([]byte{}, lines[0]...)
			out = append(out, "not a framed record\n"...)
			writeFile(t, path, append(out, bytes.Join(lines[2:], nil)...))
		}, 1, total - 1},
		{"valid frame the codec rejects", func(t *testing.T, path string) {
			lines := bytes.SplitAfter(readFile(t, path), []byte{'\n'})
			out := append([]byte{}, lines[0]...)
			out = append(out, "764dbd76 []\n"...) // CRC-32C of "[]" is right; no record is an array
			writeFile(t, path, append(out, bytes.Join(lines[1:], nil)...))
		}, 1, total},
		{"wal deleted entirely", func(t *testing.T, path string) { os.Remove(path) }, 0, 0},
		{"wal emptied", func(t *testing.T, path string) { writeFile(t, path, nil) }, 0, 0},
	}
	forEachKind(t, func(t *testing.T, k kind) {
		for _, tc := range tests {
			t.Run(tc.name, func(t *testing.T) {
				dir := t.TempDir()
				populate(t, k, dir, total)
				tc.damage(t, filepath.Join(dir, k.wal))

				s, err := k.open(dir, wal.Options{})
				if err != nil {
					t.Fatalf("Open over damaged WAL: %v", err)
				}
				if s.Len() != tc.wantRecords {
					t.Fatalf("recovered %d records, want %d", s.Len(), tc.wantRecords)
				}
				// The surviving records are exactly the prefix, intact.
				for i := 0; i < tc.wantRecords; i++ {
					if got, ok := s.get(i); !ok || got != strings.Repeat("e", i+1) {
						t.Fatalf("prefix record %d = %q, %v after recovery", i, got, ok)
					}
				}
				if st := s.Stats(); st.TailDropped != tc.wantDropped {
					t.Fatalf("TailDropped = %d, want %d", st.TailDropped, tc.wantDropped)
				}

				// The WAL was truncated to the valid prefix, so the store is
				// appendable: a fresh write lands cleanly after another cycle.
				if err := s.put(100, "fresh"); err != nil {
					t.Fatalf("append after recovery: %v", err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				r, err := k.open(dir, wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				if st := r.Stats(); st.TailDropped != 0 {
					t.Fatalf("second reopen still drops %d records — recovery did not repair the log", st.TailDropped)
				}
				if got, _ := r.get(100); r.Len() != tc.wantRecords+1 || got != "fresh" {
					t.Fatalf("post-recovery append not durable: %d records, %q", r.Len(), got)
				}
			})
		}
	})
}

// TestSnapshotDamageRecovery covers the snapshot side: an empty, missing
// or tail-corrupt snapshot degrades to its longest valid prefix plus
// whatever the WAL still holds.
func TestSnapshotDamageRecovery(t *testing.T) {
	tests := []struct {
		name                     string
		damage                   func(t *testing.T, path string)
		wantRecords, wantDropped int
	}{
		{"missing snapshot keeps wal", func(t *testing.T, path string) { os.Remove(path) }, 2, 0},
		{"empty snapshot keeps wal", func(t *testing.T, path string) { writeFile(t, path, nil) }, 2, 0},
		{"snapshot truncated mid-record", func(t *testing.T, path string) {
			data := readFile(t, path)
			writeFile(t, path, data[:len(data)-10])
		}, 3 + 2, 1},
	}
	forEachKind(t, func(t *testing.T, k kind) {
		for _, tc := range tests {
			t.Run(tc.name, func(t *testing.T) {
				// Four records in the snapshot, two more in the WAL: the
				// fourth append starts a compaction, and Flush waits for it.
				dir := t.TempDir()
				s, err := k.open(dir, wal.Options{CompactEvery: 4})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 6; i++ {
					if err := s.put(i, "x"); err != nil {
						t.Fatal(err)
					}
					if i == 3 {
						if err := s.Flush(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				tc.damage(t, filepath.Join(dir, k.snapshot))

				r, err := k.open(dir, wal.Options{})
				if err != nil {
					t.Fatalf("Open over damaged snapshot: %v", err)
				}
				defer r.Close()
				if r.Len() != tc.wantRecords {
					t.Fatalf("recovered %d records, want %d", r.Len(), tc.wantRecords)
				}
				if st := r.Stats(); st.TailDropped != tc.wantDropped {
					t.Fatalf("TailDropped = %d, want %d", st.TailDropped, tc.wantDropped)
				}
			})
		}
	})
}

// TestSecondOpenRefused: one process per directory, for every instance.
func TestSecondOpenRefused(t *testing.T) {
	forEachKind(t, func(t *testing.T, k kind) {
		dir := t.TempDir()
		s, err := k.open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.open(dir, wal.Options{}); err == nil {
			t.Fatal("second Open of a live directory succeeded; two writers would interleave frames")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := k.open(dir, wal.Options{})
		if err != nil {
			t.Fatalf("Open after the holder closed: %v", err)
		}
		r.Close()
	})
}

// copyDir copies a committed fixture into a scratch directory: Open takes
// a lock and may rewrite files.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		writeFile(t, filepath.Join(dst, e.Name()), readFile(t, filepath.Join(src, e.Name())))
	}
	return dst
}

// parentManifest is what the fixture directories were stamped with.
var parentManifest = evstore.Manifest("bird", 7)

// TestParentLayoutEvidenceStore opens a directory written by the commit
// before internal/wal existed, caught between a WAL rotation and the
// snapshot rename: snapshot.evs (records 1-3), wal.tail.evs (4-5) and
// wal.evs (6, and a newer 4). Every record must come back, newest wins,
// and the tail must be absorbed.
func TestParentLayoutEvidenceStore(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "parent", "evstore"))
	s, err := evstore.Open(dir, evstore.Options{Manifest: parentManifest})
	if err != nil {
		t.Fatalf("opening a parent-commit store: %v", err)
	}
	defer s.Close()
	if st := s.Stats(); st.Records != 6 || st.TailDropped != 0 || st.WALRecords != 2 || st.Compactions != 1 {
		t.Fatalf("stats = %+v; want 6 records, none dropped, 2 in the WAL, the tail absorbed", st)
	}
	for i, want := range map[int]string{1: "evidence 1", 3: "evidence 3", 4: "evidence 40", 5: "evidence 5", 6: "evidence 6"} {
		e, ok := s.Get(evidenceKey(i))
		if !ok || e.Evidence != want {
			t.Errorf("record %d = %q, %v; want %q", i, e.Evidence, ok, want)
		}
		if e.Trace == nil || len(e.Trace.Stages) != 2 {
			t.Errorf("record %d lost its trace: %+v", i, e.Trace)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.tail.evs")); !os.IsNotExist(err) {
		t.Errorf("tail not absorbed: %v", err)
	}
	if _, err := evstore.Open(copyDir(t, filepath.Join("testdata", "parent", "evstore")), evstore.Options{Manifest: evstore.Manifest("bird", 8)}); err == nil {
		t.Error("a different manifest opened a parent-commit store")
	}
}

// TestParentLayoutMemoryStore opens a parent-commit memory directory
// (qmemory.wal + MANIFEST, no snapshot, no lock file).
func TestParentLayoutMemoryStore(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "parent", "qmemory"))
	s, err := qmemory.OpenStore(dir, wal.Options{Manifest: parentManifest})
	if err != nil {
		t.Fatalf("opening a parent-commit memory store: %v", err)
	}
	if st := s.Stats(); st.Records != 3 || st.TailDropped != 0 || st.WALRecords != 4 {
		t.Fatalf("stats = %+v; want 3 patterns from 4 WAL records, none dropped", st)
	}
	var rec qmemory.Record
	ok := false
	s.Load(func(r qmemory.Record) {
		if r.ID == qmemory.PatternID("financial", patternSQL(2)) {
			rec, ok = r, true
		}
	})
	if !ok || rec.Successes != 2 || rec.Confidence != 0.925 || len(rec.Phrasings) != 2 {
		t.Fatalf("re-appended pattern = %+v, %v; want its newest state", rec, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := qmemory.OpenStore(dir, wal.Options{Manifest: parentManifest})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := qmemory.New(qmemory.Options{Store: m})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if hit, ok := mem.Lookup("financial", "Count the accounts of district 2"); !ok || hit.SQL != patternSQL(2) {
		t.Fatalf("restored memory does not serve the stored phrasing: %+v, %v", hit, ok)
	}
}

// TestKeyHashPinned: QHash is persisted in every evidence record, so the
// hash of a given triple may never change.
func TestKeyHashPinned(t *testing.T) {
	if got := evserve.KeyFor("financial", "seed_gpt", "How many accounts?").QHash; got != 0x3308c1721aceed1d {
		t.Fatalf("KeyFor(...).QHash = %#x; stores on disk hold 0x3308c1721aceed1d", got)
	}
}
