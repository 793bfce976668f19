package evstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/evserve"
)

// populate writes n sequentially keyed records through a store and closes
// it, returning the keys in append order.
func populate(t *testing.T, dir string, n int) []evserve.Key {
	t.Helper()
	s, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]evserve.Key, n)
	for i := range keys {
		keys[i] = evserve.KeyFor("db", "v", strings.Repeat("q", i+1))
		if err := s.Append(keys[i], testEntry(strings.Repeat("e", i+1), int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestWALCorruptionRecovery is the durability contract under damage:
// whatever happens to the tail of the log, Open recovers the longest
// valid prefix, reports what it dropped, and leaves the WAL appendable.
func TestWALCorruptionRecovery(t *testing.T) {
	const total = 6
	tests := []struct {
		name string
		// corrupt mutates the on-disk WAL after a clean shutdown.
		corrupt func(t *testing.T, wal string)
		// wantRecords is how many of the appended records must survive.
		wantRecords int
		// wantDropped is the TailDropped count Open must report.
		wantDropped int
	}{
		{
			name: "truncated tail record",
			corrupt: func(t *testing.T, wal string) {
				data := readWAL(t, wal)
				// Chop the last record in half: the newline (and half the
				// payload) never made it to disk.
				lines := bytes.SplitAfter(data, []byte{'\n'})
				last := lines[len(lines)-2] // final element is the empty tail after the last \n
				writeWAL(t, wal, data[:len(data)-len(last)/2-1])
			},
			wantRecords: total - 1,
			wantDropped: 1,
		},
		{
			name: "crc mismatch mid-file",
			corrupt: func(t *testing.T, wal string) {
				data := readWAL(t, wal)
				lines := bytes.SplitAfter(data, []byte{'\n'})
				// Flip one payload byte in the third record; its CRC no
				// longer matches, so it and everything after it is
				// untrusted.
				idx := len(lines[0]) + len(lines[1]) + 20
				data[idx] ^= 0xff
				writeWAL(t, wal, data)
			},
			wantRecords: 2,
			wantDropped: total - 2,
		},
		{
			name: "bad frame mid-file",
			corrupt: func(t *testing.T, wal string) {
				data := readWAL(t, wal)
				lines := bytes.SplitAfter(data, []byte{'\n'})
				var out []byte
				out = append(out, lines[0]...)
				out = append(out, []byte("not a framed record\n")...)
				for _, l := range lines[2:] {
					out = append(out, l...)
				}
				writeWAL(t, wal, out)
			},
			wantRecords: 1,
			wantDropped: total - 1,
		},
		{
			name:        "wal deleted entirely",
			corrupt:     func(t *testing.T, wal string) { os.Remove(wal) },
			wantRecords: 0,
			wantDropped: 0,
		},
		{
			name:        "wal emptied",
			corrupt:     func(t *testing.T, wal string) { writeWAL(t, wal, nil) },
			wantRecords: 0,
			wantDropped: 0,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			keys := populate(t, dir, total)
			tc.corrupt(t, filepath.Join(dir, files.WAL))

			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open over corrupt WAL: %v", err)
			}
			got := loadAll(t, s)
			if len(got) != tc.wantRecords {
				t.Fatalf("recovered %d records, want %d", len(got), tc.wantRecords)
			}
			// The surviving records are exactly the prefix, intact.
			for i := 0; i < tc.wantRecords; i++ {
				e, ok := got[keys[i]]
				if !ok {
					t.Fatalf("prefix record %d missing after recovery", i)
				}
				if want := strings.Repeat("e", i+1); e.Evidence != want {
					t.Fatalf("record %d evidence = %q, want %q", i, e.Evidence, want)
				}
				if e.Trace == nil || len(e.Trace.Stages) != 2 {
					t.Fatalf("record %d lost its trace in recovery: %+v", i, e.Trace)
				}
			}
			if st := s.Stats(); st.TailDropped != tc.wantDropped {
				t.Fatalf("TailDropped = %d, want %d", st.TailDropped, tc.wantDropped)
			}

			// The WAL was truncated to the valid prefix, so the store is
			// appendable: a fresh write lands cleanly after another cycle.
			nk := evserve.KeyFor("db", "v", "appended-after-recovery")
			if err := s.Append(nk, testEntry("fresh", 9)); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if st := r.Stats(); st.TailDropped != 0 {
				t.Fatalf("second reopen still drops %d records — recovery did not repair the log", st.TailDropped)
			}
			if got := loadAll(t, r); len(got) != tc.wantRecords+1 || got[nk].Evidence != "fresh" {
				t.Fatalf("post-recovery append not durable: %d records", len(got))
			}
		})
	}
}

// TestSnapshotCorruptionRecovery covers the snapshot side: an empty,
// missing, or tail-corrupt snapshot degrades to the longest valid prefix
// plus whatever the WAL still holds.
func TestSnapshotCorruptionRecovery(t *testing.T) {
	setup := func(t *testing.T) (dir string, keys []evserve.Key) {
		dir = t.TempDir()
		s, err := Open(dir, Options{CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		keys = make([]evserve.Key, 4)
		for i := range keys {
			keys[i] = evserve.KeyFor("db", "v", strings.Repeat("s", i+1))
			if err := s.Append(keys[i], testEntry(strings.Repeat("E", i+1), int64(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		// Move everything into the snapshot, then add two WAL-only records.
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			k := evserve.KeyFor("db", "v", strings.Repeat("w", i+1))
			keys = append(keys, k)
			if err := s.Append(k, testEntry("wal-entry", int64(i+10))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, keys
	}

	tests := []struct {
		name        string
		corrupt     func(t *testing.T, snap string)
		wantRecords int // surviving entries across snapshot + WAL
		wantDropped int
	}{
		{
			name:        "missing snapshot keeps wal tail",
			corrupt:     func(t *testing.T, snap string) { os.Remove(snap) },
			wantRecords: 2,
			wantDropped: 0,
		},
		{
			name:        "empty snapshot keeps wal tail",
			corrupt:     func(t *testing.T, snap string) { writeWAL(t, snap, nil) },
			wantRecords: 2,
			wantDropped: 0,
		},
		{
			name: "snapshot tail truncated mid-record",
			corrupt: func(t *testing.T, snap string) {
				data := readWAL(t, snap)
				writeWAL(t, snap, data[:len(data)-10])
			},
			wantRecords: 3 + 2, // 3 intact snapshot records + 2 WAL records
			wantDropped: 1,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir, _ := setup(t)
			tc.corrupt(t, filepath.Join(dir, files.Snapshot))
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open over corrupt snapshot: %v", err)
			}
			defer s.Close()
			if got := loadAll(t, s); len(got) != tc.wantRecords {
				t.Fatalf("recovered %d records, want %d", len(got), tc.wantRecords)
			}
			if st := s.Stats(); st.TailDropped != tc.wantDropped {
				t.Fatalf("TailDropped = %d, want %d", st.TailDropped, tc.wantDropped)
			}
		})
	}
}

func readWAL(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeWAL(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
