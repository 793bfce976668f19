package wal

import (
	"bytes"
	"cmp"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testFiles = Files{WAL: "t.wal", Tail: "t.tail", Snapshot: "t.snap", Lock: "t.lock", Manifest: "t.manifest"}

// gateCodec stores strings as themselves. While gate is non-nil, Encode
// of the value "blocked" waits on it — only a snapshot write meets that
// value below, so the test decides when a compaction may finish.
type gateCodec struct{ gate chan struct{} }

func (c gateCodec) Encode(k, v string) ([]byte, error) {
	if c.gate != nil && v == "blocked" {
		<-c.gate
	}
	if strings.ContainsAny(k+v, "=\n") {
		return nil, errors.New("unencodable")
	}
	return []byte(k + "=" + v), nil
}

func (gateCodec) Decode(p []byte) (string, string, bool) {
	k, v, ok := strings.Cut(string(p), "=")
	return k, v, ok && k != ""
}

func (gateCodec) Compare(a, b string) int { return cmp.Compare(a, b) }

// TestAppendDoesNotWaitForSnapshot: the Append that crosses CompactEvery
// rotates the WAL and returns; the snapshot is written behind it, and
// Flush is what waits.
func TestAppendDoesNotWaitForSnapshot(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	l, err := Open(dir, testFiles, gateCodec{}, Options{CompactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append("a", "blocked"); err != nil {
		t.Fatal(err)
	}
	l.codec = gateCodec{gate} // from here on only the snapshot encodes "blocked"
	for _, k := range []string{"b", "c"} {
		if err := l.Append(k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	// The third append crossed the threshold and returned while the
	// snapshot is still stuck behind the gate.
	st := l.Stats()
	if st.WALRecords != 0 || st.Compactions != 0 {
		t.Fatalf("after the crossing append: %+v; want a rotated WAL and no finished compaction", st)
	}
	if _, err := os.Stat(filepath.Join(dir, testFiles.Snapshot)); !os.IsNotExist(err) {
		t.Fatalf("snapshot exists before the compaction could finish: %v", err)
	}
	if err := l.Append("d", "v"); err != nil { // appends keep flowing meanwhile
		t.Fatal(err)
	}
	close(gate)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Compactions != 1 || st.SnapshotRecords != 3 || st.WALRecords != 1 || st.CompactErrors != 0 {
		t.Fatalf("after Flush: %+v; want 1 compaction of 3 records and 1 WAL record", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, testFiles, gateCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 4 || r.Stats().TailDropped != 0 {
		t.Fatalf("reopened with %d records, %d dropped; want 4, 0", r.Len(), r.Stats().TailDropped)
	}
}

// TestFrameFormat pins the bytes on disk: "%08x payload\n" with the
// CRC-32C of the payload, for a short record and a 10,000-byte one.
func TestFrameFormat(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testFiles, gateCodec{}, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 10000)
	if err := l.Append("k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("big", big); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("bad\n", "v"); err == nil {
		t.Fatal("Append accepted a record its codec cannot encode")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, testFiles.WAL))
	if err != nil {
		t.Fatal(err)
	}
	// CRC-32C("k=v") = 0x4371bd74.
	want := "4371bd74 k=v\n" + string(appendFrame(nil, []byte("big="+big)))
	if !bytes.Equal(got, []byte(want)) {
		t.Fatalf("WAL bytes = %q..., want %q...", got[:min(len(got), 40)], want[:40])
	}
	if payload, ok := checkFrame(got[:12]); !ok || string(payload) != "k=v" {
		t.Fatalf("checkFrame = %q, %v", payload, ok)
	}
}

// TestFailedWriteStopsAppends: after a WAL write fails, the log refuses
// every later append and Flush reports the failure — a record written
// behind a torn frame would be lost at the next replay.
func TestFailedWriteStopsAppends(t *testing.T) {
	l, err := Open(t.TempDir(), testFiles, gateCodec{}, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.wal.Close() // every write now fails
	first := l.Append("a", "v")
	if first == nil {
		t.Fatal("Append succeeded on a closed WAL file")
	}
	if err := l.Append("b", "v"); err != first {
		t.Fatalf("second Append = %v, want the first failure %v", err, first)
	}
	if err := l.Flush(); err != first {
		t.Fatalf("Flush = %v, want the first failure %v", err, first)
	}
	if l.Len() != 0 || l.Stats().Appends != 0 {
		t.Fatalf("failed appends were accepted: %d records, %+v", l.Len(), l.Stats())
	}
}
