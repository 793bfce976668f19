package wal

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// openPair opens a leader log holding n records of about size bytes each,
// serves its replication feed through serve, and opens an empty follower.
// The follower's tailer lands every record it is handed.
func openPair(t *testing.T, n, size int, serve func(leader *Log[string, string]) http.HandlerFunc) (leader, follower *Log[string, string], tl *Tailer[string, string]) {
	t.Helper()
	open := func() *Log[string, string] {
		l, err := Open(t.TempDir(), testFiles, gateCodec{}, Options{CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	leader, follower = open(), open()
	pad := strings.Repeat("v", size)
	for i := range n {
		if err := leader.Append(fmt.Sprintf("k%05d", i), pad); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(serve(leader))
	t.Cleanup(srv.Close)
	land := func(k, v string) (bool, error) { return true, follower.Append(k, v) }
	return leader, follower, NewTailer(srv.URL, gateCodec{}, land, TailerOptions{Interval: 5 * time.Millisecond})
}

// TestFullDumpAboveChunkConvergesInOnePoll: a full dump is the whole live
// set, with no size bound, so a follower reads it to its advertised length
// rather than to the incremental chunk bound — a live set past
// maxReplicationChunk lands in one poll, and the follower adopts the
// leader's position.
func TestFullDumpAboveChunkConvergesInOnePoll(t *testing.T) {
	const n, size = 5000, 1024
	leader, follower, tl := openPair(t, n, size, func(l *Log[string, string]) http.HandlerFunc { return l.ServeReplication })
	if dump, err := leader.ReplicationRead(0, 0, 0); err != nil || len(dump.Data) <= maxReplicationChunk {
		t.Fatalf("leader dump is %d bytes (%v), want above the %d-byte chunk bound", len(dump.Data), err, maxReplicationChunk)
	}
	if _, err := tl.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := tl.Stats()
	if follower.Len() != n || st.Applied != n || st.Duplicates != 0 || st.Gen == 0 {
		t.Fatalf("after one poll the follower holds %d of %d records (tailer %+v)", follower.Len(), n, st)
	}
}

// TestFullDumpCutShortIsAnError: a dump that ends early — here on a frame
// boundary, so every byte that arrived parses — keeps the follower's old
// position and fails the poll, so Run counts it in Errors.
func TestFullDumpCutShortIsAnError(t *testing.T) {
	const n = 40
	_, follower, tl := openPair(t, n, 16, func(l *Log[string, string]) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			l.ServeReplication(rec, r)
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			body := rec.Body.Bytes()
			// Drop the last frame whole: the advertised length stays.
			cut := bytes.LastIndexByte(body[:len(body)-1], '\n') + 1
			_, _ = w.Write(body[:cut])
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tl.Run(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for tl.Stats().Errors < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	st := tl.Stats()
	if st.Errors < 2 || st.Gen != 0 {
		t.Fatalf("a cut-short dump was not counted as an error, or its position was adopted: %+v", st)
	}
	if follower.Len() != n-1 {
		t.Fatalf("follower holds %d records, want the dump's %d-record prefix", follower.Len(), n-1)
	}
}

// TestIncrementalCatchUpAfterLargeRecord: a record larger than a 4 KB
// page advances the replication offset by its whole frame, so an
// incremental follower receives it and the small record behind it, and
// the end offset the leader hands out, incremental or in a full dump, is
// the WAL file's size.
func TestIncrementalCatchUpAfterLargeRecord(t *testing.T) {
	leader, follower, tl := openPair(t, 0, 0, func(l *Log[string, string]) http.HandlerFunc { return l.ServeReplication })
	ctx := context.Background()
	// The first poll adopts the empty leader's position from a full dump,
	// so the records below arrive incrementally.
	if _, err := tl.Poll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := leader.Append("big", strings.Repeat("x", 10000)); err != nil {
		t.Fatal(err)
	}
	if err := leader.Append("small", "v"); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		progress, err := tl.Poll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !progress {
			break
		}
	}
	st := tl.Stats()
	if follower.Len() != 2 || st.Applied != 2 || st.Resyncs != 0 {
		t.Fatalf("follower holds %d of 2 records (tailer %+v)", follower.Len(), st)
	}
	fi, err := os.Stat(filepath.Join(leader.Dir(), testFiles.WAL))
	if err != nil {
		t.Fatal(err)
	}
	inc, err := leader.ReplicationRead(st.Gen, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := leader.ReplicationRead(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Full || inc.Next != fi.Size() || !full.Full || full.Next != fi.Size() || st.Next != fi.Size() {
		t.Fatalf("WAL is %d bytes; incremental Next %d (full=%v), dump Next %d, follower Next %d", fi.Size(), inc.Next, inc.Full, full.Next, st.Next)
	}
}
