package evstore

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/evserve"
	"repro/internal/wal"
)

// openLeaderFollower builds a leader store with an HTTP replication
// endpoint and an empty follower store.
func openLeaderFollower(t *testing.T) (leader *Store, follower *Store, leaderURL string) {
	t.Helper()
	var err error
	leader, err = Open(t.TempDir(), Options{CompactEvery: -1})
	if err != nil {
		t.Fatalf("opening leader: %v", err)
	}
	t.Cleanup(func() { leader.Close() })
	follower, err = Open(t.TempDir(), Options{CompactEvery: -1})
	if err != nil {
		t.Fatalf("opening follower: %v", err)
	}
	t.Cleanup(func() { follower.Close() })
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replicate", leader.ServeReplication)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return leader, follower, srv.URL
}

func appendN(t *testing.T, s *Store, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		k := evserve.KeyFor("db", "seed", fmt.Sprintf("question %d", i))
		if err := s.Append(k, evserve.Entry{Evidence: fmt.Sprintf("evidence %d", i)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// drain polls the tailer until the follower holds want records or the
// deadline passes.
func drain(t *testing.T, tl *Tailer, follower *Store, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for follower.Len() < want {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d of %d records (tailer %+v)", follower.Len(), want, tl.Stats())
		}
		if _, err := tl.Poll(context.Background()); err != nil {
			t.Fatalf("poll: %v", err)
		}
	}
}

// assertMirror checks the follower holds exactly the leader's live set.
func assertMirror(t *testing.T, leader, follower *Store) {
	t.Helper()
	if leader.Len() != follower.Len() {
		t.Fatalf("leader has %d records, follower %d", leader.Len(), follower.Len())
	}
	err := leader.Load(func(k evserve.Key, e evserve.Entry) {
		got, ok := follower.Get(k)
		if !ok {
			t.Fatalf("follower missing key %+v", k)
		}
		if got.Evidence != e.Evidence {
			t.Fatalf("key %+v: leader evidence %q, follower %q", k, e.Evidence, got.Evidence)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplicationCatchUpAndLiveTail is the basic shipping contract: a
// fresh follower full-syncs the history, then tails new appends
// incrementally — without re-receiving the history it already holds.
func TestReplicationCatchUpAndLiveTail(t *testing.T) {
	leader, follower, url := openLeaderFollower(t)
	appendN(t, leader, 0, 100)

	tl := NewTailer(url, follower, nil, TailerOptions{})
	drain(t, tl, follower, 100)
	assertMirror(t, leader, follower)
	afterCatchUp := tl.Stats().Applied

	appendN(t, leader, 100, 50)
	drain(t, tl, follower, 150)
	assertMirror(t, leader, follower)
	st := tl.Stats()
	if st.Applied != afterCatchUp+50 {
		t.Fatalf("live tail applied %d records for 50 new appends — history was re-shipped", st.Applied-afterCatchUp)
	}
	if st.Resyncs != 0 {
		t.Fatalf("healthy stream forced %d resyncs", st.Resyncs)
	}
}

// TestReplicationAppliesThroughCallback pins the cache-injection hook:
// every record landed in the follower store is also handed to inject.
func TestReplicationAppliesThroughCallback(t *testing.T) {
	leader, follower, url := openLeaderFollower(t)
	appendN(t, leader, 0, 25)
	var seen atomic.Int64
	tl := NewTailer(url, follower, func(k evserve.Key, e evserve.Entry) { seen.Add(1) }, TailerOptions{})
	drain(t, tl, follower, 25)
	if seen.Load() != 25 {
		t.Fatalf("inject observed %d of 25 applied records", seen.Load())
	}
}

// TestReplicationSurvivesLeaderCompaction: a WAL rotation invalidates the
// follower's byte offsets; the generation check must convert that into a
// clean full-dump resync, not silent misreads.
func TestReplicationSurvivesLeaderCompaction(t *testing.T) {
	leader, follower, url := openLeaderFollower(t)
	appendN(t, leader, 0, 40)
	tl := NewTailer(url, follower, nil, TailerOptions{})
	drain(t, tl, follower, 40)

	appendN(t, leader, 40, 10)
	if err := leader.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	appendN(t, leader, 50, 10)
	drain(t, tl, follower, 60)
	assertMirror(t, leader, follower)
}

// TestReplicationSurvivesLeaderRestart: the leader reopening its store
// (crash recovery) retires the generation; the follower resyncs and
// converges on the post-restart state.
func TestReplicationSurvivesLeaderRestart(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, leader, 0, 30)

	var current atomic.Pointer[Store]
	current.Store(leader)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replicate", func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeReplication(w, r)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	follower, err := Open(t.TempDir(), Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })
	tl := NewTailer(srv.URL, follower, nil, TailerOptions{})
	drain(t, tl, follower, 30)

	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	leader2, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatalf("leader restart: %v", err)
	}
	t.Cleanup(func() { leader2.Close() })
	current.Store(leader2)
	appendN(t, leader2, 30, 20)
	drain(t, tl, follower, 50)
	assertMirror(t, leader2, follower)
}

// TestReplicationTornBodies: a flaky transport that truncates most
// responses mid-frame must cost retries, never corrupt records — the
// follower converges byte-exact and stays openable. The source URL bounds
// each incremental chunk to 4096 bytes (max=), so catching up on the
// records appended after the dump takes more than one chunk.
func TestReplicationTornBodies(t *testing.T) {
	leader, follower, _ := openLeaderFollower(t)
	appendN(t, leader, 0, 60)

	var calls, chunks atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replicate", func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		leader.ServeReplication(rec, r)
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		body := rec.Body.Bytes()
		if rec.Header().Get(wal.HeaderReplicateFull) == "" && len(body) > 0 {
			if len(body) > 4096 {
				t.Errorf("chunk of %d bytes past the source URL's max=4096", len(body))
			}
			chunks.Add(1)
		}
		// Two of every three responses lose the second half of their body,
		// tearing whatever frame straddles the cut.
		if calls.Add(1)%3 != 0 && len(body) > 1 {
			body = body[:len(body)/2]
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	})
	flaky := httptest.NewServer(mux)
	t.Cleanup(flaky.Close)

	// A torn full dump is a failed poll (Run counts it); the next poll
	// fetches the dump again, so only progress is asserted here.
	tl := NewTailer(flaky.URL+"/v1/replicate?max=4096", follower, nil, TailerOptions{})
	deadline := time.Now().Add(5 * time.Second)
	poll := func(until func() bool) {
		for !until() {
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at %d records (tailer %+v)", follower.Len(), tl.Stats())
			}
			_, _ = tl.Poll(context.Background())
		}
	}
	poll(func() bool { return tl.Stats().Gen != 0 })
	appendN(t, leader, 60, 60)
	poll(func() bool { return follower.Len() == 120 })
	assertMirror(t, leader, follower)
	if n := chunks.Load(); n < 2 {
		t.Fatalf("catch-up after the dump took %d chunks, want more than one under max=4096", n)
	}

	// The shipped store must be as crash-safe as a written one.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(follower.Dir(), Options{CompactEvery: -1})
	if err != nil {
		t.Fatalf("reopening follower after torn-stream replication: %v", err)
	}
	defer re.Close()
	if re.Stats().TailDropped != 0 {
		t.Fatalf("follower WAL held %d corrupt frames — torn network bytes reached disk", re.Stats().TailDropped)
	}
	if re.Len() != 120 {
		t.Fatalf("follower reopened with %d of 120 records", re.Len())
	}
}

// TestReplicationNoDoubleApply: identical records arriving twice (re-polls
// after stalls, overlapping dumps, full-mesh echo) are skipped, not
// re-appended — the duplicates counter proves the dedup path ran.
func TestReplicationNoDoubleApply(t *testing.T) {
	leader, follower, url := openLeaderFollower(t)
	appendN(t, leader, 0, 20)
	tl := NewTailer(url, follower, nil, TailerOptions{})
	drain(t, tl, follower, 20)

	// A second tailer starts without a position, so its first poll is a
	// full dump that re-delivers all 20 records.
	again := NewTailer(url, follower, nil, TailerOptions{})
	if _, err := again.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := again.Stats(); st.Applied != 0 || st.Duplicates != 20 {
		t.Fatalf("re-delivered dump: applied %d, skipped %d as duplicates; want 0 and 20", st.Applied, st.Duplicates)
	}
	if got := follower.Stats().Appends; got != 20 {
		t.Fatalf("follower WAL holds %d appends, want 20 — duplicates were persisted", got)
	}
}

// TestReplicationFullMeshConverges wires two stores to tail each other;
// writes on both sides propagate everywhere and the mesh quiesces instead
// of echoing records back and forth.
func TestReplicationFullMeshConverges(t *testing.T) {
	a, err := Open(t.TempDir(), Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := Open(t.TempDir(), Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	serve := func(s *Store) string {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/replicate", s.ServeReplication)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	urlA, urlB := serve(a), serve(b)

	appendN(t, a, 0, 15)
	for i := 100; i < 115; i++ {
		k := evserve.KeyFor("db", "seed", fmt.Sprintf("question %d", i))
		if err := b.Append(k, evserve.Entry{Evidence: fmt.Sprintf("evidence %d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	tlAB := NewTailer(urlA, b, nil, TailerOptions{}) // b tails a
	tlBA := NewTailer(urlB, a, nil, TailerOptions{}) // a tails b
	deadline := time.Now().Add(5 * time.Second)
	for a.Len() < 30 || b.Len() < 30 {
		if time.Now().After(deadline) {
			t.Fatalf("mesh stuck: a=%d b=%d", a.Len(), b.Len())
		}
		if _, err := tlAB.Poll(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := tlBA.Poll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	assertMirror(t, a, b)

	// Quiescence: with no new writes, further polls must apply nothing —
	// an echo loop here would grow both WALs forever.
	appliedA, appliedB := tlBA.Stats().Applied, tlAB.Stats().Applied
	for i := 0; i < 5; i++ {
		if _, err := tlAB.Poll(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := tlBA.Poll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if tlBA.Stats().Applied != appliedA || tlAB.Stats().Applied != appliedB {
		t.Fatalf("quiet mesh kept applying records: a tailer %+v, b tailer %+v", tlBA.Stats(), tlAB.Stats())
	}
}

// TestReplicationRunLoopStopsOnCancel pins that the background loop honors
// context cancellation (seedd's shutdown path).
func TestReplicationRunLoopStopsOnCancel(t *testing.T) {
	leader, follower, url := openLeaderFollower(t)
	appendN(t, leader, 0, 10)
	tl := NewTailer(url, follower, nil, TailerOptions{Interval: 10 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		tl.Run(ctx)
		close(done)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for follower.Len() < 10 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if follower.Len() != 10 {
		t.Fatalf("background tailer replicated %d of 10 records", follower.Len())
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}
