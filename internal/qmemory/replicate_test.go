package qmemory

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// serveStore serves a store's replication feed at /v1/replicate and
// returns the base URL a tailer takes.
func serveStore(t *testing.T, st *Store) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replicate", st.ServeReplication)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// durable builds a Memory over a store in a fresh directory and serves
// the store's replication feed: the shape of one fleet replica.
func durable(t *testing.T) (*Memory, *Store, string) {
	t.Helper()
	st, err := OpenStore(t.TempDir(), wal.Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, st, serveStore(t, st)
}

func TestSyncConvergence(t *testing.T) {
	a, _, urlA := durable(t)
	b, _, urlB := durable(t)
	fp := Fingerprint(testRows())
	a.Admit("shop", "How many orders have status 'shipped'?", "",
		"SELECT COUNT(*) FROM orders WHERE status = 'shipped'", fp)
	a.Admit("shop", "What is the total quantity across all items rows?", "",
		"SELECT SUM(quantity) FROM items", fp)

	tailer := NewTailer(urlA, b, wal.TailerOptions{})
	if _, err := tailer.Poll(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := tailer.Stats().Applied; got != 2 {
		t.Fatalf("want 2 applied, got %d (stats %+v)", got, tailer.Stats())
	}
	if _, ok := b.Lookup("shop", "How many orders have status 'shipped'?"); !ok {
		t.Fatal("replicated pattern should serve on the follower")
	}

	// A second poll with nothing new applies nothing (cursor advanced).
	if _, err := tailer.Poll(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := tailer.Stats().Applied; got != 2 {
		t.Fatalf("idle poll should apply nothing, got %d", got)
	}

	// The reverse direction skips everything — no echo amplification.
	back := NewTailer(urlB, a, wal.TailerOptions{})
	if _, err := back.Poll(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := back.Stats().Applied; got != 0 {
		t.Fatalf("echo must not re-apply, got %d applied", got)
	}

	// A demotion on A (more events) wins on B.
	hit, _ := a.Lookup("shop", "How many orders have status 'shipped'?")
	a.Failure(hit.PatternID)
	if _, err := tailer.Poll(t.Context()); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Lookup("shop", "How many orders have status 'shipped'?"); ok {
		t.Fatal("replicated demotion should stop the follower from serving")
	}
}

// TestTailerCancelledPollIsNoError: a poll that shutdown cancelled fails,
// but it is not a replication error and is not counted as one.
func TestTailerCancelledPollIsNoError(t *testing.T) {
	m, _, url := durable(t)
	tailer := NewTailer(url, m, wal.TailerOptions{})
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := tailer.Poll(ctx); err == nil {
		t.Fatal("a poll under a cancelled context succeeded")
	}
	// Run is what counts errors; under a cancelled context it returns
	// after its first poll fails.
	tailer.Run(ctx)
	if got := tailer.Stats().Errors; got != 0 {
		t.Fatalf("cancelled poll counted %d errors, want 0", got)
	}
}

// liveSets reads the store's live set and the index under the memory's
// lock, which every write to either holds.
func liveSets(m *Memory) (logged, held []Record) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.opts.Store.Load(func(rec Record) { logged = append(logged, rec) })
	for _, p := range m.patterns {
		held = append(held, cloneRecord(p.rec))
	}
	sort.Slice(held, func(i, j int) bool { return held[i].ID < held[j].ID })
	return logged, held
}

// TestReplicationLandsUnderConcurrentWrites: a tailer lands replicated
// records for the very patterns on which Admit, Success and Failure run
// concurrently. Inject checks dominance and appends under the memory's
// lock, like every local mutation, so the store's live set — what a
// restart replays and what peers are shipped — equals the index record
// for record: whenever the lock is free, and afterwards. Run under -race.
func TestReplicationLandsUnderConcurrentWrites(t *testing.T) {
	const ids, writers, steps = 4, 4, 300
	sql := func(i int) string { return fmt.Sprintf("SELECT COUNT(*) FROM orders WHERE id = %d", i) }

	leader, err := OpenStore(t.TempDir(), wal.Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	follower, followerStore, _ := durable(t)
	tl := NewTailer(serveStore(t, leader), follower, wal.TailerOptions{Interval: time.Millisecond})
	ctx, cancel := context.WithCancel(t.Context())
	tailing := make(chan struct{})
	go func() {
		defer close(tailing)
		tl.Run(ctx)
	}()

	var wg sync.WaitGroup
	checking := make(chan struct{})
	var checks int
	go func() {
		defer close(checking)
		for ctx.Err() == nil {
			if logged, held := liveSets(follower); !reflect.DeepEqual(logged, held) {
				t.Errorf("after %d checks the store's live set and the index disagree:\nstore: %+v\nindex: %+v", checks, logged, held)
				return
			}
			checks++
		}
	}()
	// The leader's records carry more events than the follower's local
	// writes can reach, so most of them apply.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for step := 1; step <= steps; step++ {
			for i := range ids {
				rec := Record{ID: PatternID("shop", sql(i)), DB: "shop", SQL: sql(i), Fingerprint: "fp",
					Confidence: 0.9, Successes: int64(step) * 10, Phrasings: []string{fmt.Sprintf("order %d, leader step %d", i, step)}}
				if err := leader.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for step := range steps {
				i := rng.Intn(ids)
				switch rng.Intn(3) {
				case 0:
					follower.Admit("shop", fmt.Sprintf("order %d", i), "", sql(i), "fp")
				case 1:
					follower.Success(PatternID("shop", sql(i)), fmt.Sprintf("order %d, writer %d step %d", i, w, step))
				case 2:
					follower.Failure(PatternID("shop", sql(i)))
				}
			}
		}()
	}
	wg.Wait()
	cancel()
	<-tailing
	<-checking

	if st := tl.Stats(); st.Applied == 0 {
		t.Fatalf("the tailer landed nothing while the writers ran: %+v", st)
	}
	if st := follower.Stats(); st.StoreErrors != 0 {
		t.Fatalf("%d write-through errors", st.StoreErrors)
	}
	var logged []Record
	followerStore.Load(func(rec Record) { logged = append(logged, rec) })
	if held := follower.Patterns(); !reflect.DeepEqual(logged, held) {
		t.Fatalf("the store's live set and the index disagree:\nstore: %+v\nindex: %+v", logged, held)
	}
}

// TestResyncNeverLowersDemotion: a full-dump resync offers a follower the
// leader's older record for a pattern the follower has since demoted.
// The dump is skipped as a duplicate, and the demotion stands.
func TestResyncNeverLowersDemotion(t *testing.T) {
	const question = "How many orders have status 'shipped'?"
	leader, leaderStore, url := durable(t)
	follower, _, _ := durable(t)
	leader.Admit("shop", question, "", "SELECT COUNT(*) FROM orders WHERE status = 'shipped'", Fingerprint(testRows()))

	tl := NewTailer(url, follower, wal.TailerOptions{})
	if _, err := tl.Poll(t.Context()); err != nil {
		t.Fatal(err)
	}
	hit, ok := follower.Lookup("shop", question)
	if !ok {
		t.Fatal("the replicated pattern does not serve on the follower")
	}
	follower.Failure(hit.PatternID)
	if _, ok := follower.Lookup("shop", question); ok {
		t.Fatal("a local failure did not demote the pattern")
	}
	failures := follower.Patterns()[0].Failures

	// Compaction starts a new generation: the follower's position no
	// longer matches, so its next poll is a full dump of the leader's live
	// set, which holds the pattern as it was before the demotion.
	if err := leaderStore.Compact(); err != nil {
		t.Fatal(err)
	}
	before := tl.Stats()
	if _, err := tl.Poll(t.Context()); err != nil {
		t.Fatal(err)
	}
	after := tl.Stats()
	if after.Gen == before.Gen {
		t.Fatalf("the poll after compaction was not a full dump: %+v", after)
	}
	if got := follower.Patterns()[0].Failures; got != failures {
		t.Fatalf("resync changed the demoted pattern's Failures: %d, want %d", got, failures)
	}
	if _, ok := follower.Lookup("shop", question); ok {
		t.Fatal("resync resurrected a demoted pattern")
	}
	if after.Duplicates != before.Duplicates+1 || after.Applied != before.Applied {
		t.Fatalf("the older record was not counted as a duplicate: before %+v, after %+v", before, after)
	}
}
