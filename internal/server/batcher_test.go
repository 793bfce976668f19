package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/evserve"
)

// newEchoBatcher builds a batcher over an evserve service whose generator
// echoes "db/question" and counts invocations. Caching is disabled so
// every generation reaches the counter.
func newEchoBatcher(t *testing.T, window time.Duration, maxSize int, calls *atomic.Int64) *batcher {
	t.Helper()
	b, _ := echoBatcher(t, -1, window, maxSize, calls)
	return b
}

// newCachedEchoBatcher is newEchoBatcher over a caching service: the
// second request for a key is a cache hit.
func newCachedEchoBatcher(t testing.TB, window time.Duration, maxSize int) (*batcher, *evserve.Service) {
	t.Helper()
	return echoBatcher(t, 0, window, maxSize, new(atomic.Int64))
}

func echoBatcher(t testing.TB, cacheCapacity int, window time.Duration, maxSize int, calls *atomic.Int64) (*batcher, *evserve.Service) {
	t.Helper()
	svc := evserve.New(evserve.Options{
		Variant:       "test",
		CacheCapacity: cacheCapacity,
		Workers:       4,
		Generate: func(db, question string) (string, error) {
			calls.Add(1)
			return db + "/" + question, nil
		},
	})
	t.Cleanup(svc.Close)
	return newBatcher(svc, window, maxSize), svc
}

// pendingLen reads the parked batch's size under the batcher's lock.
func (b *batcher) pendingLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// TestBatcherSingleRequestFastPath: with batching disabled the batcher
// must call straight through — no timer, no batch accounting.
func TestBatcherSingleRequestFastPath(t *testing.T) {
	var calls atomic.Int64
	for _, b := range []*batcher{
		newEchoBatcher(t, 0, 32, &calls),               // window disables
		newEchoBatcher(t, time.Millisecond, 1, &calls), // maxSize disables
	} {
		ev, err := b.Generate(context.Background(), "db", "q")
		if err != nil || ev.Text != "db/q" {
			t.Fatalf("Generate = %q, %v", ev.Text, err)
		}
		st := b.stats()
		if st.Singles != 1 || st.Batches != 0 || st.BatchedRequests != 0 {
			t.Errorf("fast path stats = %+v, want 1 single and no batches", st)
		}
	}
}

// TestBatcherWindowFlush: requests arriving within one window must be
// served by a single window-triggered batch.
func TestBatcherWindowFlush(t *testing.T) {
	var calls atomic.Int64
	b := newEchoBatcher(t, 150*time.Millisecond, 64, &calls)
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	evs := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ev, err := b.Generate(context.Background(), "db", fmt.Sprintf("q%d", i))
			evs[i], errs[i] = ev.Text, err
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil || evs[i] != fmt.Sprintf("db/q%d", i) {
			t.Fatalf("request %d: %q, %v", i, evs[i], errs[i])
		}
	}
	st := b.stats()
	if st.WindowFlushes != 1 || st.SizeFlushes != 0 {
		t.Errorf("flushes = %d window / %d size, want 1 / 0 (stats %+v)", st.WindowFlushes, st.SizeFlushes, st)
	}
	if st.Batches != 1 || st.BatchedRequests != n {
		t.Errorf("batches = %d with %d requests, want 1 with %d", st.Batches, st.BatchedRequests, n)
	}
	if st.AvgFill != n {
		t.Errorf("AvgFill = %.1f, want %d", st.AvgFill, n)
	}
}

// TestBatcherSizeFlush: hitting maxSize must dispatch immediately, well
// before the (deliberately enormous) window elapses.
func TestBatcherSizeFlush(t *testing.T) {
	var calls atomic.Int64
	const n = 4
	b := newEchoBatcher(t, time.Hour, n, &calls)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Generate(context.Background(), "db", fmt.Sprintf("q%d", i)); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("size flush waited %v — the window timer fired instead", elapsed)
	}
	st := b.stats()
	if st.SizeFlushes != 1 || st.WindowFlushes != 0 {
		t.Errorf("flushes = %d size / %d window, want 1 / 0", st.SizeFlushes, st.WindowFlushes)
	}
	if st.BatchedRequests != n {
		t.Errorf("BatchedRequests = %d, want %d", st.BatchedRequests, n)
	}
}

// TestBatcherContextCancellationMidBatch: a caller whose context dies
// while its request is parked in a pending batch must return promptly with
// ctx.Err(); the batch itself must still serve the other participants.
func TestBatcherContextCancellationMidBatch(t *testing.T) {
	var calls atomic.Int64
	b := newEchoBatcher(t, 250*time.Millisecond, 64, &calls)

	survivor := make(chan error, 1)
	go func() {
		_, err := b.Generate(context.Background(), "db", "keeper")
		survivor <- err
	}()

	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() {
		_, err := b.Generate(ctx, "db", "quitter")
		abandoned <- err
	}()
	// Let both requests join the pending batch, then cancel one.
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case err := <-abandoned:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled caller returned %v, want context.Canceled", err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("cancelled caller still parked after cancellation — it must not wait for the window")
	}
	if err := <-survivor; err != nil {
		t.Fatalf("surviving batch participant failed: %v", err)
	}
	// Both requests were in the dispatched batch: the abandoned one still
	// ran (its result goes to a buffered channel nobody reads).
	if got := calls.Load(); got != 2 {
		t.Errorf("generator ran %d times, want 2 (batch keeps running for survivors)", got)
	}
	if st := b.stats(); st.BatchedRequests != 2 {
		t.Errorf("BatchedRequests = %d, want 2", st.BatchedRequests)
	}
}

// TestBatcherFlushDrainsPending: Flush must dispatch a parked batch
// synchronously so shutdown never strands waiters behind a long window.
func TestBatcherFlushDrainsPending(t *testing.T) {
	var calls atomic.Int64
	b := newEchoBatcher(t, time.Hour, 64, &calls)
	got := make(chan string, 1)
	go func() {
		ev, _ := b.Generate(context.Background(), "db", "q")
		got <- ev.Text
	}()
	for i := 0; i < 100 && b.pendingLen() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	b.Flush()
	select {
	case ev := <-got:
		if ev != "db/q" {
			t.Fatalf("flushed request got %q", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush did not release the parked request")
	}
	b.Flush() // idempotent on an empty queue
}

// TestBatcherCachedKeyNeverWaits: the window exists to coalesce pipeline
// runs, and a cached key brings none — it must answer at once and leave
// the batch machinery untouched, while an uncached key still parks until
// its batch is dispatched. The window is an hour, so "waited for it" is a
// failed bounded wait, not a slow test.
func TestBatcherCachedKeyNeverWaits(t *testing.T) {
	b, svc := newCachedEchoBatcher(t, time.Hour, 64)
	ctx := context.Background()
	if _, err := svc.Generate(ctx, "db", "warm"); err != nil {
		t.Fatal(err)
	}

	type answer struct {
		ev  evserve.Evidence
		err error
	}
	ask := func(question string) chan answer {
		out := make(chan answer, 1)
		go func() {
			ev, err := b.Generate(ctx, "db", question)
			out <- answer{ev, err}
		}()
		return out
	}

	select {
	case a := <-ask("warm"):
		if a.err != nil || a.ev.Text != "db/warm" || !a.ev.CacheHit {
			t.Fatalf("cached key answered %+v, %v; want db/warm as a cache hit", a.ev, a.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a cached key is parked behind the batch window")
	}
	if st := b.stats(); st.Batches != 0 || st.BatchedRequests != 0 || st.Singles != 0 {
		t.Errorf("a cache hit moved the batch counters: %+v", st)
	}
	if n := b.pendingLen(); n != 0 {
		t.Errorf("a cache hit left %d requests pending", n)
	}

	cold := ask("cold")
	for i := 0; i < 5000 && b.pendingLen() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if b.pendingLen() != 1 {
		t.Fatal("an uncached key did not join a batch")
	}
	select {
	case a := <-cold:
		t.Fatalf("an uncached key answered (%+v, %v) before its batch was dispatched", a.ev, a.err)
	default:
	}
	b.Flush()
	select {
	case a := <-cold:
		if a.err != nil || a.ev.Text != "db/cold" || a.ev.CacheHit {
			t.Fatalf("uncached key answered %+v, %v; want db/cold, generated", a.ev, a.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Flush did not release the parked miss")
	}
	if st := b.stats(); st.Batches != 1 || st.BatchedRequests != 1 {
		t.Errorf("after one miss: %+v, want 1 batch of 1", st)
	}
}

// TestBatcherHitsAndMissesRaceClose hammers the two paths while the
// server's shutdown sequence (Flush, then the service's Close) runs under
// them: every caller must get its answer or ErrClosed — never a hang, a
// panic or another error — and once closed even a cached key answers
// ErrClosed, through the batch path as before. Run with -race.
func TestBatcherHitsAndMissesRaceClose(t *testing.T) {
	b, svc := newCachedEchoBatcher(t, time.Millisecond, 4)
	ctx := context.Background()
	const keys = 8
	for k := 0; k < keys/2; k++ { // half the keys start warm
		if _, err := svc.Generate(ctx, "db", fmt.Sprintf("q%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var answered, closed atomic.Int64
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				q := fmt.Sprintf("q%d", (g+i)%keys)
				ev, err := b.Generate(ctx, "db", q)
				switch {
				case err == nil && ev.Text == "db/"+q:
					answered.Add(1)
				case errors.Is(err, evserve.ErrClosed):
					closed.Add(1)
				default:
					t.Errorf("Generate(%s) = %q, %v; want its evidence or ErrClosed", q, ev.Text, err)
					return
				}
			}
		}(g)
	}
	close(start)
	for i := 0; i < 5000 && svc.Stats().Cache.Hits == 0; i++ {
		time.Sleep(time.Millisecond) // let some traffic through first
	}
	b.Flush()
	svc.Close()
	wg.Wait()
	if answered.Load() == 0 || closed.Load() == 0 {
		t.Logf("answered %d, closed %d: the close did not land mid-traffic", answered.Load(), closed.Load())
	}
	if _, err := b.Generate(ctx, "db", "q0"); !errors.Is(err, evserve.ErrClosed) {
		t.Errorf("cached key on a closed service = %v, want ErrClosed", err)
	}
}

// BenchmarkBatcherGenerate is the layer number for the serving path's
// evidence step at the seedd defaults (2 ms window, 32 per batch): hit is
// a cached key, miss a key never seen before (the generator is an echo,
// so a miss is the batch machinery and nothing else).
func BenchmarkBatcherGenerate(b *testing.B) {
	ctx := context.Background()
	b.Run("hit", func(b *testing.B) {
		bt, svc := newCachedEchoBatcher(b, 2*time.Millisecond, 32)
		if _, err := svc.Generate(ctx, "db", "q"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			if ev, err := bt.Generate(ctx, "db", "q"); err != nil || !ev.CacheHit {
				b.Fatalf("hit = %+v, %v", ev, err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		bt, _ := newCachedEchoBatcher(b, 2*time.Millisecond, 32)
		b.ReportAllocs()
		for n := 0; b.Loop(); n++ {
			if ev, err := bt.Generate(ctx, "db", "q"+strconv.Itoa(n)); err != nil || ev.CacheHit {
				b.Fatalf("miss = %+v, %v", ev, err)
			}
		}
	})
}
