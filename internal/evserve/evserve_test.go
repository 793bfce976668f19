package evserve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// echoService builds a service whose generator returns "db/question" and
// counts invocations.
func echoService(t *testing.T, opts Options, calls *atomic.Int64) *Service {
	t.Helper()
	opts.GenerateTraced = func(_ context.Context, db, question string) (string, *pipeline.Trace, error) {
		calls.Add(1)
		return db + "/" + question, nil, nil
	}
	s := New(opts)
	t.Cleanup(s.Close)
	return s
}

// TestNewStartsNoGoroutine: a Service keeps no goroutine of its own, so
// building and closing one leaves the goroutine count where it was. It is
// the package's first test, so no earlier test's goroutine can be exiting
// while it counts.
func TestNewStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Options{Variant: "v", GenerateTraced: func(_ context.Context, db, q string) (string, *pipeline.Trace, error) {
		return "ev", nil, nil
	}})
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("New: %d goroutines, %d before", n, before)
	}
	s.Close()
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("Close: %d goroutines, %d before New", n, before)
	}
}

func TestGenerateCachesResult(t *testing.T) {
	var calls atomic.Int64
	s := echoService(t, Options{Variant: "v"}, &calls)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		got, err := s.Generate(ctx, "db1", "q1")
		if err != nil || got != "db1/q1" {
			t.Fatalf("Generate = %q, %v", got, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("generator ran %d times, want 1", n)
	}
	st := s.Stats()
	if st.Cache.Hits != 4 || st.Cache.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 4/1", st.Cache.Hits, st.Cache.Misses)
	}
}

func TestKeySeparatesVariantsAndDBs(t *testing.T) {
	a := KeyFor("db1", "gpt", "q")
	for _, other := range []Key{
		KeyFor("db2", "gpt", "q"),
		KeyFor("db1", "deepseek", "q"),
		KeyFor("db1", "gpt", "q2"),
	} {
		if a == other {
			t.Errorf("keys collide: %+v vs %+v", a, other)
		}
	}
}

// TestSingleFlightDedup launches many concurrent identical requests against
// a slow generator and asserts exactly one pipeline invocation.
func TestSingleFlightDedup(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(Options{
		Variant: "v",
		Workers: 4,
		GenerateTraced: func(_ context.Context, db, question string) (string, *pipeline.Trace, error) {
			if calls.Add(1) == 1 {
				close(started)
			}
			<-release
			return "ev", nil, nil
		},
	})
	defer s.Close()

	const n = 32
	var wg sync.WaitGroup
	results := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Generate(context.Background(), "db", "same question")
		}(i)
	}
	<-started
	// All callers are now either blocked in the flight group or yet to
	// arrive; give stragglers a moment, then release the one generation.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("generator ran %d times for identical concurrent requests, want 1", n)
	}
	for i := range results {
		if errs[i] != nil || results[i] != "ev" {
			t.Errorf("caller %d: %q, %v", i, results[i], errs[i])
		}
	}
	if st := s.Stats(); st.Dedups == 0 {
		t.Errorf("expected shared callers to be counted as dedups, got %+v", st)
	}
}

func TestServiceEvictionRegenerates(t *testing.T) {
	var calls atomic.Int64
	s := echoService(t, Options{Variant: "v", CacheCapacity: 2}, &calls)
	ctx := context.Background()
	for _, q := range []string{"a", "b", "c", "a"} {
		if _, err := s.Generate(ctx, "db", q); err != nil {
			t.Fatal(err)
		}
	}
	// "a" was evicted when "c" arrived, so the last request regenerates.
	if n := calls.Load(); n != 4 {
		t.Errorf("generator ran %d times, want 4 (eviction forces regeneration)", n)
	}
}

func TestGenerateAllOrderAndValues(t *testing.T) {
	var calls atomic.Int64
	s := echoService(t, Options{Variant: "v", Workers: 3}, &calls)
	reqs := make([]Request, 20)
	for i := range reqs {
		reqs[i] = Request{DB: "db", Question: fmt.Sprintf("q%d", i)}
	}
	results, err := s.GenerateAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		want := fmt.Sprintf("db/q%d", i)
		if r.Err != nil || r.Evidence != want {
			t.Errorf("result %d = %q, %v; want %q", i, r.Evidence, r.Err, want)
		}
		if r.Request != reqs[i] {
			t.Errorf("result %d echoes %+v, want %+v", i, r.Request, reqs[i])
		}
	}
	st := s.Stats()
	if st.BatchCalls != 1 || st.BatchRequests != 20 {
		t.Errorf("batch counters = %d calls / %d reqs, want 1/20", st.BatchCalls, st.BatchRequests)
	}
}

func TestGenerateAllErrorsAreLocal(t *testing.T) {
	boom := errors.New("boom")
	s := New(Options{
		Variant: "v",
		Workers: 2,
		GenerateTraced: func(_ context.Context, db, question string) (string, *pipeline.Trace, error) {
			if question == "bad" {
				return "", nil, boom
			}
			return "ok", nil, nil
		},
	})
	defer s.Close()
	results, err := s.GenerateAll(context.Background(), []Request{
		{DB: "db", Question: "good"},
		{DB: "db", Question: "bad"},
	})
	if err != nil {
		t.Fatalf("batch error = %v, want nil (per-request errors only)", err)
	}
	if results[0].Err != nil || results[0].Evidence != "ok" {
		t.Errorf("good request: %+v", results[0])
	}
	if !errors.Is(results[1].Err, boom) {
		t.Errorf("bad request error = %v, want boom", results[1].Err)
	}
	if st := s.Stats(); st.Failures != 1 {
		t.Errorf("failures = %d, want 1", st.Failures)
	}
}

// TestGenerateAllCancellation cancels a batch mid-run: the call must return
// ctx.Err(), abandoned requests must carry ctx.Err(), and the batch must not
// run every request.
func TestGenerateAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	s := New(Options{
		Variant:       "v",
		Workers:       1,
		CacheCapacity: -1, // isolate batch behaviour from caching
		GenerateTraced: func(_ context.Context, db, question string) (string, *pipeline.Trace, error) {
			if calls.Add(1) == 2 {
				cancel() // cancel while the batch is mid-flight
			}
			time.Sleep(time.Millisecond)
			return "ev", nil, nil
		},
	})
	defer s.Close()

	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{DB: "db", Question: fmt.Sprintf("q%d", i)}
	}
	results, err := s.GenerateAll(ctx, reqs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want context.Canceled", err)
	}
	cancelled := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no request carries the cancellation error")
	}
	if n := calls.Load(); n >= int64(len(reqs)) {
		t.Errorf("batch ran all %d requests despite cancellation", n)
	}
	if st := s.Stats(); st.BatchRequests >= int64(len(reqs)) {
		t.Errorf("BatchRequests = %d counts never-submitted requests (batch size %d)", st.BatchRequests, len(reqs))
	}
}

func TestGenerateAfterCloseFails(t *testing.T) {
	s := New(Options{Variant: "v", GenerateTraced: func(_ context.Context, db, q string) (string, *pipeline.Trace, error) { return "ev", nil, nil }})
	s.Close()
	s.Close() // idempotent
	if _, err := s.Generate(context.Background(), "db", "q"); !errors.Is(err, ErrClosed) {
		t.Errorf("Generate after Close = %v, want ErrClosed", err)
	}
	if _, err := s.GenerateAll(context.Background(), []Request{{DB: "db", Question: "q"}}); !errors.Is(err, ErrClosed) {
		t.Errorf("GenerateAll after Close = %v, want ErrClosed", err)
	}
}

// TestCloseIdempotentUnderConcurrency pins the shutdown contract the
// serving subsystem relies on: Close must be safe to call any number of
// times from any number of goroutines — a server's shutdown path racing
// experiments.Env.Close over the same service must not panic or deadlock,
// and every Close call must return only after the running generation has
// finished.
func TestCloseIdempotentUnderConcurrency(t *testing.T) {
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	s := New(Options{Variant: "v", Workers: 2, GenerateTraced: func(_ context.Context, db, q string) (string, *pipeline.Trace, error) {
		started.Done()
		<-release
		return "ev", nil, nil
	}})

	// One generation is mid-flight while the closes race.
	genDone := make(chan error, 1)
	go func() {
		_, err := s.Generate(context.Background(), "db", "q")
		genDone <- err
	}()
	started.Wait()
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
	s.Close() // and once more, sequentially
	if err := <-genDone; err != nil {
		t.Errorf("in-flight Generate failed across racing closes: %v", err)
	}
	if _, err := s.Generate(context.Background(), "db", "q2"); !errors.Is(err, ErrClosed) {
		t.Errorf("Generate after concurrent closes = %v, want ErrClosed", err)
	}
}

// TestConcurrentMixedLoad hammers the service from many goroutines with
// overlapping keys; run under -race this is the service's race test.
func TestConcurrentMixedLoad(t *testing.T) {
	var calls atomic.Int64
	s := echoService(t, Options{Variant: "v", Workers: 4, CacheCapacity: 8}, &calls)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := fmt.Sprintf("q%d", (g+i)%16)
				want := "db/" + q
				got, err := s.Generate(context.Background(), "db", q)
				if err != nil || got != want {
					t.Errorf("Generate(%q) = %q, %v", q, got, err)
					return
				}
			}
		}(g)
	}
	// A concurrent batch over the same key space.
	wg.Add(1)
	go func() {
		defer wg.Done()
		reqs := make([]Request, 32)
		for i := range reqs {
			reqs[i] = Request{DB: "db", Question: fmt.Sprintf("q%d", i%16)}
		}
		if _, err := s.GenerateAll(context.Background(), reqs); err != nil {
			t.Errorf("GenerateAll: %v", err)
		}
	}()
	wg.Wait()
	_ = s.Stats() // exercise the snapshot path concurrently-ish too
}

// TestWarmLookupsBeatColdGeneration pins the acceptance bar directly: with
// a generator costing ~2ms, warm cache hits must average at least 10x
// faster. The margin is enormous (hits are sub-microsecond), so the test is
// stable even on loaded CI machines.
func TestWarmLookupsBeatColdGeneration(t *testing.T) {
	const genCost = 2 * time.Millisecond
	s := New(Options{
		Variant: "v",
		GenerateTraced: func(_ context.Context, db, question string) (string, *pipeline.Trace, error) {
			time.Sleep(genCost)
			return "ev", nil, nil
		},
	})
	defer s.Close()
	ctx := context.Background()

	coldStart := time.Now()
	if _, err := s.Generate(ctx, "db", "q"); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(coldStart)

	const warmN = 100
	warmStart := time.Now()
	for i := 0; i < warmN; i++ {
		if _, err := s.Generate(ctx, "db", "q"); err != nil {
			t.Fatal(err)
		}
	}
	warm := time.Since(warmStart) / warmN

	if warm*10 > cold {
		t.Errorf("warm lookup %v not 10x faster than cold generation %v", warm, cold)
	}
}

func TestStatsStringMentionsVariant(t *testing.T) {
	var calls atomic.Int64
	s := echoService(t, Options{Variant: "seed_gpt"}, &calls)
	if _, err := s.Generate(context.Background(), "db", "q"); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().String(); got == "" || !contains(got, "seed_gpt") {
		t.Errorf("Stats().String() = %q", got)
	}
	if tp := s.Stats().Throughput(); tp != 0 {
		t.Errorf("throughput before any batch = %v, want 0", tp)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// BenchmarkWorkerScalingLatencyBound measures GenerateAll throughput over a
// generator dominated by simulated latency (as a network-backed LLM would
// be). Unlike CPU-bound generation, latency-bound work overlaps regardless
// of GOMAXPROCS, so throughput must scale near-linearly with Workers.
func BenchmarkWorkerScalingLatencyBound(b *testing.B) {
	const latency = time.Millisecond
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{DB: "db", Question: fmt.Sprintf("q%d", i)}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				svc := New(Options{
					Variant: "bench",
					Workers: workers,
					GenerateTraced: func(_ context.Context, db, question string) (string, *pipeline.Trace, error) {
						time.Sleep(latency)
						return "ev", nil, nil
					},
				})
				if _, err := svc.GenerateAll(context.Background(), reqs); err != nil {
					b.Fatal(err)
				}
				svc.Close()
			}
			b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkCacheGet measures the warm-path cost in isolation: a cache hit
// under no contention.
func BenchmarkCacheGet(b *testing.B) {
	c := NewCache(1024)
	k := KeyFor("db", "v", "question")
	c.Put(k, Entry{Evidence: "evidence"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(k); !ok {
			b.Fatal("miss")
		}
	}
}

// tracedEcho returns a TracedFunc that fabricates a two-stage trace and
// counts invocations.
func tracedEcho(calls *atomic.Int64) TracedFunc {
	return func(ctx context.Context, db, question string) (string, *pipeline.Trace, error) {
		calls.Add(1)
		return db + "/" + question, &pipeline.Trace{
			Graph: "test",
			Stages: []pipeline.StageTrace{
				{Stage: "extract", WallMicros: 5, Tokens: 11},
				{Stage: "generate", WallMicros: 7, Tokens: 23, Deps: []string{"extract"}},
			},
			WallMicros:   9,
			SerialMicros: 12,
		}, nil
	}
}

// TestGenerateTracedPreservesTraceAcrossCache: the trace returned on a
// cache hit is the original generation's, and CacheHit distinguishes the
// two requests.
func TestGenerateTracedPreservesTraceAcrossCache(t *testing.T) {
	var calls atomic.Int64
	svc := New(Options{Variant: "t", GenerateTraced: tracedEcho(&calls)})
	defer svc.Close()

	ctx := context.Background()
	first, err := svc.GenerateTraced(ctx, "db", "q")
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.Text != "db/q" {
		t.Fatalf("first = %+v, want fresh generation", first)
	}
	if first.Trace == nil || len(first.Trace.Stages) != 2 {
		t.Fatalf("first trace = %+v", first.Trace)
	}
	second, err := svc.GenerateTraced(ctx, "db", "q")
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second request should be a cache hit")
	}
	if second.Trace != first.Trace {
		t.Error("cache must preserve the original generation's trace")
	}
	if calls.Load() != 1 {
		t.Errorf("generator ran %d times, want 1", calls.Load())
	}
}

// TestStatsAggregatesStages: per-stage counters accumulate across traced
// generations and flow out through Stats.
func TestStatsAggregatesStages(t *testing.T) {
	var calls atomic.Int64
	svc := New(Options{Variant: "t", GenerateTraced: tracedEcho(&calls)})
	defer svc.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := svc.GenerateTraced(ctx, "db", fmt.Sprintf("q%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if len(st.Stages) != 2 {
		t.Fatalf("Stats.Stages = %+v, want 2 stages", st.Stages)
	}
	if st.Stages[0].Stage != "extract" || st.Stages[0].Count != 3 || st.Stages[0].Tokens != 33 {
		t.Errorf("extract agg = %+v", st.Stages[0])
	}
	if st.Stages[1].Stage != "generate" || st.Stages[1].WallMicros != 21 {
		t.Errorf("generate agg = %+v", st.Stages[1])
	}
}

// TestGenerateAllCarriesTraces: batch results carry each request's trace
// and cache-hit flag.
func TestGenerateAllCarriesTraces(t *testing.T) {
	var calls atomic.Int64
	svc := New(Options{Variant: "t", Workers: 2, GenerateTraced: tracedEcho(&calls)})
	defer svc.Close()
	reqs := []Request{
		{DB: "db", Question: "q1"},
		{DB: "db", Question: "q1"}, // duplicate: cache or single-flight
		{DB: "db", Question: "q2"},
	}
	results, err := svc.GenerateAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if r.Trace == nil {
			t.Errorf("result %d has no trace", i)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("generator ran %d times for 2 distinct questions", calls.Load())
	}
}

// TestUntracedGeneratorStillWorks: a generator that returns no trace
// still serves its evidence, with a nil Trace and no stage counters.
func TestUntracedGeneratorStillWorks(t *testing.T) {
	svc := New(Options{Variant: "t", GenerateTraced: func(_ context.Context, db, q string) (string, *pipeline.Trace, error) {
		return "ev", nil, nil
	}})
	defer svc.Close()
	ev, err := svc.GenerateTraced(context.Background(), "db", "q")
	if err != nil || ev.Text != "ev" || ev.Trace != nil {
		t.Fatalf("untraced = %+v, %v", ev, err)
	}
	if st := svc.Stats(); len(st.Stages) != 0 {
		t.Errorf("untraced service reports stages: %+v", st.Stages)
	}
}

// TestSharedGenerationDetachedFromCallerContext: the single-flight
// generation is shared by every deduped caller, so it must not run under
// the leader's context — a leader hanging up mid-generation stops waiting
// at once, and must not poison the result for followers (or for the
// cache).
func TestSharedGenerationDetachedFromCallerContext(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	svc := New(Options{
		Variant: "t",
		GenerateTraced: func(ctx context.Context, db, q string) (string, *pipeline.Trace, error) {
			close(started)
			<-gate
			if err := ctx.Err(); err != nil {
				return "", nil, err // would fire if the leader's ctx leaked in
			}
			return "ok", nil, nil
		},
	})
	defer svc.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, should the test fail with the gate shut

	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, err := svc.GenerateTraced(ctx, "db", "q")
		leader <- err
	}()
	<-started // the generation is in flight under the leader
	cancel()  // leader hangs up mid-generation
	select {
	case err := <-leader:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled leader = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled leader still waits for the generation")
	}
	release()
	// A caller arriving now joins the generation or finds its entry;
	// either way it sees the leader's generation succeed.
	if ev, err := svc.GenerateTraced(context.Background(), "db", "q"); err != nil || ev.Text != "ok" {
		t.Fatalf("generation observed the leader's cancellation: %+v, %v", ev, err)
	}
	// The result was cached despite the cancelled leader.
	warm, err := svc.GenerateTraced(context.Background(), "db", "q")
	if err != nil || !warm.CacheHit {
		t.Fatalf("follow-up = %+v, %v; want cache hit", warm, err)
	}
}

// TestCancelledWaitersAbandonOneGeneration: a leader and a follower whose
// contexts end while their shared generation runs both return ctx.Err()
// before it finishes; the one generation still completes and is cached.
func TestCancelledWaitersAbandonOneGeneration(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{})
	gate := make(chan struct{})
	svc := New(Options{
		Variant: "t",
		GenerateTraced: func(_ context.Context, db, q string) (string, *pipeline.Trace, error) {
			calls.Add(1)
			close(started)
			<-gate
			return "ok", nil, nil
		},
	})
	defer svc.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, should the test fail with the gate shut

	lctx, lcancel := context.WithCancel(context.Background())
	fctx, fcancel := context.WithCancel(context.Background())
	leader, follower := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := svc.Generate(lctx, "db", "q")
		leader <- err
	}()
	<-started
	go func() {
		_, err := svc.Generate(fctx, "db", "q")
		follower <- err
	}()
	for svc.Stats().Dedups == 0 {
		time.Sleep(time.Millisecond) // the follower joined the generation
	}
	lcancel()
	fcancel()
	for name, ch := range map[string]chan error{"leader": leader, "follower": follower} {
		select {
		case err := <-ch:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled %s = %v, want context.Canceled", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("cancelled %s still waits for the generation", name)
		}
	}
	release()
	svc.flight.close() // waits for the abandoned generation to land
	if n := calls.Load(); n != 1 {
		t.Errorf("generator ran %d times, want 1", n)
	}
	if _, ok := svc.cache.Get(KeyFor("db", "t", "q")); !ok {
		t.Error("the abandoned generation was not cached")
	}
}

// recordingStore logs the order of the store calls it sees.
type recordingStore struct {
	mu     sync.Mutex
	events []string
}

func (r *recordingStore) Load(func(Key, Entry)) error { return nil }

func (r *recordingStore) Append(Key, Entry) error { r.record("append"); return nil }

func (r *recordingStore) Flush() error { r.record("flush"); return nil }

func (r *recordingStore) record(ev string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

// TestCloseWaitsForDirectGenerationThenFlushes: a generation started by a
// direct call (not a pool job) still holds Close until it finishes, so
// its write-through append reaches the store before the shutdown flush —
// even when its caller has stopped waiting — and once Close has begun, no
// generation starts.
func TestCloseWaitsForDirectGenerationThenFlushes(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	store := &recordingStore{}
	svc := New(Options{
		Variant: "t",
		Store:   store,
		GenerateTraced: func(_ context.Context, db, q string) (string, *pipeline.Trace, error) {
			if q == "q" {
				close(started)
				<-gate
			}
			return "ok", nil, nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	go svc.Generate(ctx, "db", "q")
	<-started
	cancel() // the caller leaves; its generation does not

	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	<-svc.done // Close has begun
	select {
	case <-closed:
		t.Fatal("Close returned while a generation was still running")
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := svc.Generate(context.Background(), "db", "other"); !errors.Is(err, ErrClosed) {
		t.Errorf("Generate during Close = %v, want ErrClosed", err)
	}
	close(gate)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the generation finished")
	}
	store.mu.Lock()
	defer store.mu.Unlock()
	if got := fmt.Sprint(store.events); got != "[append flush]" {
		t.Errorf("store saw %s, want [append flush]", got)
	}
}

// TestFailedGenerationKeepsPartialTrace: on error the partial trace
// (naming the stage that aborted) survives to the caller.
func TestFailedGenerationKeepsPartialTrace(t *testing.T) {
	svc := New(Options{
		Variant: "t",
		GenerateTraced: func(ctx context.Context, db, q string) (string, *pipeline.Trace, error) {
			return "", &pipeline.Trace{
				Graph:  "g",
				Stages: []pipeline.StageTrace{{Stage: "bad", Err: "boom"}},
			}, errors.New("boom")
		},
	})
	defer svc.Close()
	ev, err := svc.GenerateTraced(context.Background(), "db", "q")
	if err == nil {
		t.Fatal("want error")
	}
	if ev.Trace == nil || len(ev.Trace.Stages) != 1 || ev.Trace.Stages[0].Err != "boom" {
		t.Fatalf("failure dropped the partial trace: %+v", ev.Trace)
	}
}
