package evserve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// echoService builds a service whose generator returns "db/question" and
// counts invocations.
func echoService(t *testing.T, opts Options, calls *atomic.Int64) *Service {
	t.Helper()
	opts.Generate = func(db, question string) (string, error) {
		calls.Add(1)
		return db + "/" + question, nil
	}
	s := New(opts)
	t.Cleanup(s.Close)
	return s
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
		Generate: func(db, question string) (string, error) {
			if calls.Add(1) == 1 {
				close(started)
			}
			<-release
			return "ev", nil
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
	s := echoService(t, Options{Variant: "v", CacheCapacity: 2, CacheShards: 1}, &calls)
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
		Generate: func(db, question string) (string, error) {
			if question == "bad" {
				return "", boom
			}
			return "ok", nil
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
// ctx.Err(), abandoned requests must carry ctx.Err(), and the pool must not
// process the whole batch.
func TestGenerateAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	s := New(Options{
		Variant:       "v",
		Workers:       1,
		CacheCapacity: -1, // isolate pool behaviour from caching
		Generate: func(db, question string) (string, error) {
			if calls.Add(1) == 2 {
				cancel() // cancel while the batch is mid-flight
			}
			time.Sleep(time.Millisecond)
			return "ev", nil
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
		t.Errorf("pool processed all %d requests despite cancellation", n)
	}
	if st := s.Stats(); st.BatchRequests >= int64(len(reqs)) {
		t.Errorf("BatchRequests = %d counts never-submitted requests (batch size %d)", st.BatchRequests, len(reqs))
	}
}

func TestGenerateAfterCloseFails(t *testing.T) {
	s := New(Options{Variant: "v", Generate: func(db, q string) (string, error) { return "ev", nil }})
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
// and every Close call must return only after the pool has drained.
func TestCloseIdempotentUnderConcurrency(t *testing.T) {
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	s := New(Options{Variant: "v", Workers: 2, Generate: func(db, q string) (string, error) {
		started.Done()
		<-release
		return "ev", nil
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
	s := echoService(t, Options{Variant: "v", Workers: 4, CacheCapacity: 8, CacheShards: 2}, &calls)
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
		Generate: func(db, question string) (string, error) {
			time.Sleep(genCost)
			return "ev", nil
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
// of GOMAXPROCS, so throughput must scale near-linearly with pool size.
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
					Generate: func(db, question string) (string, error) {
						time.Sleep(latency)
						return "ev", nil
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

// BenchmarkCacheGet measures the warm-path cost in isolation: a sharded
// cache hit under no contention.
func BenchmarkCacheGet(b *testing.B) {
	c := NewCache(1024, 16)
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

// TestUntracedGeneratorStillWorks: services built on the plain
// GenerateFunc keep their exact old behaviour, just with nil traces.
func TestUntracedGeneratorStillWorks(t *testing.T) {
	svc := New(Options{Variant: "t", Generate: func(db, q string) (string, error) {
		return "ev", nil
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
// the leader's context — a leader hanging up mid-generation must not
// poison the result for followers (or for the cache).
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

	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan Evidence, 1)
	go func() {
		ev, _ := svc.GenerateTraced(ctx, "db", "q")
		leader <- ev
	}()
	<-started // the generation is in flight under the leader
	cancel()  // leader hangs up mid-generation
	close(gate)
	if ev := <-leader; ev.Text != "ok" {
		t.Fatalf("generation observed the leader's cancellation: %+v", ev)
	}
	// The result was cached despite the cancelled leader.
	warm, err := svc.GenerateTraced(context.Background(), "db", "q")
	if err != nil || !warm.CacheHit {
		t.Fatalf("follow-up = %+v, %v; want cache hit", warm, err)
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

// TestLookupThenGenerateMissedCountsOnce is the probe's counting and span
// contract: Lookup is the request's one counted cache read, so the pool
// job GenerateMissed runs for it re-reads the cache without counting
// (GenerateAll, whose jobs make the first read, still counts), a hit
// records evserve.lookup{cache_hit:true} and a miss records nothing.
func TestLookupThenGenerateMissedCountsOnce(t *testing.T) {
	var calls atomic.Int64
	s := echoService(t, Options{Variant: "v", Workers: 1}, &calls)
	ctx, tr := obs.NewTrace(context.Background(), "", "")
	hitsMisses := func() [2]int64 { st := s.Stats().Cache; return [2]int64{st.Hits, st.Misses} }

	if ev, ok := s.Lookup(ctx, "db", "q"); ok || ev != (Evidence{}) {
		t.Fatalf("Lookup on an empty cache = %+v, %v", ev, ok)
	}
	if got := hitsMisses(); got != [2]int64{0, 1} {
		t.Fatalf("after the missed Lookup: hits/misses = %v, want [0 1]", got)
	}
	// The same key twice in one batch on a one-worker pool: the second job
	// finds the first's entry — one generation, and no read counted.
	reqs := []Request{{DB: "db", Question: "q"}, {DB: "db", Question: "q"}}
	res, err := s.GenerateMissed(context.Background(), reqs)
	if err != nil || res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("GenerateMissed: %v, %+v", err, res)
	}
	if res[0].CacheHit || !res[1].CacheHit || res[1].Evidence != "db/q" || calls.Load() != 1 {
		t.Errorf("GenerateMissed results %+v after %d generations, want a generation then a hit", res, calls.Load())
	}
	if got := hitsMisses(); got != [2]int64{0, 1} {
		t.Errorf("after GenerateMissed: hits/misses = %v, want [0 1] still", got)
	}
	if ev, ok := s.Lookup(ctx, "db", "q"); !ok || !ev.CacheHit || ev.Text != "db/q" {
		t.Errorf("Lookup of a cached key = %+v, %v", ev, ok)
	}
	if _, err := s.GenerateAll(context.Background(), reqs[:1]); err != nil {
		t.Fatal(err)
	}
	if got := hitsMisses(); got != [2]int64{2, 1} {
		t.Errorf("after a hit Lookup and a GenerateAll hit: hits/misses = %v, want [2 1]", got)
	}

	rec := tr.Finish("test", 0, "")
	if len(rec.Spans) != 1 || rec.Spans[0].Name != "evserve.lookup" || rec.Spans[0].Attrs["cache_hit"] != true {
		t.Errorf("two Lookups (a miss, a hit) left spans %+v, want one evserve.lookup{cache_hit:true}", rec.Spans)
	}
}

// TestLookupDeclinesWhatItCannotAnswer: a dead context, a closed service
// and a cacheless service are not hits, whatever the cache holds — the
// generating path the caller takes next is what reports them.
func TestLookupDeclinesWhatItCannotAnswer(t *testing.T) {
	var calls atomic.Int64
	s := echoService(t, Options{Variant: "v"}, &calls)
	ctx := context.Background()
	if _, err := s.Generate(ctx, "db", "q"); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, ok := s.Lookup(dead, "db", "q"); ok {
		t.Error("Lookup under a cancelled context reported a hit")
	}
	s.Close()
	if _, ok := s.Lookup(ctx, "db", "q"); ok {
		t.Error("Lookup on a closed service reported a hit")
	}
	if st := s.Stats().Cache; st.Hits != 0 {
		t.Errorf("declined Lookups counted %d hits", st.Hits)
	}

	off := echoService(t, Options{Variant: "v", CacheCapacity: -1}, &calls)
	if _, err := off.Generate(ctx, "db", "q"); err != nil {
		t.Fatal(err)
	}
	if _, ok := off.Lookup(ctx, "db", "q"); ok {
		t.Error("Lookup with caching disabled reported a hit")
	}
}
