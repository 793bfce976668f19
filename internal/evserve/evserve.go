// Package evserve promotes SEED evidence generation from a test-time memo
// into a serving subsystem: a concurrent evidence-generation service that
// wraps a traced generation function (seed.Pipeline.GenerateEvidenceTraced)
// with three layers the paper's batch scripts lack:
//
//  1. An LRU cache keyed by (db, variant, question-hash), so repeat
//     questions — the common case for a deployed text-to-SQL assistant —
//     cost a map lookup instead of a full pipeline run.
//  2. Single-flight deduplication, so concurrent identical requests share
//     one pipeline invocation instead of racing to do the same work. The
//     invocation runs detached from every caller's context: a caller whose
//     context ends stops waiting at once, and the generation still lands
//     in the cache (and the store).
//  3. A batch API (GenerateAll) for offline splits: each batch runs at
//     most Workers requests at a time, with context cancellation. A
//     Service keeps no goroutine of its own; single requests
//     (GenerateTraced, what the server calls) run on the caller's.
//
// Every layer exports counters (hits, misses, in-flight, dedups, batch
// throughput) through Stats, which the benchrun CLI renders as the
// throughput report.
package evserve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// TracedFunc produces evidence plus its per-stage provenance trace for
// one (database, question) pair. It must be safe for concurrent use;
// seed.Pipeline.GenerateEvidenceTraced qualifies.
type TracedFunc func(ctx context.Context, dbName, question string) (string, *pipeline.Trace, error)

// Store persists cache entries across process restarts. evstore.Store is
// the canonical implementation; the interface lives here so the service
// does not depend on any particular persistence format.
//
// Implementations must be safe for concurrent use: Append is called from
// every generating goroutine.
type Store interface {
	// Load streams every persisted entry; New replays it into the cache
	// before the service accepts requests.
	Load(fn func(Key, Entry)) error
	// Append persists one freshly generated entry write-through.
	Append(Key, Entry) error
	// Flush returns once every accepted append is as durable as the
	// store makes it; Close calls it after every running generation has
	// finished, so no accepted write is lost on clean shutdown.
	Flush() error
}

// Options configures a Service.
type Options struct {
	// Variant names the evidence flavour this service produces (e.g.
	// "seed_gpt"). It becomes part of every cache key, so services with
	// distinct variants never serve each other's entries.
	Variant string
	// GenerateTraced is the wrapped generation function. Required.
	// Generations carry its per-stage provenance traces, which the cache
	// preserves and Stats aggregates into per-stage cost counters.
	GenerateTraced TracedFunc
	// Workers bounds the requests one GenerateAll batch runs at a time;
	// 0 defaults to GOMAXPROCS.
	Workers int
	// CacheCapacity is the cache size in entries; 0 defaults to 4096,
	// negative disables caching entirely.
	CacheCapacity int
	// Store, when set, makes the cache durable: New replays the store
	// into the cache (traces included) before serving, every generation
	// is persisted write-through, and Close flushes the store after the
	// running generations finish. Caching must be enabled
	// (CacheCapacity >= 0) for restore to have somewhere to land; appends
	// happen regardless.
	// The Service does not close the store — its creator owns that.
	Store Store
}

// ErrClosed is returned by Generate and GenerateAll after Close.
var ErrClosed = errors.New("evserve: service closed")

// Request is one unit of batch work for GenerateAll.
type Request struct {
	// DB is the target database name.
	DB string
	// Question is the natural-language question to generate evidence for.
	Question string
}

// Result pairs a Request with its outcome, in submission order.
type Result struct {
	// Request echoes the submitted request.
	Request Request
	// Evidence is the generated (or cached) evidence; empty on error.
	Evidence string
	// Trace is the per-stage provenance of the evidence — preserved
	// across cache hits, nil when the generator returned none.
	Trace *pipeline.Trace
	// CacheHit reports the request was answered from the evidence cache.
	CacheHit bool
	// Err is the per-request failure, including ctx.Err() for requests
	// abandoned by cancellation.
	Err error
}

// Evidence is a traced generation outcome, the GenerateTraced return
// value.
type Evidence struct {
	// Text is the evidence string.
	Text string
	// Trace is the per-stage provenance of the generation that produced
	// Text. On a cache hit it describes the original generation, not the
	// lookup; it is nil when the generator returned none.
	Trace *pipeline.Trace
	// CacheHit reports this request was served from the evidence cache.
	CacheHit bool
}

// Service is a concurrent, cached evidence-generation service. Construct
// with New; the zero value is not usable. A Service is safe for concurrent
// use by multiple goroutines.
type Service struct {
	opts   Options
	cache  *Cache
	flight flightGroup
	stages *pipeline.Aggregator

	closeOnce sync.Once
	flushOnce sync.Once
	done      chan struct{}

	inflight    atomic.Int64
	dedups      atomic.Int64
	generations atomic.Int64
	failures    atomic.Int64
	genNanos    atomic.Int64

	restored     int64 // entries replayed from the store at New; written once, read by Stats
	storeAppends atomic.Int64
	storeErrors  atomic.Int64
	injected     atomic.Int64

	batchCalls    atomic.Int64
	batchRequests atomic.Int64
	batchNanos    atomic.Int64
}

// New builds a Service; it starts no goroutine. It panics if
// GenerateTraced is not set, since a service with nothing to wrap is a
// programming error, not a runtime condition.
func New(opts Options) *Service {
	if opts.GenerateTraced == nil {
		panic("evserve: Options.GenerateTraced is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	s := &Service{
		opts:   opts,
		done:   make(chan struct{}),
		stages: pipeline.NewAggregator(),
	}
	if opts.CacheCapacity >= 0 {
		s.cache = NewCache(opts.CacheCapacity)
		s.flight.cache = s.cache
	}
	if opts.Store != nil && s.cache != nil {
		// Warm restart: replay the durable store into the cache before the
		// first request, so a restarted service serves byte-identical
		// evidence (traces included) without a single generation.
		// A replay failure is not fatal: the service degrades to a cold
		// cache and the error surfaces through Stats.StoreErrors. Entries
		// of other variants are skipped — stores are shared per corpus, so
		// a multi-variant store would otherwise pollute (and, under a
		// small CacheCapacity, evict) this service's own entries with keys
		// it can never look up.
		if err := opts.Store.Load(func(k Key, e Entry) {
			if k.Variant != opts.Variant {
				return
			}
			s.cache.Put(k, e)
			s.restored++
		}); err != nil {
			s.storeErrors.Add(1)
		}
	}
	return s
}

// Generate returns evidence for one question: from the cache when present,
// otherwise by running the wrapped generation function — at most once per
// key across concurrent callers. It is safe to call from inside another
// Service's generation function.
func (s *Service) Generate(ctx context.Context, db, question string) (string, error) {
	ev, err := s.GenerateTraced(ctx, db, question)
	return ev.Text, err
}

// GenerateTraced is Generate plus provenance: the returned Evidence
// carries the per-stage trace of the generation that produced it (the
// cache preserves traces, so warm hits still explain themselves) and
// whether this particular request was a cache hit.
//
// A caller whose ctx ends while the generation runs gets ctx.Err() at
// once; the generation runs on to completion under no caller's context,
// and its result lands in the cache and the store all the same.
func (s *Service) GenerateTraced(ctx context.Context, db, question string) (Evidence, error) {
	ev, k, err := s.probe(ctx, db, question)
	if err != nil || ev.CacheHit {
		return ev, err
	}
	sp := obs.StartSpan(ctx, "evserve.lookup")
	sp.SetBool("cache_hit", false)
	// Generation/append timings escape the closure through t (one struct,
	// so one allocation). The closure writes t before the call's done
	// channel closes, so the caller that started the generation may read
	// it once it has seen done closed — and only then: a caller that
	// stopped waiting would race the closure. Followers, who did none of
	// the work, record no child spans.
	var t struct {
		genStart, appendStart time.Time
		genDur, appendDur     time.Duration
	}
	c, shared, err := s.flight.start(k, func() (Entry, error) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		t.genStart = time.Now()
		// The generation is shared by every deduped caller, so it must
		// not run under any single caller's context: the leader hanging
		// up would fail followers whose own contexts are alive. It runs to
		// completion, and callers stop *waiting* via their own ctx.
		ev, trace, err := s.opts.GenerateTraced(context.Background(), db, question)
		t.genDur = time.Since(t.genStart)
		s.genNanos.Add(t.genDur.Nanoseconds())
		s.generations.Add(1)
		if err != nil {
			s.failures.Add(1)
			// Keep the partial trace: it names the stage that aborted.
			return Entry{Trace: trace}, err
		}
		s.stages.Observe(trace)
		e := Entry{Evidence: ev, Trace: trace}
		if s.cache != nil {
			s.cache.Put(k, e)
		}
		if s.opts.Store != nil {
			// Write-through: the entry is on its way to disk before the
			// caller sees it. Store failures never fail the request —
			// evidence was generated; only durability suffered.
			t.appendStart = time.Now()
			if serr := s.opts.Store.Append(k, e); serr != nil {
				s.storeErrors.Add(1)
			} else {
				s.storeAppends.Add(1)
			}
			t.appendDur = time.Since(t.appendStart)
		}
		return e, nil
	})
	if err != nil {
		sp.Fail(err)
		return Evidence{}, err
	}
	if shared {
		s.dedups.Add(1)
		sp.SetBool("deduped", true)
	}
	select {
	case <-c.done:
	case <-ctx.Done():
		sp.Fail(ctx.Err())
		return Evidence{}, ctx.Err()
	}
	if !shared {
		sp.Child("evserve.generate", t.genStart, t.genDur)
		if t.appendDur > 0 {
			sp.Child("evstore.append", t.appendStart, t.appendDur)
		}
	}
	if c.err != nil {
		sp.Fail(c.err)
		return Evidence{Trace: c.val.Trace}, c.err
	}
	sp.End()
	return Evidence{Text: c.val.Evidence, Trace: c.val.Trace}, nil
}

// probe is the first step of every request: is the caller still there, is
// the service open, is the answer cached. A hit comes back with CacheHit
// set and its span recorded; a miss is the zero Evidence and the key to
// generate under. Each request has one counted probe: cache_hits and
// cache_misses move by one per request.
func (s *Service) probe(ctx context.Context, db, question string) (Evidence, Key, error) {
	if err := s.stopped(ctx); err != nil {
		return Evidence{}, Key{}, err
	}
	k := KeyFor(db, s.opts.Variant, question)
	if s.cache != nil {
		if e, ok := s.cache.Get(k); ok {
			// Opened after the read so that a miss leaves no span behind: a
			// hit is sub-microsecond, below the span clock's resolution.
			sp := obs.StartSpan(ctx, "evserve.lookup")
			sp.SetBool("cache_hit", true)
			sp.End()
			return Evidence{Text: e.Evidence, Trace: e.Trace, CacheHit: true}, k, nil
		}
	}
	return Evidence{}, k, nil
}

// stopped reports why no request may start now: ctx.Err() when the caller
// has gone, ErrClosed after Close, and nil otherwise.
func (s *Service) stopped(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case <-s.done:
		return ErrClosed
	default:
		return nil
	}
}

// Inject lands an externally produced entry (typically one replicated
// from a fleet peer's store) directly in the cache, so a follower serves
// its dead peer's shard from memory without a single generation. Entries
// of other variants are skipped — same rule as the startup replay: this
// service could never look their keys up, so caching them would only
// evict its own. Inject does not persist; replication owns durability.
// It reports whether the entry was cached.
func (s *Service) Inject(k Key, e Entry) bool {
	if k.Variant != s.opts.Variant || s.cache == nil {
		return false
	}
	select {
	case <-s.done:
		return false
	default:
	}
	s.cache.Put(k, e)
	s.injected.Add(1)
	return true
}

// GenerateAll runs a batch of requests, at most Workers at a time, and
// returns one Result per request, in submission order. Cancelling ctx stops
// submission and fails the requests not yet started with ctx.Err();
// requests already generating fail with ctx.Err() too, while their
// generations run to completion and are cached. The returned error is
// ctx.Err() when the batch was cancelled, ErrClosed when the service was
// closed mid-batch, and nil otherwise — per-request failures are reported
// on the individual Results only.
func (s *Service) GenerateAll(ctx context.Context, reqs []Request) ([]Result, error) {
	start := time.Now()
	results := make([]Result, len(reqs))
	var wg sync.WaitGroup
	var stopErr error
	sem := make(chan struct{}, s.opts.Workers)
	submitted := 0
	for i := range reqs {
		results[i].Request = reqs[i]
		if stopErr == nil {
			stopErr = s.stopped(ctx)
		}
		if stopErr == nil {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				stopErr = ctx.Err()
			case <-s.done:
				stopErr = ErrClosed
			}
		}
		if stopErr != nil {
			results[i].Err = stopErr
			continue
		}
		submitted++
		wg.Add(1)
		go func(r *Result) {
			defer wg.Done()
			defer func() { <-sem }()
			ev, err := s.GenerateTraced(ctx, r.Request.DB, r.Request.Question)
			r.Evidence, r.Trace, r.CacheHit, r.Err = ev.Text, ev.Trace, ev.CacheHit, err
		}(&results[i])
	}
	wg.Wait()
	s.batchCalls.Add(1)
	s.batchRequests.Add(int64(submitted))
	s.batchNanos.Add(time.Since(start).Nanoseconds())
	return results, stopErr
}

// Close refuses new generations (they get ErrClosed), waits for the
// generations already running — batch requests and direct calls alike,
// including those whose callers stopped waiting — and then flushes the
// store (when one is attached) so every write accepted before shutdown is
// durable: flushing earlier would race the last generations' appends. It
// is idempotent. Batches running concurrently with Close may observe
// ErrClosed on their remaining requests.
func (s *Service) Close() {
	s.closeOnce.Do(func() { close(s.done) })
	s.flight.close()
	if s.opts.Store != nil {
		// Flushed once: a repeat Close after the store's owner closed it
		// must not report a phantom StoreError.
		s.flushOnce.Do(func() {
			if err := s.opts.Store.Flush(); err != nil {
				s.storeErrors.Add(1)
			}
		})
	}
}

// Stats is a point-in-time snapshot of the service's counters.
type Stats struct {
	// Variant echoes Options.Variant.
	Variant string
	// Workers echoes the resolved Options.Workers.
	Workers int
	// Cache holds the cache counters; zero-valued when caching is off.
	Cache CacheStats
	// Inflight is the number of generations running right now.
	Inflight int64
	// Dedups counts requests that shared another caller's in-flight
	// generation instead of starting their own.
	Dedups int64
	// Generations counts actual pipeline invocations (cache misses that
	// won the single-flight race).
	Generations int64
	// Failures counts generations that returned an error.
	Failures int64
	// GenerationTime is the summed wall time of all generations.
	GenerationTime time.Duration
	// BatchCalls counts GenerateAll invocations.
	BatchCalls int64
	// BatchRequests counts requests actually started across all
	// batches; requests failed before they started (cancellation, Close)
	// are excluded so Throughput is not overstated.
	BatchRequests int64
	// BatchTime is the summed wall time of all GenerateAll calls.
	BatchTime time.Duration
	// Restored counts entries replayed from the durable store into the
	// cache at construction; 0 when no store is attached (or it was
	// empty).
	Restored int64
	// StoreAppends counts entries persisted write-through to the store.
	StoreAppends int64
	// StoreErrors counts store operations (replay, append, flush) that
	// failed. Store failures never fail requests; this counter is how
	// they surface.
	StoreErrors int64
	// Injected counts entries landed in the cache via Inject (fleet
	// replication); 0 outside a fleet.
	Injected int64
	// Stages aggregates the per-stage provenance traces of every
	// generation: count, wall time and token spend per pipeline stage.
	// Generations that returned no trace add nothing.
	Stages []pipeline.StageAgg
}

// Throughput returns batch requests served per second of batch wall time,
// or 0 before any batch has run.
func (st Stats) Throughput() float64 {
	if st.BatchTime <= 0 {
		return 0
	}
	return float64(st.BatchRequests) / st.BatchTime.Seconds()
}

// String renders the snapshot as a one-line summary.
func (st Stats) String() string {
	return fmt.Sprintf(
		"%s: %d workers, cache %d/%d/%d hit/miss/evict (%d entries), %d dedup, %d gen (%d failed) in %v, %d reqs in %d batches over %v (%.0f req/s)",
		st.Variant, st.Workers,
		st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.Cache.Entries,
		st.Dedups, st.Generations, st.Failures, st.GenerationTime.Round(time.Microsecond),
		st.BatchRequests, st.BatchCalls, st.BatchTime.Round(time.Microsecond), st.Throughput(),
	)
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Variant:        s.opts.Variant,
		Workers:        s.opts.Workers,
		Inflight:       s.inflight.Load(),
		Dedups:         s.dedups.Load(),
		Generations:    s.generations.Load(),
		Failures:       s.failures.Load(),
		GenerationTime: time.Duration(s.genNanos.Load()),
		BatchCalls:     s.batchCalls.Load(),
		BatchRequests:  s.batchRequests.Load(),
		BatchTime:      time.Duration(s.batchNanos.Load()),
		Restored:       s.restored,
		StoreAppends:   s.storeAppends.Load(),
		StoreErrors:    s.storeErrors.Load(),
		Injected:       s.injected.Load(),
		Stages:         s.stages.Snapshot(),
	}
	if s.cache != nil {
		st.Cache = s.cache.Stats()
	}
	return st
}
