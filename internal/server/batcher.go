package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evserve"
	"repro/internal/obs"
)

// batcher coalesces concurrent evidence cache misses into
// evserve.GenerateMissed calls. A request whose evidence is cached has no
// pipeline run to contribute to a batch, so Generate answers it from the
// cache on the caller's goroutine and it never waits: no timer, no lock
// shared with other requests, no pool worker. Misses accumulate until
// either the batch window elapses or the batch reaches maxSize, then the
// whole batch is handed to the service's worker pool in one call, which
// bounds concurrent generations with backpressure — the serving-path
// analogue of what experiments.evidenceMap does for offline splits. The
// batch counters therefore describe only requests that had something to
// generate.
//
// With batching disabled (window <= 0 or maxSize <= 1) Generate degrades
// to a direct single-flight service call: the fast path for lightly
// loaded servers, where waiting out a window would only add latency.
type batcher struct {
	svc     *evserve.Service
	window  time.Duration
	maxSize int

	mu      sync.Mutex
	pending []batchItem
	timer   *time.Timer

	singles       atomic.Int64
	batches       atomic.Int64
	batched       atomic.Int64
	sizeFlushes   atomic.Int64
	windowFlushes atomic.Int64
}

type batchItem struct {
	req evserve.Request
	out chan batchResult
}

type batchResult struct {
	evidence evserve.Evidence
	err      error
	// size is how many requests shared the batch — a span attribute.
	size int
}

func newBatcher(svc *evserve.Service, window time.Duration, maxSize int) *batcher {
	return &batcher{svc: svc, window: window, maxSize: maxSize}
}

// Generate produces evidence (with its provenance trace) for one request:
// from the cache at once, otherwise by generating, possibly sharing a
// batch with concurrent callers. Cancelling ctx abandons the wait
// immediately; the batch itself keeps running for the other participants,
// and the abandoned result is delivered into a buffered channel and
// dropped.
func (b *batcher) Generate(ctx context.Context, db, question string) (evserve.Evidence, error) {
	if b.window <= 0 || b.maxSize <= 1 {
		b.singles.Add(1)
		return b.svc.GenerateTraced(ctx, db, question)
	}
	if ev, ok := b.svc.Lookup(ctx, db, question); ok {
		return ev, nil
	}
	// The wait span covers coalescing + the shared batch execution: the
	// batch itself runs under its own context (it is shared by unrelated
	// requests), so this span is the only per-request view of the batched
	// path's cost.
	_, sp := obs.StartSpan(ctx, "batcher.wait")
	item := batchItem{
		req: evserve.Request{DB: db, Question: question},
		out: make(chan batchResult, 1),
	}
	b.mu.Lock()
	b.pending = append(b.pending, item)
	if len(b.pending) == 1 {
		b.timer = time.AfterFunc(b.window, b.flushWindow)
	}
	if len(b.pending) >= b.maxSize {
		items := b.takeLocked()
		b.mu.Unlock()
		b.sizeFlushes.Add(1)
		go b.run(items)
	} else {
		b.mu.Unlock()
	}
	select {
	case r := <-item.out:
		sp.SetAttr("batch_size", r.size)
		if r.err != nil {
			sp.Fail(r.err)
		} else {
			sp.End()
		}
		return r.evidence, r.err
	case <-ctx.Done():
		sp.Fail(ctx.Err())
		return evserve.Evidence{}, ctx.Err()
	}
}

// takeLocked detaches the pending batch and disarms the window timer.
// Callers must hold b.mu.
func (b *batcher) takeLocked() []batchItem {
	items := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return items
}

func (b *batcher) flushWindow() {
	b.mu.Lock()
	items := b.takeLocked()
	b.mu.Unlock()
	if len(items) == 0 {
		return
	}
	b.windowFlushes.Add(1)
	b.run(items)
}

// Flush synchronously dispatches whatever is pending; the server's
// shutdown path calls it so no waiter is left parked behind a timer that
// would fire after the evidence service closes.
func (b *batcher) Flush() {
	b.mu.Lock()
	items := b.takeLocked()
	b.mu.Unlock()
	if len(items) == 0 {
		return
	}
	b.run(items)
}

// run executes one batch. The batch context is Background on purpose: a
// batch is shared by unrelated requests, so one caller's cancellation must
// not fail the others; individual callers stop waiting via their own ctx
// in Generate.
func (b *batcher) run(items []batchItem) {
	reqs := make([]evserve.Request, len(items))
	for i := range items {
		reqs[i] = items[i].req
	}
	results, _ := b.svc.GenerateMissed(context.Background(), reqs)
	// Count the batch before releasing its waiters, so a caller that
	// reads stats right after its Generate returns sees this batch.
	b.batches.Add(1)
	b.batched.Add(int64(len(items)))
	for i := range items {
		items[i].out <- batchResult{
			evidence: evserve.Evidence{
				Text:     results[i].Evidence,
				Trace:    results[i].Trace,
				CacheHit: results[i].CacheHit,
			},
			err:  results[i].Err,
			size: len(items),
		}
	}
}

// BatcherStats is the /metrics view of one corpus batcher.
type BatcherStats struct {
	// Singles counts requests served on the unbatched fast path.
	Singles int64 `json:"singles"`
	// Batches counts dispatched batches of cache misses.
	Batches int64 `json:"batches"`
	// BatchedRequests counts requests served through batches: those that
	// missed the cache. Hits never enter one (the evidence cache's hit
	// counter is how many took that path).
	BatchedRequests int64 `json:"batched_requests"`
	// AvgFill is BatchedRequests / Batches — the batching win: how many
	// requests each pool dispatch amortised over.
	AvgFill float64 `json:"avg_fill"`
	// SizeFlushes counts batches dispatched because they reached maxSize.
	SizeFlushes int64 `json:"size_flushes"`
	// WindowFlushes counts batches dispatched by the window timer.
	WindowFlushes int64 `json:"window_flushes"`
	// MaxSize echoes the configured size-flush threshold (0 when
	// batching is disabled).
	MaxSize int `json:"max_size"`
	// MeanOccupancy is AvgFill / MaxSize: how full the average dispatched
	// batch was relative to capacity. Near 1.0 means size flushes
	// dominate (the batcher is saturated); near 0 means the window timer
	// is sweeping up near-empty batches.
	MeanOccupancy float64 `json:"mean_occupancy"`
}

func (b *batcher) stats() BatcherStats {
	st := BatcherStats{
		Singles:         b.singles.Load(),
		Batches:         b.batches.Load(),
		BatchedRequests: b.batched.Load(),
		SizeFlushes:     b.sizeFlushes.Load(),
		WindowFlushes:   b.windowFlushes.Load(),
	}
	if b.window > 0 && b.maxSize > 1 {
		st.MaxSize = b.maxSize
	}
	if st.Batches > 0 {
		st.AvgFill = float64(st.BatchedRequests) / float64(st.Batches)
	}
	if st.MaxSize > 0 {
		st.MeanOccupancy = st.AvgFill / float64(st.MaxSize)
	}
	return st
}
