package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func mkRecord(id string, status int, dur time.Duration, errMsg string) *TraceRecord {
	return &TraceRecord{
		ID:             id,
		Name:           "/v1/query",
		Status:         status,
		Err:            errMsg,
		Spans:          []Span{{TraceID: id, SpanID: NewSpanID(), Name: "request", StartMicros: time.Now().UnixMicro(), DurationMicros: dur.Microseconds()}},
		StartMicros:    time.Now().UnixMicro(),
		DurationMicros: dur.Microseconds(),
	}
}

func TestTraceStoreGetAndList(t *testing.T) {
	s := NewTraceStore(4, 50*time.Millisecond)
	for i := 0; i < 3; i++ {
		s.Add(mkRecord(fmt.Sprintf("t%d", i), 200, time.Millisecond, ""))
	}
	if got := s.Get("t1"); got == nil || got.ID != "t1" {
		t.Fatalf("Get(t1) = %v", got)
	}
	if got := s.Get("missing"); got != nil {
		t.Fatalf("Get(missing) = %v, want nil", got)
	}
	sums := s.List(0)
	if len(sums) != 3 {
		t.Fatalf("List len = %d, want 3", len(sums))
	}
	if sums[0].ID != "t2" { // newest first
		t.Fatalf("List[0] = %s, want t2", sums[0].ID)
	}
	if got := s.List(2); len(got) != 2 {
		t.Fatalf("List(2) len = %d", len(got))
	}
}

// TestTraceStoreFilesARecordOnce files records a second time — a
// finished trace's record (Finish returns the same one again) and one
// deep in the chain of its ID — and checks each is retained once and
// rotates out cleanly.
func TestTraceStoreFilesARecordOnce(t *testing.T) {
	s := NewTraceStore(2, 0)
	tr := NewTrace("", "")
	tr.StartRoot("request", "").End()
	rec := tr.Finish("/v1/query", 200, "")
	s.Add(rec)
	s.Add(tr.Finish("/v1/query", 200, ""))
	if n, l := s.Len(), len(s.List(0)); n != 1 || l != 1 {
		t.Fatalf("a record filed twice: Len %d, List %d, want 1 and 1", n, l)
	}
	older, newer := mkRecord("dup", 200, time.Millisecond, ""), mkRecord("dup", 200, time.Millisecond, "")
	s = NewTraceStore(2, 0)
	s.Add(older)
	s.Add(newer)
	s.Add(older)
	s.Add(newer)
	if n, l := s.Len(), len(s.List(0)); n != 2 || l != 2 {
		t.Fatalf("two records of one ID, each filed twice: Len %d, List %d, want 2 and 2", n, l)
	}
	if s.Get("dup") != newer {
		t.Fatal("Get does not return the newest record of the ID")
	}
	for i := 0; i < 4; i++ {
		s.Add(mkRecord(fmt.Sprintf("fast%d", i), 200, time.Millisecond, ""))
	}
	if n := s.Len(); n != 2 || s.Get("dup") != nil {
		t.Fatalf("after churn: Len %d, Get(dup) %v, want 2 and nil", n, s.Get("dup"))
	}
}

func TestTraceStoreKeepsSlowAndErrorUnderChurn(t *testing.T) {
	s := NewTraceStore(4, 50*time.Millisecond)
	s.Add(mkRecord("slow", 200, 80*time.Millisecond, ""))
	s.Add(mkRecord("err", 500, time.Millisecond, "exec failed"))
	// Churn far past the recent ring's capacity.
	for i := 0; i < 32; i++ {
		s.Add(mkRecord(fmt.Sprintf("fast%d", i), 200, time.Millisecond, ""))
	}
	if s.Get("slow") == nil {
		t.Fatal("slow trace evicted by healthy churn")
	}
	if s.Get("err") == nil {
		t.Fatal("errored trace evicted by healthy churn")
	}
	if s.Get("fast0") != nil {
		t.Fatal("oldest fast trace should have rotated out")
	}
	// Only the last 4 fast traces plus the 2 kept ones remain.
	if n := s.Len(); n != 6 {
		t.Fatalf("Len = %d, want 6", n)
	}
	var slow, errored bool
	for _, sum := range s.List(0) {
		if sum.ID == "slow" && sum.Slow {
			slow = true
		}
		if sum.ID == "err" && sum.Errored {
			errored = true
		}
	}
	if !slow || !errored {
		t.Fatalf("summaries missing slow/errored flags: slow=%v errored=%v", slow, errored)
	}
}

func TestTraceStoreNilSafe(t *testing.T) {
	var s *TraceStore
	s.Add(mkRecord("x", 200, time.Millisecond, ""))
	if s.Get("x") != nil || s.List(0) != nil || s.Len() != 0 {
		t.Fatal("nil store should be inert")
	}
	real := NewTraceStore(2, 0)
	real.Add(nil) // nil record (tracing disabled) must be ignored
	if real.Len() != 0 {
		t.Fatal("nil record should not be stored")
	}
}

// TestConcurrentRegistryAndTraceRing hammers the metrics registry and the
// trace ring from 8 goroutines; run under -race this is the data-race
// gate for the whole obs hot path.
func TestConcurrentRegistryAndTraceRing(t *testing.T) {
	reg := NewRegistry()
	store := NewTraceStore(64, 5*time.Millisecond)
	const goroutines = 8
	const iters = 400

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			route := fmt.Sprintf("/r%d", g%3)
			for i := 0; i < iters; i++ {
				reg.Counter("reqs_total", "", L("route", route)).Inc()
				reg.CounterFunc(fmt.Sprintf("c%d_total", g), "", func() int64 { return int64(g) })
				reg.GaugeFunc(fmt.Sprintf("g%d_stat", g), "", func() float64 { return float64(g) })
				h := reg.Histogram("lat_us", "", 128, L("route", route))
				h.Observe(int64(i))
				if i%50 == 0 {
					h.Quantiles(0.99)
				}

				tr := NewTrace("", NewRequestID())
				ctx := ContextWithSpan(context.Background(), tr.StartRoot("request", ""))
				sp := StartSpan(ctx, "work")
				inner := StartSpan(ContextWithSpan(ctx, sp), "inner")
				inner.SetInt("i", i)
				inner.End()
				sp.End()
				status := 200
				if i%97 == 0 {
					status = 500
				}
				store.Add(tr.Finish(route, status, ""))
				if i%25 == 0 {
					store.List(10)
					store.Get(tr.ID())
				}
			}
		}(g)
	}
	// Concurrent exposition while writers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b sink
			_ = reg.WritePrometheus(&b)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done

	if got := reg.Counter("reqs_total", "", L("route", "/r0")).Value() +
		reg.Counter("reqs_total", "", L("route", "/r1")).Value() +
		reg.Counter("reqs_total", "", L("route", "/r2")).Value(); got != goroutines*iters {
		t.Fatalf("counter total = %d, want %d", got, goroutines*iters)
	}
	if store.Len() == 0 {
		t.Fatal("trace store empty after concurrent adds")
	}
}

type sink struct{}

func (sink) Write(p []byte) (int, error) { return len(p), nil }
