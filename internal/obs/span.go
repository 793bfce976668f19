package obs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Span is one timed operation inside a trace. Spans form a tree through
// ParentID; times are absolute unix microseconds so spans recorded by
// different components of one process line up without shared state.
type Span struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// StartMicros is the span start as unix microseconds.
	StartMicros int64 `json:"start_us"`
	// DurationMicros is the span wall time; 0 while the span is open.
	DurationMicros int64 `json:"duration_us"`
	// Attrs carries span attributes (plan-cache hit, row count, logical
	// cost, batch fill, ...). Values are JSON-friendly scalars.
	Attrs map[string]any `json:"attrs,omitempty"`
	// Err is the span failure, empty on success.
	Err string `json:"error,omitempty"`

	start time.Time
	tr    *Trace
}

// Trace collects the spans of one request. It is carried through
// context.Context; a nil *Trace (no collector installed) makes every span
// operation a no-op, which is the tracing-disabled fast path.
type Trace struct {
	id        string
	requestID string

	mu    sync.Mutex
	spans []*Span
}

type traceKey struct{}
type spanKey struct{}

// NewTrace installs a new trace collector in ctx. traceID may come from
// an incoming traceparent header; empty generates a fresh one. requestID
// is attached to the finished record for log joining.
func NewTrace(ctx context.Context, traceID, requestID string) (context.Context, *Trace) {
	if traceID == "" {
		traceID = NewTraceID()
	}
	tr := &Trace{id: traceID, requestID: requestID}
	return context.WithValue(ctx, traceKey{}, tr), tr
}

// TraceFrom returns the trace collector installed in ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// CurrentSpan returns the innermost open span in ctx, or nil. Nil is safe
// to use: every Span method no-ops on a nil receiver.
func CurrentSpan(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// ContextWithSpan returns ctx carrying sp as the innermost span — how a
// server installs its root span so StartSpan calls below parent to it.
// A nil sp returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// ID returns the trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartSpan opens a span named name as a child of the innermost span in
// ctx (or as a root when there is none) and returns a derived context
// carrying it. Without a collector in ctx it returns (ctx, nil) — the
// disabled path allocates nothing.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	tr := TraceFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	parent := ""
	if cur := CurrentSpan(ctx); cur != nil {
		parent = cur.SpanID
	}
	sp := tr.newSpan(name, parent, time.Now())
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartRoot opens a span with an explicit parent span ID — the entry
// point for servers that received a traceparent header: the remote span
// becomes the parent even though it lives in another process.
func (t *Trace) StartRoot(name, parentSpanID string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, parentSpanID, time.Now())
}

func (t *Trace) newSpan(name, parent string, start time.Time) *Span {
	sp := &Span{
		TraceID:     t.id,
		SpanID:      NewSpanID(),
		ParentID:    parent,
		Name:        name,
		StartMicros: start.UnixMicro(),
		start:       start,
		tr:          t,
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// End closes the span, fixing its duration. Idempotent; no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.DurationMicros == 0 {
		s.DurationMicros = time.Since(s.start).Microseconds()
		if s.DurationMicros == 0 {
			s.DurationMicros = 1 // a closed span is never mistaken for an open one
		}
	}
	s.tr.mu.Unlock()
}

// Fail records an error on the span (stringified) and closes it.
func (s *Span) Fail(v any) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Err = fmt.Sprint(v)
	s.tr.mu.Unlock()
	s.End()
}

// SetAttr sets one attribute; no-op on nil.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]any, 4)
	}
	s.Attrs[key] = value
	s.tr.mu.Unlock()
}

// Child records an already-measured operation as a finished child span —
// used to absorb externally timed work (pipeline stage traces, the
// single-flight leader's generation and store-append timings) into the
// span tree. start/duration are the operation's own measurements.
func (s *Span) Child(name string, start time.Time, duration time.Duration, attrs map[string]any) *Span {
	if s == nil {
		return nil
	}
	sp := s.tr.newSpan(name, s.SpanID, start)
	s.tr.mu.Lock()
	sp.DurationMicros = duration.Microseconds()
	if sp.DurationMicros == 0 {
		sp.DurationMicros = 1
	}
	if len(attrs) > 0 {
		sp.Attrs = attrs
	}
	s.tr.mu.Unlock()
	return sp
}

// Finish snapshots the trace into an immutable TraceRecord. Open spans
// are closed at the snapshot instant. name/status/err describe the
// request outcome the record is filed under.
func (t *Trace) Finish(name string, status int, errMsg string) *TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := &TraceRecord{
		ID:        t.id,
		RequestID: t.requestID,
		Name:      name,
		Status:    status,
		Err:       errMsg,
		Spans:     make([]Span, len(t.spans)),
	}
	now := time.Now()
	for i, sp := range t.spans {
		if sp.DurationMicros == 0 {
			sp.DurationMicros = now.Sub(sp.start).Microseconds()
			if sp.DurationMicros == 0 {
				sp.DurationMicros = 1
			}
		}
		cp := *sp
		cp.tr = nil
		rec.Spans[i] = cp
	}
	if len(rec.Spans) > 0 {
		rec.StartMicros = rec.Spans[0].StartMicros
		var end int64
		for i := range rec.Spans {
			if e := rec.Spans[i].StartMicros + rec.Spans[i].DurationMicros; e > end {
				end = e
			}
			if rec.Spans[i].StartMicros < rec.StartMicros {
				rec.StartMicros = rec.Spans[i].StartMicros
			}
		}
		rec.DurationMicros = end - rec.StartMicros
	}
	return rec
}
