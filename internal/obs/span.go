package obs

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"
)

// Span is one timed operation inside a trace. Spans form a tree through
// ParentID; times are absolute unix microseconds so spans recorded by
// different components of one process line up without shared state.
//
// A *Span returned by StartSpan, StartRoot or Child is a handle into its
// trace's storage: set its outcome through the methods. Its IDs, parent
// and name are fixed when it opens; read durations, attributes and
// errors from the finished TraceRecord.
type Span struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// StartMicros is the span start as unix microseconds.
	StartMicros int64 `json:"start_us"`
	// DurationMicros is the span wall time; 0 while the span is open.
	DurationMicros int64 `json:"duration_us"`
	// Attrs carries span attributes (plan-cache hit, row count, cost,
	// batch fill, ...), scalars encoded as one JSON object.
	Attrs Attrs `json:"attrs,omitempty"`
	// Err is the span failure, empty on success.
	Err string `json:"error,omitempty"`

	tr   *Trace
	mono int64 // start, in nanoseconds after tr.t0 on the monotonic clock
	idx  int32 // slot in tr.spans
}

// Trace collects the spans of one request and becomes its record. A nil
// *Trace (no collector installed) makes every span operation a no-op,
// which is the tracing-disabled fast path.
//
// Its storage is sized by the traffic it serves: spans live in one slab
// of 3 (a memory hit), grown by copying to 8 (an evidence-cache hit, sent
// directly or through fleet.Router), 18 (a generation), 38, ...; span
// IDs are cut from hex blocks drawn once per slab; attributes are one
// list in set order, tagged with their span's slot. Finish groups that
// storage into the record in place.
type Trace struct {
	rec TraceRecord // what Finish returns; ID and RequestID set at NewTrace
	t0  time.Time
	hdr [1]string // X-Trace-Id's value slice, shared with response headers

	mu    sync.Mutex
	spans []Span
	attrs Attrs
	ids   string // drawn span IDs not yet used, 16 hex chars each
	done  bool
}

// firstSlab spans fit a memory hit (request, admission, memory.lookup).
// firstAttrs attributes fit a memory hit (9) and a direct evidence-cache
// hit (10). A routed cache hit (11) or a generation (12, 13 routed) grows
// the list once, to 21; a first list of 11 or more would cost every
// memory hit 96 B more, since past 512 B the runtime adds an 8-byte
// header to an allocation that holds pointers and rounds to 576.
const (
	firstSlab  = 3
	firstAttrs = 10
)

type spanKey struct{}

// NewTrace starts a trace collector. traceID may come from an incoming
// traceparent header; empty generates a fresh one. requestID is attached
// to the finished record for log joining. Install its root span in a
// context with ContextWithSpan.
func NewTrace(traceID, requestID string) *Trace {
	t := &Trace{t0: time.Now()}
	if traceID == "" {
		block := randHexBlock(16, firstSlab)
		traceID, t.ids = block[:32], block[32:]
	}
	t.rec.ID, t.rec.RequestID = traceID, requestID
	return t
}

// CurrentSpan returns the innermost open span in ctx, or nil. Nil is safe
// to use: every Span method no-ops on a nil receiver.
func CurrentSpan(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// ContextWithSpan returns ctx carrying sp as the innermost span — how a
// server installs its root span so StartSpan calls below parent to it,
// and how a span that has children passes itself on. A nil sp returns
// ctx unchanged.
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
	return t.rec.ID
}

// SetHeader stamps the trace ID on h as X-Trace-Id. The value's slice is
// the trace's own, so stamping allocates nothing.
func (t *Trace) SetHeader(h http.Header) {
	if t == nil {
		return
	}
	t.hdr[0] = t.rec.ID
	h[TraceIDHeader] = t.hdr[:]
}

// StartSpan opens a span named name as a child of the innermost span in
// ctx. It derives no context: a span that has children of its own is
// passed on with ContextWithSpan. Without a span in ctx it returns nil —
// the disabled path allocates nothing.
func StartSpan(ctx context.Context, name string) *Span {
	parent := CurrentSpan(ctx)
	if parent == nil {
		return nil
	}
	return parent.tr.open(name, parent.SpanID, time.Now(), 0)
}

// StartRoot opens a span with an explicit parent span ID — the entry
// point for servers that received a traceparent header: the remote span
// becomes the parent even though it lives in another process.
func (t *Trace) StartRoot(name, parentSpanID string) *Span {
	if t == nil {
		return nil
	}
	return t.open(name, parentSpanID, time.Now(), 0)
}

// open adds a span to the trace: open when durMicros is 0, else finished
// with that duration. It returns nil once the trace has finished.
func (t *Trace) open(name, parent string, start time.Time, durMicros int64) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil
	}
	if len(t.spans) == cap(t.spans) {
		grown := make([]Span, len(t.spans), nextSlab(cap(t.spans)))
		copy(grown, t.spans)
		t.spans = grown
	}
	if t.ids == "" {
		t.ids = randHexBlock(0, min(cap(t.spans)-len(t.spans), maxBlockIDs))
	}
	i := len(t.spans)
	t.spans = t.spans[:i+1]
	sp := &t.spans[i]
	*sp = Span{
		TraceID:        t.rec.ID,
		SpanID:         t.ids[:16],
		ParentID:       parent,
		Name:           name,
		StartMicros:    start.UnixMicro(),
		DurationMicros: durMicros,
		tr:             t,
		mono:           int64(start.Sub(t.t0)),
		idx:            int32(i),
	}
	t.ids = t.ids[16:]
	return sp
}

// nextSlab is the capacity a full slab of c spans grows to: 3, 8, 18, 38.
// An evidence-cache hit has 7 spans (8 routed, a router.forward span
// added) and a generation 13 (14 routed); 8 and 18 spans, with the
// runtime's 8-byte header, each fill their size class (1,280 and 2,688 B).
func nextSlab(c int) int {
	if c == 0 {
		return firstSlab
	}
	return 2*c + 2
}

// closeAt fixes an open span's duration at elapsed after the trace began.
func (sp *Span) closeAt(elapsed time.Duration) {
	if sp.DurationMicros == 0 {
		// A closed span is never mistaken for an open one.
		sp.DurationMicros = max((elapsed.Nanoseconds()-sp.mono)/1000, 1)
	}
}

// End closes the span, fixing its duration. Idempotent; no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	elapsed := time.Since(t.t0)
	t.mu.Lock()
	if !t.done {
		t.spans[s.idx].closeAt(elapsed)
	}
	t.mu.Unlock()
}

// Fail records an error on the span (stringified) and closes it.
func (s *Span) Fail(v any) {
	if s == nil {
		return
	}
	t := s.tr
	msg := fmt.Sprint(v)
	elapsed := time.Since(t.t0)
	t.mu.Lock()
	if !t.done {
		sp := &t.spans[s.idx]
		sp.Err = msg
		sp.closeAt(elapsed)
	}
	t.mu.Unlock()
}

// SetStr, SetBool, SetInt, SetInt64 and SetFloat set one attribute of
// their type; a later set of the same key replaces the earlier value.
// No-op on nil.
func (s *Span) SetStr(key, v string) { s.setAttr(Attr{Key: key, kind: attrString, str: v}) }

func (s *Span) SetBool(key string, v bool) {
	a := Attr{Key: key, kind: attrBool}
	if v {
		a.num = 1
	}
	s.setAttr(a)
}

func (s *Span) SetInt(key string, v int) { s.setAttr(Attr{Key: key, kind: attrInt, num: uint64(v)}) }

func (s *Span) SetInt64(key string, v int64) {
	s.setAttr(Attr{Key: key, kind: attrInt64, num: uint64(v)})
}

func (s *Span) SetFloat(key string, v float64) {
	s.setAttr(Attr{Key: key, kind: attrFloat, num: math.Float64bits(v)})
}

func (s *Span) setAttr(a Attr) {
	if s == nil {
		return
	}
	a.span = s.idx
	t := s.tr
	t.mu.Lock()
	if !t.done {
		if t.attrs == nil {
			t.attrs = make(Attrs, 0, firstAttrs)
		}
		t.attrs.put(a)
	}
	t.mu.Unlock()
}

// Child records an already-measured operation as a finished child span —
// used to absorb externally timed work (pipeline stage traces, the
// single-flight leader's generation and store-append timings) into the
// span tree. start/duration are the operation's own measurements.
func (s *Span) Child(name string, start time.Time, duration time.Duration) *Span {
	if s == nil {
		return nil
	}
	d := duration.Microseconds()
	if d == 0 {
		d = 1 // a finished span is never mistaken for an open one
	}
	return s.tr.open(name, s.SpanID, start, d)
}

// Finish files the trace as its immutable TraceRecord: open spans are
// closed at this instant, each span's attributes are grouped in place,
// and later span operations on the trace are no-ops. name/status/err
// describe the request outcome the record is filed under. A second call
// returns the same record.
func (t *Trace) Finish(name string, status int, errMsg string) *TraceRecord {
	if t == nil {
		return nil
	}
	elapsed := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := &t.rec
	if t.done {
		return rec
	}
	t.done = true
	rec.Name, rec.Status, rec.Err = name, status, errMsg
	rec.Spans = t.spans[:len(t.spans):len(t.spans)]
	if rec.Spans == nil {
		rec.Spans = []Span{}
	}
	for i := range rec.Spans {
		rec.Spans[i].closeAt(elapsed)
	}
	// Group the attributes by span, each span's in set order.
	as := t.attrs
	slices.SortStableFunc(as, func(a, b Attr) int { return cmp.Compare(a.span, b.span) })
	for i := 0; i < len(as); {
		j := i + 1
		for j < len(as) && as[j].span == as[i].span {
			j++
		}
		rec.Spans[as[i].span].Attrs = as[i:j:j]
		i = j
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
