package obs

import (
	"sync"
	"time"
)

// TraceRecord is one finished trace: the immutable snapshot Trace.Finish
// produces and the unit the trace store retains and /v1/traces serves.
type TraceRecord struct {
	ID        string `json:"trace_id"`
	RequestID string `json:"request_id,omitempty"`
	// Name is the request route or operation the trace is filed under.
	Name string `json:"name"`
	// Status is the HTTP status the request finished with (0 when the
	// trace did not come from an HTTP handler).
	Status int    `json:"status,omitempty"`
	Err    string `json:"error,omitempty"`
	Spans  []Span `json:"spans"`
	// StartMicros / DurationMicros are the envelope over all spans.
	StartMicros    int64 `json:"start_us"`
	DurationMicros int64 `json:"duration_us"`

	older *TraceRecord // the store's previous record with this ID
}

// Slow reports whether the trace took at least threshold (threshold <= 0
// never matches).
func (r *TraceRecord) Slow(threshold time.Duration) bool {
	return threshold > 0 && r.DurationMicros >= threshold.Microseconds()
}

// Errored reports whether the request failed (HTTP >= 500, an explicit
// error, or any errored span).
func (r *TraceRecord) Errored() bool {
	if r.Status >= 500 || r.Err != "" {
		return true
	}
	for i := range r.Spans {
		if r.Spans[i].Err != "" {
			return true
		}
	}
	return false
}

// TraceSummary is the list form served by GET /v1/traces.
type TraceSummary struct {
	ID             string `json:"trace_id"`
	RequestID      string `json:"request_id,omitempty"`
	Name           string `json:"name"`
	Status         int    `json:"status,omitempty"`
	Err            string `json:"error,omitempty"`
	Spans          int    `json:"spans"`
	StartMicros    int64  `json:"start_us"`
	DurationMicros int64  `json:"duration_us"`
	Slow           bool   `json:"slow,omitempty"`
	Errored        bool   `json:"errored,omitempty"`
}

// TraceStore retains finished traces in bounded memory: a ring of the
// most recent traces plus a second ring that only slow or errored traces
// enter, so the interesting traces survive a burst of healthy traffic
// that would otherwise rotate them out. Lookup is by trace ID.
type TraceStore struct {
	slowThreshold time.Duration

	mu     sync.RWMutex
	recent ring
	kept   ring
	byID   map[string]*TraceRecord // newest with each ID; older ones chain
}

// ring is a fixed-capacity FIFO of trace records.
type ring struct {
	buf  []*TraceRecord
	next int
	full bool
}

func newRing(capacity int) ring { return ring{buf: make([]*TraceRecord, capacity)} }

// push inserts rec and returns the record it evicted, if any.
func (g *ring) push(rec *TraceRecord) *TraceRecord {
	if len(g.buf) == 0 {
		return rec // capacity 0: nothing retained, rec itself is "evicted"
	}
	old := g.buf[g.next]
	g.buf[g.next] = rec
	g.next++
	if g.next == len(g.buf) {
		g.next = 0
		g.full = true
	}
	return old
}

// newestFirst appends the ring's records, newest first, to out.
func (g *ring) newestFirst(out []*TraceRecord) []*TraceRecord {
	n := g.next
	if g.full {
		n = len(g.buf)
	}
	for i := 0; i < n; i++ {
		idx := g.next - 1 - i
		if idx < 0 {
			idx += len(g.buf)
		}
		if g.buf[idx] != nil {
			out = append(out, g.buf[idx])
		}
	}
	return out
}

// NewTraceStore builds a store keeping up to capacity recent traces plus
// up to capacity slow/error traces (capacity <= 0 uses 256). Traces at or
// over slowThreshold are classed slow; slowThreshold <= 0 disables the
// slow class (errors are always kept).
func NewTraceStore(capacity int, slowThreshold time.Duration) *TraceStore {
	if capacity <= 0 {
		capacity = 256
	}
	return &TraceStore{
		slowThreshold: slowThreshold,
		recent:        newRing(capacity),
		kept:          newRing(capacity),
		byID:          make(map[string]*TraceRecord),
	}
}

// Add files a finished trace. Nil records (tracing disabled) and records
// already filed are ignored.
func (s *TraceStore) Add(rec *TraceRecord) {
	if s == nil || rec == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.indexAdd(rec) {
		return
	}
	var evicted *TraceRecord
	if rec.Errored() || rec.Slow(s.slowThreshold) {
		evicted = s.kept.push(rec)
	} else {
		evicted = s.recent.push(rec)
	}
	if evicted != nil {
		s.indexRemove(evicted)
	}
}

// indexAdd chains rec in front of the records filed under its ID. It
// reports false, changing nothing, when rec is in the chain already: a
// record linked to itself would make every walk of the chain endless.
func (s *TraceStore) indexAdd(rec *TraceRecord) bool {
	head := s.byID[rec.ID]
	for r := head; r != nil; r = r.older {
		if r == rec {
			return false
		}
	}
	rec.older = head
	s.byID[rec.ID] = rec
	return true
}

func (s *TraceStore) indexRemove(rec *TraceRecord) {
	head := s.byID[rec.ID]
	if head == rec {
		if rec.older == nil {
			delete(s.byID, rec.ID)
		} else {
			s.byID[rec.ID] = rec.older
		}
	} else {
		for r := head; r != nil; r = r.older {
			if r.older == rec {
				r.older = rec.older
				break
			}
		}
	}
	rec.older = nil
}

// Get returns the most recently filed trace with the given ID, or nil.
func (s *TraceStore) Get(id string) *TraceRecord {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byID[id]
}

// List returns summaries of retained traces, newest first, slow/error
// traces included, up to limit (limit <= 0 means all).
func (s *TraceStore) List(limit int) []TraceSummary {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	recs := make([]*TraceRecord, 0, 64)
	recs = s.recent.newestFirst(recs)
	recs = s.kept.newestFirst(recs)
	s.mu.RUnlock()

	// Order across both rings by start time, newest first.
	sortRecordsNewestFirst(recs)
	if limit > 0 && len(recs) > limit {
		recs = recs[:limit]
	}
	out := make([]TraceSummary, len(recs))
	for i, r := range recs {
		out[i] = TraceSummary{
			ID:             r.ID,
			RequestID:      r.RequestID,
			Name:           r.Name,
			Status:         r.Status,
			Err:            r.Err,
			Spans:          len(r.Spans),
			StartMicros:    r.StartMicros,
			DurationMicros: r.DurationMicros,
			Slow:           r.Slow(s.slowThreshold),
			Errored:        r.Errored(),
		}
	}
	return out
}

func sortRecordsNewestFirst(recs []*TraceRecord) {
	// Insertion sort: lists are short (bounded by 2×capacity) and mostly
	// ordered already.
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].StartMicros > recs[j-1].StartMicros; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}
