package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed interval recorded by the bench's own code around a
// call into a layer. Spans of one request share Req; Parent is the ID of
// the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing off: every method is a no-op, which is what the untraced run
// (the only source of end-to-end metrics) pays.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// byReq maps a request ID to its most recent span of each name, so a
	// handler wrapper can parent itself under whatever called it and the
	// client can hang the response's timing phases under the handler.
	byReq map[string]map[string]int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), byReq: make(map[string]map[string]int64)}
}

// begin opens a span. Its parent is the first of parents that the same
// request has a span of; a span without a request ID is a root.
func (r *recorder) begin(name, req string, parents ...string) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	var parent int64
	if req != "" {
		names := r.byReq[req]
		if names == nil {
			names = make(map[string]int64, 4)
			r.byReq[req] = names
		}
		for _, p := range parents {
			if pid, ok := names[p]; ok {
				parent = pid
				break
			}
		}
		names[name] = id
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int64) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// last returns the request's most recent span of the given name.
func (r *recorder) last(req, name string) (span, bool) {
	if r == nil {
		return span{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.byReq[req][name]
	if !ok {
		return span{}, false
	}
	return r.spans[id-1], true
}

// add records a finished span whose interval is already known (a phase
// from a response's api.QueryTiming), parented explicitly.
func (r *recorder) add(name, req string, parent, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: int64(len(r.spans) + 1), Parent: parent, Req: req, Name: name, Start: start, End: end})
	r.mu.Unlock()
}

// forget drops the request's index entry once its last span is in.
func (r *recorder) forget(req string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.byReq, req)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes the run's spans out once the benchmark has ended.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children may overlap one
// another (two hedged attempts) or stick out of the parent (an attempt
// cancelled late); only the union of their intervals, clipped to the
// parent, is subtracted.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals inside parent.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curStart, curEnd, open = s, e, true
		case s <= curEnd:
			curEnd = max(curEnd, e)
		default:
			total += curEnd - curStart
			curStart, curEnd = s, e
		}
	}
	if open {
		total += curEnd - curStart
	}
	return time.Duration(total)
}
