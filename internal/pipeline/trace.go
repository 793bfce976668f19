// Package pipeline is the provenance format of evidence generation: a
// Trace records, per stage, when it started, how long it took and how
// many LLM tokens it spent. api, evserve and evstore share it, and an
// Aggregator folds traces into per-stage cost totals for /metrics and the
// stage cost tables.
package pipeline

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/lru"
)

// StageTrace records one stage's execution inside a run: when it started,
// how long it took, and how many simulated LLM tokens it spent. The zero
// Tokens value is omitted from JSON so trace payloads stay compact for the
// non-LLM stages.
type StageTrace struct {
	// Stage is the stage name.
	Stage string `json:"stage"`
	// Deps lists the stages this stage waited on.
	Deps []string `json:"deps,omitempty"`
	// CacheHit reports that the result was served from a stage memo. No
	// stage is memoized now; traces stored by earlier versions may still
	// carry it.
	CacheHit bool `json:"cache_hit,omitempty"`
	// StartMicros is the stage's start offset from the run start, in
	// microseconds — what lets a span view reconstruct the stages' overlap
	// from a finished trace.
	StartMicros int64 `json:"start_us,omitempty"`
	// WallMicros is the stage's wall time in microseconds.
	WallMicros int64 `json:"wall_us"`
	// Tokens counts prompt + completion tokens the stage spent.
	Tokens int `json:"tokens,omitempty"`
	// Err is the stage failure, when the stage is the one that aborted
	// the run.
	Err string `json:"error,omitempty"`
}

// Trace is the end-to-end provenance record of one run: every executed
// stage in a fixed order, plus the whole-run wall time. SerialMicros sums
// the per-stage walls, so SerialMicros/WallMicros measures how much work
// overlapped — 1.0 means fully sequential.
type Trace struct {
	// Graph names the graph that produced this trace.
	Graph string `json:"graph"`
	// Stages holds one entry per executed stage, in a fixed order.
	// Stages skipped because the run aborted have no entry.
	Stages []StageTrace `json:"stages"`
	// WallMicros is the whole-run wall time in microseconds.
	WallMicros int64 `json:"wall_us"`
	// SerialMicros is the sum of per-stage wall times — what the same run
	// would have cost with no stage overlap.
	SerialMicros int64 `json:"serial_us"`
}

// Stage returns the trace entry for the named stage, or nil.
func (t *Trace) Stage(name string) *StageTrace {
	for i := range t.Stages {
		if t.Stages[i].Stage == name {
			return &t.Stages[i]
		}
	}
	return nil
}

// Overlap is SerialMicros/WallMicros: how many stage-seconds ran per
// wall-second. 1.0 means no overlap; higher means stages ran
// concurrently. Returns 0 before any stage completed.
func (t *Trace) Overlap() float64 {
	if t.WallMicros <= 0 {
		return 0
	}
	return float64(t.SerialMicros) / float64(t.WallMicros)
}

// Tree renders the trace as an indented dependency tree: stages are
// ordered and indented by their depth (longest dependency chain), so the
// printout reads top-down in execution order with the critical-path
// structure visible.
func (t *Trace) Tree() string {
	depth := make(map[string]int, len(t.Stages))
	var depthOf func(name string) int
	depthOf = func(name string) int {
		if d, ok := depth[name]; ok {
			return d
		}
		depth[name] = 0 // breaks cycles defensively
		st := t.Stage(name)
		if st == nil {
			return 0
		}
		d := 0
		for _, dep := range st.Deps {
			if dd := depthOf(dep) + 1; dd > d {
				d = dd
			}
		}
		depth[name] = d
		return d
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  wall=%dus serial=%dus overlap=%.2fx\n", t.Graph, t.WallMicros, t.SerialMicros, t.Overlap())
	for _, st := range t.Stages {
		indent := strings.Repeat("  ", depthOf(st.Stage))
		mark := ""
		if st.CacheHit {
			mark = " [memo hit]"
		}
		if st.Err != "" {
			mark += " [error: " + st.Err + "]"
		}
		fmt.Fprintf(&b, "%s└─ %-18s %7dus  %5d tok%s\n", indent, st.Stage, st.WallMicros, st.Tokens, mark)
	}
	return b.String()
}

// StageAgg accumulates one stage's cost across many runs: how often it
// executed, and the total wall time and tokens it consumed. Aggregators
// publish these; /metrics, benchrun -stats and seedgen -stats render them.
type StageAgg struct {
	// Stage is the stage name.
	Stage string `json:"stage"`
	// Count is how many runs included the stage.
	Count int64 `json:"count"`
	// WallMicros is the total stage wall time across runs.
	WallMicros int64 `json:"wall_us_total"`
	// Tokens is the total token spend across runs.
	Tokens int64 `json:"tokens_total"`
}

// MeanMicros is the mean per-run stage wall time.
func (a StageAgg) MeanMicros() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.WallMicros) / float64(a.Count)
}

// Aggregator folds Traces into per-stage totals. It is safe for
// concurrent use; evserve feeds it from every traced generation.
type Aggregator struct {
	mu     sync.Mutex
	stages map[string]*StageAgg
	order  []string // first-seen order, normally trace order
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{stages: make(map[string]*StageAgg)}
}

// Observe folds one trace into the totals. Nil traces are ignored, so
// callers can pass through untraced generations unconditionally.
func (a *Aggregator) Observe(t *Trace) {
	if t == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, st := range t.Stages {
		agg, ok := a.stages[st.Stage]
		if !ok {
			agg = &StageAgg{Stage: st.Stage}
			a.stages[st.Stage] = agg
			a.order = append(a.order, st.Stage)
		}
		agg.Count++
		agg.WallMicros += st.WallMicros
		agg.Tokens += int64(st.Tokens)
	}
}

// Snapshot returns the per-stage totals in first-seen order.
func (a *Aggregator) Snapshot() []StageAgg {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]StageAgg, 0, len(a.order))
	for _, name := range a.order {
		out = append(out, *a.stages[name])
	}
	return out
}

// MemoStats is lru.Stats. Kept for bench/ until ROADMAP 1(i).
type MemoStats = lru.Stats
