// Package pipeline is a small typed stage-graph runtime. A Graph is a set
// of named stages with declared dependencies; Execute runs the graph over
// one input, launching every stage whose dependencies are satisfied
// concurrently, cancelling the whole run on the first stage error, and
// recording a StageTrace (memo hit, wall time, token spend) per stage.
//
// It exists to turn SEED's hard-coded sequential call chain
// (keywords → samples → summary → shots → generate) into an explicit DAG:
// independent stages overlap, per-stage memos serve warm partial hits,
// and every layer above (evserve, the HTTP server, the experiment
// drivers) can see exactly where a generation spent its time.
//
// Stage outputs are typed through Ref[T]: AddStage returns a typed
// reference, In reads a dependency's value inside a stage body, and Out
// reads a stage's value from a finished Run — all without callers ever
// seeing an untyped map.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Graph is an immutable-after-construction stage DAG. Build with NewGraph
// + AddStage; Execute may be called concurrently from many goroutines.
type Graph struct {
	name    string
	stages  []*stage
	byName  map[string]*stage
	sealOne sync.Once
	sealErr error
}

// stage is one node: its dependencies, the untyped-adapted body, and the
// optional memoization hookup.
type stage struct {
	name  string
	deps  []string
	index int
	fn    func(c *Ctx) (any, error)

	memo *Memo
	key  func(input any) (string, bool)
}

// Ref is a typed handle to a stage's output.
type Ref[T any] struct{ name string }

// StageName returns the referenced stage's name; it implements Dep.
func (r Ref[T]) StageName() string { return r.name }

// Dep names a stage another stage waits on. Every Ref is a Dep.
type Dep interface{ StageName() string }

// Option configures one stage at AddStage time.
type Option func(*stage)

// After declares the stage's dependencies. The stage body may read their
// outputs with In; the scheduler guarantees they completed first.
func After(deps ...Dep) Option {
	return func(s *stage) {
		for _, d := range deps {
			s.deps = append(s.deps, d.StageName())
		}
	}
}

// Memoized attaches a memo to the stage. key derives the memo key from
// the run input; returning ok=false opts the particular run out of
// memoization. The memoized value is shared by reference across runs, so
// stage outputs must be treated as immutable — and key must capture
// everything the stage's output depends on, or warm runs will serve a
// stale sibling's result.
func Memoized(m *Memo, key func(input any) (string, bool)) Option {
	return func(s *stage) {
		s.memo = m
		s.key = key
	}
}

// NewGraph returns an empty graph with the given display name.
func NewGraph(name string) *Graph {
	return &Graph{name: name, byName: make(map[string]*stage)}
}

// AddStage registers a stage and returns its typed output reference. It
// panics on a duplicate name or an unknown dependency — both programming
// errors in graph construction, not runtime conditions.
func AddStage[T any](g *Graph, name string, fn func(c *Ctx) (T, error), opts ...Option) Ref[T] {
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("pipeline: stage %q registered twice", name))
	}
	st := &stage{
		name:  name,
		index: len(g.stages),
		fn: func(c *Ctx) (any, error) {
			v, err := fn(c)
			if err != nil {
				return nil, err
			}
			return v, nil
		},
	}
	for _, o := range opts {
		o(st)
	}
	for _, d := range st.deps {
		if _, ok := g.byName[d]; !ok {
			panic(fmt.Sprintf("pipeline: stage %q depends on unregistered stage %q (register dependencies first)", name, d))
		}
	}
	g.stages = append(g.stages, st)
	g.byName[name] = st
	return Ref[T]{name: name}
}

// seal validates the graph once before first execution. Dependencies are
// checked at AddStage (they must pre-exist), which also makes cycles
// unrepresentable; seal keeps a place for future invariants and caches
// any error.
func (g *Graph) seal() error {
	g.sealOne.Do(func() {
		if len(g.stages) == 0 {
			g.sealErr = fmt.Errorf("pipeline: graph %q has no stages", g.name)
		}
	})
	return g.sealErr
}

// Ctx is the view a stage body gets of its run: the cancellation context,
// the run input, typed access to dependency outputs, and a token meter.
type Ctx struct {
	ctx   context.Context
	run   *Run
	stage *stage

	tokens int
}

// Context returns the run's cancellation context. Long stages should
// check it so a sibling's failure aborts them promptly.
func (c *Ctx) Context() context.Context { return c.ctx }

// Input returns the run input as passed to Execute.
func (c *Ctx) Input() any { return c.run.input }

// AddTokens records simulated-LLM token spend against this stage's trace.
func (c *Ctx) AddTokens(n int) { c.tokens += n }

// In returns a dependency's output inside a stage body. It panics if the
// referenced stage was not declared a dependency — reading an undeclared
// stage is a scheduling race, and failing loudly at development time is
// the only safe behaviour.
func In[T any](c *Ctx, ref Ref[T]) T {
	declared := false
	for _, d := range c.stage.deps {
		if d == ref.name {
			declared = true
			break
		}
	}
	if !declared {
		panic(fmt.Sprintf("pipeline: stage %q reads %q without declaring it in After(...)", c.stage.name, ref.name))
	}
	v, ok := c.run.value(ref.name)
	if !ok {
		panic(fmt.Sprintf("pipeline: stage %q read dependency %q before completion", c.stage.name, ref.name))
	}
	return v.(T)
}

// Run is one execution of a Graph: the input, completed stage outputs,
// and the accumulating trace. Values are written by the scheduler under
// r.mu; after Execute returns, the Run is immutable.
type Run struct {
	graph *Graph
	input any

	mu     sync.Mutex
	values map[string]any
	traces []StageTrace

	start time.Time
	wall  time.Duration
}

func (r *Run) value(name string) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.values[name]
	return v, ok
}

// Out returns a stage's output from a finished run. It panics when the
// stage did not complete (the run aborted first) — callers should only
// read outputs from runs whose Execute returned nil.
func Out[T any](r *Run, ref Ref[T]) T {
	v, ok := r.value(ref.name)
	if !ok {
		panic(fmt.Sprintf("pipeline: stage %q has no output (run aborted?)", ref.name))
	}
	return v.(T)
}

// Trace assembles the run's provenance record: per-stage traces in
// registration order plus whole-run wall time.
func (r *Run) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Trace{
		Graph:      r.graph.name,
		Stages:     make([]StageTrace, len(r.traces)),
		WallMicros: r.wall.Microseconds(),
	}
	copy(t.Stages, r.traces)
	// Registration order, not completion order: stable for golden tests
	// and human reading.
	orderOf := func(name string) int { return r.graph.byName[name].index }
	for i := 1; i < len(t.Stages); i++ {
		for j := i; j > 0 && orderOf(t.Stages[j].Stage) < orderOf(t.Stages[j-1].Stage); j-- {
			t.Stages[j], t.Stages[j-1] = t.Stages[j-1], t.Stages[j]
		}
	}
	for _, st := range t.Stages {
		t.SerialMicros += st.WallMicros
	}
	return t
}

// Execute runs the graph over input. Stages whose dependencies are
// satisfied run concurrently; the first stage error cancels the run's
// context, stops new launches, and is returned (wrapped with the stage
// name) after every in-flight stage finishes. The returned Run always
// carries the traces of the stages that did execute, so failed runs are
// still diagnosable.
func (g *Graph) Execute(ctx context.Context, input any) (*Run, error) {
	if err := g.seal(); err != nil {
		return nil, err
	}
	start := time.Now()
	r := &Run{graph: g, input: input, values: make(map[string]any, len(g.stages)), start: start}

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	// remaining[i] counts unfinished dependencies of stage i; dependents
	// inverts the edge direction for completion propagation.
	remaining := make([]int, len(g.stages))
	dependents := make([][]int, len(g.stages))
	for i, st := range g.stages {
		remaining[i] = len(st.deps)
		for _, d := range st.deps {
			di := g.byName[d].index
			dependents[di] = append(dependents[di], i)
		}
	}

	done := make(chan int, len(g.stages))
	var firstErr error
	var errMu sync.Mutex
	launched := 0

	launch := func(i int) {
		launched++
		go func(st *stage) {
			if err := g.runStage(runCtx, r, st); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("stage %s: %w", st.name, err)
				}
				errMu.Unlock()
				cancel(err)
			}
			done <- st.index
		}(g.stages[i])
	}

	for i := range g.stages {
		if remaining[i] == 0 {
			launch(i)
		}
	}
	for finished := 0; finished < launched; finished++ {
		i := <-done
		errMu.Lock()
		aborted := firstErr != nil
		errMu.Unlock()
		if aborted {
			continue // drain in-flight stages; launch nothing new
		}
		for _, di := range dependents[i] {
			remaining[di]--
			if remaining[di] == 0 {
				launch(di)
			}
		}
	}
	r.mu.Lock()
	r.wall = time.Since(start)
	r.mu.Unlock()
	if firstErr != nil {
		return r, firstErr
	}
	if err := ctx.Err(); err != nil {
		return r, err
	}
	return r, nil
}

// runStage executes one stage: memo probe, body, memo fill, trace. A
// panicking stage body is converted to an error so one bad stage aborts
// its run instead of the whole process — these graphs run inside serving
// worker pools.
func (g *Graph) runStage(ctx context.Context, r *Run, st *stage) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
			r.mu.Lock()
			r.traces = append(r.traces, StageTrace{Stage: st.name, Deps: st.deps, Err: err.Error()})
			r.mu.Unlock()
		}
	}()
	t0 := time.Now()
	tr := StageTrace{Stage: st.name, Deps: st.deps, StartMicros: t0.Sub(r.start).Microseconds()}

	memoKey := ""
	memoize := false
	if st.memo != nil && st.key != nil {
		if k, ok := st.key(r.input); ok {
			memoKey, memoize = k, true
			if v, hit := st.memo.Get(k); hit {
				tr.CacheHit = true
				tr.WallMicros = time.Since(t0).Microseconds()
				r.mu.Lock()
				r.values[st.name] = v
				r.traces = append(r.traces, tr)
				r.mu.Unlock()
				return nil
			}
		}
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	c := &Ctx{ctx: ctx, run: r, stage: st}
	v, err := st.fn(c)
	tr.WallMicros = time.Since(t0).Microseconds()
	tr.Tokens = c.tokens
	if err != nil {
		tr.Err = err.Error()
		r.mu.Lock()
		r.traces = append(r.traces, tr)
		r.mu.Unlock()
		return err
	}
	if memoize {
		st.memo.Put(memoKey, v)
	}
	r.mu.Lock()
	r.values[st.name] = v
	r.traces = append(r.traces, tr)
	r.mu.Unlock()
	return nil
}
