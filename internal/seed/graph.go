package seed

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/pipeline"
)

// Stage names of SEED evidence generation, as they appear in traces and
// /metrics.
const (
	StageKeywords = "extract_keywords"
	StageSamples  = "sample_execution"
	StageSchema   = "summarize_schema"
	StageShots    = "select_few_shots"
	StageGenerate = "generate"
)

// The stages each stage waits on, as recorded in its trace entry.
var (
	afterKeywords = []string{StageKeywords}
	afterAll      = []string{StageSamples, StageSchema, StageShots}
)

// GenerateEvidenceTraced runs SEED's stages for one question and returns
// the evidence together with its provenance trace:
//
//	extract_keywords → sample_execution → select_few_shots ──┐
//	summarize_schema (own goroutine) ────────────────────────┴─ generate
//
// summarize_schema waits on nothing, so it starts on its own goroutine at
// entry and is joined before generate: on the deepseek variant that hides
// its LLM round trip behind extract_keywords'. The rest run in order on
// the caller's goroutine.
//
// The first stage error ends the run: stages not yet started are skipped,
// the schema goroutine is joined, and the error comes back wrapped in its
// stage name together with the trace of the stages that ran. A panicking
// stage fails the run the same way, and a cancelled ctx skips every stage
// not yet started.
func (p *Pipeline) GenerateEvidenceTraced(ctx context.Context, dbName, question string) (string, *pipeline.Trace, error) {
	db, ok := p.corpus.DB(dbName)
	if !ok {
		return "", nil, fmt.Errorf("seed: unknown database %q", dbName)
	}
	r := &run{ctx: ctx, start: time.Now()}
	var kwT, samplesT, schemaT, shotsT, genT pipeline.StageTrace

	var visible []tableView
	schemaDone := make(chan struct{})
	go func() {
		defer close(schemaDone)
		r.stage(&schemaT, StageSchema, nil, func() (int, error) {
			visible = p.visibleTables(db, question)
			if !p.cfg.Summarize {
				return 0, nil
			}
			kept, tokens, err := p.summarizeSchema(db, question, visible)
			if err != nil {
				return tokens, fmt.Errorf("schema summarization: %w", err)
			}
			visible = kept
			return tokens, nil
		})
	}()

	var keywords []string
	r.stage(&kwT, StageKeywords, nil, func() (tokens int, err error) {
		keywords, tokens, err = p.extractKeywords(question)
		if err != nil {
			err = fmt.Errorf("keyword extraction: %w", err)
		}
		return tokens, err
	})
	var samples []Sample
	r.stage(&samplesT, StageSamples, afterKeywords, func() (int, error) {
		samples = p.SampleExecution(db, keywords)
		return 0, nil
	})
	var shots []Shot
	r.stage(&shotsT, StageShots, afterKeywords, func() (int, error) {
		shots = p.SelectFewShots(question, dbName)
		if p.cfg.Summarize {
			// The deepseek variant's second summarization pass: compress
			// the exemplars to evidence-bearing lines only.
			shots = summarizeShots(shots)
		}
		return 0, nil
	})
	<-schemaDone
	var ev string
	r.stage(&genT, StageGenerate, afterAll, func() (tokens int, err error) {
		ev, tokens, err = p.generateCounted(db, question, visible, samples, shots)
		return tokens, err
	})

	tr := r.trace("seed/"+string(p.cfg.Variant), &kwT, &samplesT, &schemaT, &shotsT, &genT)
	if r.err != nil {
		return "", tr, fmt.Errorf("seed: %w", r.err)
	}
	return ev, tr, nil
}

// run is one generation's bookkeeping: its context and start time, and
// the first stage error, which the schema goroutine may set too.
type run struct {
	ctx   context.Context
	start time.Time

	mu  sync.Mutex
	err error
}

// stage runs fn, which returns the LLM tokens it spent, as the named stage
// and fills tr with its trace entry. It skips fn, leaving tr zero, when
// the run has already failed or ctx is done. An error or panic from fn
// fails the run.
func (r *run) stage(tr *pipeline.StageTrace, name string, deps []string, fn func() (int, error)) {
	r.mu.Lock()
	failed := r.err != nil
	r.mu.Unlock()
	if failed {
		return
	}
	if err := r.ctx.Err(); err != nil {
		r.fail(name, err)
		return
	}
	t0 := time.Now()
	tokens, err := recovered(fn)
	*tr = pipeline.StageTrace{
		Stage:       name,
		Deps:        deps,
		StartMicros: t0.Sub(r.start).Microseconds(),
		WallMicros:  time.Since(t0).Microseconds(),
		Tokens:      tokens,
	}
	if err != nil {
		tr.Err = err.Error()
		r.fail(name, err)
	}
}

// fail records err as the run's error unless an earlier stage failed
// first.
func (r *run) fail(name string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = fmt.Errorf("stage %s: %w", name, err)
	}
}

// recovered calls fn, turning a panic into an error: generation runs
// inside serving worker pools, and one bad question must not take the
// process down.
func recovered(fn func() (int, error)) (tokens int, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return fn()
}

// trace assembles the run's trace from the stages that ran, in the order
// given.
func (r *run) trace(graph string, stages ...*pipeline.StageTrace) *pipeline.Trace {
	t := &pipeline.Trace{
		Graph:      graph,
		Stages:     make([]pipeline.StageTrace, 0, len(stages)),
		WallMicros: time.Since(r.start).Microseconds(),
	}
	for _, st := range stages {
		if st.Stage != "" {
			t.Stages = append(t.Stages, *st)
			t.SerialMicros += st.WallMicros
		}
	}
	return t
}

// GenerateEvidenceSequential is GenerateEvidence. Kept for bench/ until
// ROADMAP 1(i).
func (p *Pipeline) GenerateEvidenceSequential(dbName, question string) (string, error) {
	return p.GenerateEvidence(dbName, question)
}

// StageMemoStats returns nil: no stage is memoized. Kept for bench/ until
// ROADMAP 1(i).
func (p *Pipeline) StageMemoStats() map[string]pipeline.MemoStats {
	return nil
}
