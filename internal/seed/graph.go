package seed

import (
	"context"
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/schema"
)

// Stage names of the SEED evidence DAG, as they appear in traces, memo
// stats and /metrics.
const (
	StageKeywords = "extract_keywords"
	StageSamples  = "sample_execution"
	StageSchema   = "summarize_schema"
	StageShots    = "select_few_shots"
	StageGenerate = "generate"
)

// evInput is the per-run input of the evidence DAG.
type evInput struct {
	db       *schema.DB
	question string
}

// buildGraph declares GenerateEvidence as an explicit stage DAG:
//
//	extract_keywords ──┬─ sample_execution ──┐
//	                   └─ select_few_shots ──┼─ generate
//	summarize_schema ────────────────────────┘
//
// sample_execution and select_few_shots run in parallel once keywords are
// out, and summarize_schema overlaps with all three — on the deepseek
// variant that hides an entire LLM round trip behind the keyword/sampling
// path. Three stages are memoized with byte-stable keys:
//
//   - extract_keywords per question: the prompt is a fixed prefix plus
//     the question, so (question) fully determines the deterministic
//     model's output. Keyed without the database, a repeat question on a
//     different database still hits.
//   - summarize_schema per database alone on the non-summarizing
//     variant (the stage is then a pure function of the schema), and per
//     (db, question) when summarization is on — see schemaMemoKey for
//     why the stem set alone would not be byte-safe.
//   - select_few_shots per (db, question): shot selection is a pure
//     function of the question embedding and the database's train pool.
//
// generate and sample_execution are never memoized: generate is what the
// evserve request cache already deduplicates, and sample_execution's
// value inventories are pre-warmed maps, cheap relative to a cache layer.
func (p *Pipeline) buildGraph() {
	g := pipeline.NewGraph("seed/" + string(p.cfg.Variant))

	kw := pipeline.AddStage(g, StageKeywords, func(c *pipeline.Ctx) ([]string, error) {
		in := c.Input().(evInput)
		kws, tokens, err := p.extractKeywords(in.question)
		c.AddTokens(tokens)
		if err != nil {
			return nil, fmt.Errorf("keyword extraction: %w", err)
		}
		return kws, nil
	}, pipeline.Memoized(p.kwMemo, func(input any) (string, bool) {
		return input.(evInput).question, true
	}))

	samples := pipeline.AddStage(g, StageSamples, func(c *pipeline.Ctx) ([]Sample, error) {
		in := c.Input().(evInput)
		return p.SampleExecution(in.db, pipeline.In(c, kw)), nil
	}, pipeline.After(kw))

	visible := pipeline.AddStage(g, StageSchema, func(c *pipeline.Ctx) ([]tableView, error) {
		in := c.Input().(evInput)
		vis := p.visibleTables(in.db, in.question)
		if p.cfg.Summarize {
			kept, tokens, err := p.summarizeSchema(in.db, in.question, vis)
			c.AddTokens(tokens)
			if err != nil {
				return nil, fmt.Errorf("schema summarization: %w", err)
			}
			vis = kept
		}
		return vis, nil
	}, pipeline.Memoized(p.sumMemo, p.schemaMemoKey))

	shots := pipeline.AddStage(g, StageShots, func(c *pipeline.Ctx) ([]Shot, error) {
		in := c.Input().(evInput)
		sh := p.SelectFewShots(in.question, in.db.Name)
		if p.cfg.Summarize {
			// The deepseek variant's second summarization pass: compress
			// the exemplars to evidence-bearing lines only.
			sh = summarizeShots(sh)
		}
		return sh, nil
	}, pipeline.After(kw), pipeline.Memoized(p.shotMemo, func(input any) (string, bool) {
		in := input.(evInput)
		return in.db.Name + "\x00" + in.question, true
	}))

	gen := pipeline.AddStage(g, StageGenerate, func(c *pipeline.Ctx) (string, error) {
		in := c.Input().(evInput)
		ev, tokens, err := p.generateCounted(in.db, in.question,
			pipeline.In(c, visible), pipeline.In(c, samples), pipeline.In(c, shots))
		c.AddTokens(tokens)
		return ev, err
	}, pipeline.After(samples, visible, shots))

	p.graph = g
	p.genRef = gen
}

// schemaMemoKey keys the summarize_schema memo. Without summarization the
// stage is a pure function of the database (visibleTables ignores the
// question), so the database name alone suffices. With summarization the
// key must include the exact question text, not just its stem set: the
// pruning *scores* depend only on the stems, but the capability-gated
// keep/drop noise draws from an rng seeded by the full prompt — which
// embeds the raw question — so two stem-identical questions can legally
// prune differently, and a stems-only key would serve one question's
// summary for the other, breaking the DAG == sequential byte-identity
// guarantee. Either way the key assumes description files are installed
// before generation starts (the established DescribeDatabase-before-
// serving contract).
func (p *Pipeline) schemaMemoKey(input any) (string, bool) {
	in := input.(evInput)
	if !p.cfg.Summarize {
		return in.db.Name, true
	}
	return in.db.Name + "\x00" + in.question, true
}

// GenerateEvidenceTraced runs the evidence DAG for one question and
// returns the evidence together with its end-to-end provenance trace.
// The trace is also returned (when available) on failure, so callers can
// see which stage aborted the run. Cancelling ctx aborts in-flight
// stages.
func (p *Pipeline) GenerateEvidenceTraced(ctx context.Context, dbName, question string) (string, *pipeline.Trace, error) {
	db, ok := p.corpus.DB(dbName)
	if !ok {
		return "", nil, fmt.Errorf("seed: unknown database %q", dbName)
	}
	run, err := p.graph.Execute(ctx, evInput{db: db, question: question})
	if err != nil {
		var tr *pipeline.Trace
		if run != nil {
			tr = run.Trace()
		}
		return "", tr, fmt.Errorf("seed: %w", err)
	}
	return pipeline.Out(run, p.genRef), run.Trace(), nil
}

// GenerateEvidenceSequential is the pre-DAG reference implementation: the
// stages as a hard-coded sequential call chain, bypassing the stage graph
// and its memos. The DAG must produce byte-identical evidence — the
// golden equivalence test compares against this path, and bench/ times
// it as seed.evidence_seq_ms.
func (p *Pipeline) GenerateEvidenceSequential(dbName, question string) (string, error) {
	db, ok := p.corpus.DB(dbName)
	if !ok {
		return "", fmt.Errorf("seed: unknown database %q", dbName)
	}

	keywords, err := p.ExtractKeywords(question)
	if err != nil {
		return "", fmt.Errorf("seed: keyword extraction: %w", err)
	}

	samples := p.SampleExecution(db, keywords)

	visible := p.visibleTables(db, question)
	if p.cfg.Summarize {
		visible, err = p.SummarizeSchema(db, question, visible)
		if err != nil {
			return "", fmt.Errorf("seed: schema summarization: %w", err)
		}
	}

	shots := p.SelectFewShots(question, dbName)
	if p.cfg.Summarize {
		// The deepseek variant's second summarization pass: compress the
		// exemplars to evidence-bearing lines only.
		shots = summarizeShots(shots)
	}

	return p.generate(db, question, visible, samples, shots)
}

// ResetStageMemos drops every stage-memo entry, forcing the next run of
// each question down the cold path. The stage-overlap test uses it to
// separate overlap gains from memo gains.
func (p *Pipeline) ResetStageMemos() {
	p.kwMemo.Reset()
	p.sumMemo.Reset()
	p.shotMemo.Reset()
}

// StageMemoStats snapshots the per-stage memo counters, keyed by stage
// name.
func (p *Pipeline) StageMemoStats() map[string]pipeline.MemoStats {
	return map[string]pipeline.MemoStats{
		StageKeywords: p.kwMemo.Stats(),
		StageSchema:   p.sumMemo.Stats(),
		StageShots:    p.shotMemo.Stats(),
	}
}
