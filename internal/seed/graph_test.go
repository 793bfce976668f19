package seed

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/evidence"
	"repro/internal/llm"
)

// TestDAGMatchesSequentialGoldenBIRDDev is the refactor's golden test: for
// the full BIRD dev slice used by the experiment drivers, the stage-graph
// path must produce byte-identical evidence to the pre-refactor sequential
// call chain — for both variants, cold and memo-warm. CI runs this under
// -race, which also exercises the DAG's intra-request stage concurrency on
// every question.
func TestDAGMatchesSequentialGoldenBIRDDev(t *testing.T) {
	if testing.Short() {
		t.Skip("full BIRD dev golden sweep; skipped in -short (CI runs it in its own race lane)")
	}
	for _, mk := range []struct {
		name string
		p    func(t *testing.T) *Pipeline
	}{
		{"gpt", gptPipeline},
		{"deepseek", deepseekPipeline},
	} {
		t.Run(mk.name, func(t *testing.T) {
			p := mk.p(t)
			c := testCorpus(t)
			warm := make(map[string]string, len(c.Dev))
			for _, ex := range c.Dev {
				seq, err := p.GenerateEvidenceSequential(ex.DB, ex.Question)
				if err != nil {
					t.Fatalf("%s sequential: %v", ex.ID, err)
				}
				dag, tr, err := p.GenerateEvidenceTraced(context.Background(), ex.DB, ex.Question)
				if err != nil {
					t.Fatalf("%s dag: %v", ex.ID, err)
				}
				if dag != seq {
					t.Fatalf("%s: DAG evidence diverges from sequential\n dag: %q\n seq: %q\n trace: %+v",
						ex.ID, dag, seq, tr.Stages)
				}
				warm[ex.ID] = dag
			}
			// Second pass: the stage memos are warm now (keywords, schema
			// summaries and shots all hit), and the bytes must not move.
			for _, ex := range c.Dev {
				dag, tr, err := p.GenerateEvidenceTraced(context.Background(), ex.DB, ex.Question)
				if err != nil {
					t.Fatalf("%s warm dag: %v", ex.ID, err)
				}
				if dag != warm[ex.ID] {
					t.Fatalf("%s: memo-warm DAG evidence diverges\n warm: %q\n cold: %q", ex.ID, dag, warm[ex.ID])
				}
				if tr.CacheHits() == 0 {
					t.Errorf("%s: warm run hit no stage memo: %+v", ex.ID, tr.Stages)
				}
			}
		})
	}
}

// TestGenerateEvidenceTraceShape pins the trace contract: all five stages
// present, dependency edges as declared, LLM stages carrying token counts,
// and a non-degenerate wall accounting.
func TestGenerateEvidenceTraceShape(t *testing.T) {
	p := deepseekPipeline(t)
	q := "How many clients who opened their accounts in the Jesenik branch are women?"
	_, tr, err := p.GenerateEvidenceTraced(context.Background(), "financial", q)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]string, len(tr.Stages))
	for i, st := range tr.Stages {
		order[i] = st.Stage
	}
	want := []string{StageKeywords, StageSamples, StageSchema, StageShots, StageGenerate}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("stage order = %v, want %v", order, want)
	}
	if tr.Graph != "seed/seed_deepseek" {
		t.Errorf("graph name = %q", tr.Graph)
	}
	for _, name := range []string{StageKeywords, StageSchema, StageGenerate} {
		if st := tr.Stage(name); !st.CacheHit && st.Tokens == 0 {
			t.Errorf("LLM stage %s reports no tokens: %+v", name, st)
		}
	}
	for _, name := range []string{StageSamples, StageShots} {
		if got := tr.Stage(name).Tokens; got != 0 {
			t.Errorf("non-LLM stage %s reports %d tokens", name, got)
		}
	}
	gen := tr.Stage(StageGenerate)
	if len(gen.Deps) != 3 {
		t.Errorf("generate deps = %v, want samples+schema+shots", gen.Deps)
	}
	if tr.WallMicros <= 0 || tr.SerialMicros <= 0 {
		t.Errorf("degenerate wall accounting: wall=%d serial=%d", tr.WallMicros, tr.SerialMicros)
	}
	if tr.Tokens() <= 0 {
		t.Errorf("trace total tokens = %d", tr.Tokens())
	}
}

// TestPartialWarmSkipsKeywordStage pins the cross-database partial hit:
// the same question text against a different database must serve
// extract_keywords from the memo (its key is the question alone) while
// the db-keyed stages regenerate.
func TestPartialWarmSkipsKeywordStage(t *testing.T) {
	p := gptPipeline(t)
	q := "How many clients who opened their accounts in the Jesenik branch are women?"
	if _, _, err := p.GenerateEvidenceTraced(context.Background(), "financial", q); err != nil {
		t.Fatal(err)
	}
	_, tr, err := p.GenerateEvidenceTraced(context.Background(), "california_schools", q)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Stage(StageKeywords).CacheHit {
		t.Errorf("extract_keywords should hit across databases: %+v", tr.Stages)
	}
	for _, name := range []string{StageSchema, StageShots} {
		if tr.Stage(name).CacheHit {
			t.Errorf("db-keyed stage %s must not hit across databases", name)
		}
	}
}

// TestConcurrentGenerateEvidenceOnePipeline is the satellite -race test:
// many concurrent GenerateEvidence callers on ONE pipeline, each of which
// additionally runs two-plus stages in flight internally via the DAG. The
// assertions are determinism of the results; the data-race assertions are
// the -race build this runs under in CI.
func TestConcurrentGenerateEvidenceOnePipeline(t *testing.T) {
	p := deepseekPipeline(t)
	c := testCorpus(t)
	questions := c.Dev
	if len(questions) > 24 {
		questions = questions[:24]
	}
	// Reference results, generated serially.
	want := make([]string, len(questions))
	for i, ex := range questions {
		ev, err := p.GenerateEvidence(ex.DB, ex.Question)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ev
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range questions {
				ex := questions[(i+w)%len(questions)]
				ev, err := p.GenerateEvidence(ex.DB, ex.Question)
				if err != nil {
					t.Errorf("worker %d %s: %v", w, ex.ID, err)
					return
				}
				if ev != want[(i+w)%len(questions)] {
					t.Errorf("worker %d %s: concurrent result diverges", w, ex.ID)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestTracedErrorCarriesPartialTrace pins the failure contract: an
// unknown database errors without a trace, and a traced call's evidence
// still parses as evidence clauses.
func TestTracedErrorCarriesPartialTrace(t *testing.T) {
	p := gptPipeline(t)
	if _, tr, err := p.GenerateEvidenceTraced(context.Background(), "nonexistent", "q"); err == nil || tr != nil {
		t.Errorf("unknown db: err=%v trace=%v, want error and nil trace", err, tr)
	}
	ev, _, err := p.GenerateEvidenceTraced(context.Background(), "financial",
		"Among the weekly issuance accounts, how many have a loan of under 200000?")
	if err != nil {
		t.Fatal(err)
	}
	if len(evidence.Parse(ev)) == 0 {
		t.Errorf("traced evidence does not parse: %q", ev)
	}
}

// TestDAGOverlapBeatsSequentialWithLatency pins the refactor's perf
// claim: with the simulator charging an API round trip per LLM call (the
// deployed regime), the deepseek variant's DAG must beat the sequential
// chain on cold generations, because summarize_schema's call overlaps the
// extract_keywords -> sample_execution path. The margin is asserted
// loosely (10%) so CPU noise — including -race overhead — cannot flake
// it: the win comes from hidden sleep, not from CPU parallelism.
func TestDAGOverlapBeatsSequentialWithLatency(t *testing.T) {
	client := llm.NewSimulator()
	client.SetLatency(10 * time.Millisecond)
	p := New(ConfigDeepSeek(), client, testCorpus(t))
	questions := testCorpus(t).Dev
	if len(questions) > 8 {
		questions = questions[:8]
	}
	var seqTotal, dagTotal time.Duration
	for _, ex := range questions {
		t0 := time.Now()
		sev, err := p.GenerateEvidenceSequential(ex.DB, ex.Question)
		if err != nil {
			t.Fatal(err)
		}
		seqTotal += time.Since(t0)

		p.ResetStageMemos() // keep the DAG run cold: measure overlap, not memos
		t0 = time.Now()
		dev, _, err := p.GenerateEvidenceTraced(context.Background(), ex.DB, ex.Question)
		if err != nil {
			t.Fatal(err)
		}
		dagTotal += time.Since(t0)
		if dev != sev {
			t.Fatalf("%s: latency run diverged from sequential", ex.ID)
		}
	}
	if dagTotal >= seqTotal*9/10 {
		t.Errorf("cold DAG %v not faster than sequential %v (want < 90%%)", dagTotal, seqTotal)
	}
	t.Logf("cold with latency: sequential %v, DAG %v (%.2fx)", seqTotal, dagTotal, float64(seqTotal)/float64(dagTotal))
}

// TestResetStageMemosForcesColdPath covers the hook the overlap test
// above relies on to stay cold.
func TestResetStageMemosForcesColdPath(t *testing.T) {
	p := gptPipeline(t)
	q := "Among the weekly issuance accounts, how many have a loan of under 200000?"
	if _, _, err := p.GenerateEvidenceTraced(context.Background(), "financial", q); err != nil {
		t.Fatal(err)
	}
	p.ResetStageMemos()
	_, tr, err := p.GenerateEvidenceTraced(context.Background(), "financial", q)
	if err != nil {
		t.Fatal(err)
	}
	if tr.CacheHits() != 0 {
		t.Errorf("run after ResetStageMemos hit a memo: %+v", tr.Stages)
	}
	for stage, st := range p.StageMemoStats() {
		if st.Entries == 0 {
			t.Errorf("stage %s memo empty after regeneration", stage)
		}
	}
}
