package seed

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/evidence"
	"repro/internal/llm"
)

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
		if st := tr.Stage(name); st.Tokens == 0 {
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

// TestConcurrentGenerateEvidenceOnePipeline runs many concurrent
// GenerateEvidence callers on ONE pipeline, each of which also runs its
// schema stage on a second goroutine. The assertions are determinism of
// the results; the data-race assertions are the -race build this runs
// under in CI.
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

// TestSchemaStageOverlapsWithLatency pins the one overlap that pays: the
// deepseek variant's summarize_schema call runs beside extract_keywords',
// so with the simulator charging an API round trip per LLM call each
// generation waits for one round trip where a serial pipeline waits for
// two. The check is a rendezvous, not a clock: each of the two calls is held
// until the other is in flight, so a pipeline that ran them one after the
// other, in either order, fails every time — after 5 s — and load cannot
// fail one that overlaps them.
func TestSchemaStageOverlapsWithLatency(t *testing.T) {
	sim := llm.NewSimulator()
	sim.SetLatency(10 * time.Millisecond)
	client := rendezvousClient{Simulator: sim, keywords: make(chan struct{}, 1), schema: make(chan struct{}, 1)}
	p := New(ConfigDeepSeek(), client, testCorpus(t))
	questions := testCorpus(t).Dev
	if len(questions) > 8 {
		questions = questions[:8]
	}
	for _, ex := range questions {
		if _, _, err := p.GenerateEvidenceTraced(context.Background(), ex.DB, ex.Question); err != nil {
			t.Fatalf("%s: %v", ex.ID, err)
		}
	}
}

// rendezvousClient is the simulator, except that an extract_keywords call
// and a summarize_schema call each announce themselves and then wait, at
// most 5 s, until the other has: both proceed only while both are in flight.
type rendezvousClient struct {
	*llm.Simulator
	keywords, schema chan struct{}
}

func (c rendezvousClient) Complete(req llm.Request) (llm.Response, error) {
	mine, theirs := c.keywords, c.schema
	switch {
	case strings.HasPrefix(req.Prompt, "Remove schema information"):
		mine, theirs = c.schema, c.keywords
	case !strings.HasPrefix(req.Prompt, "Extract the keywords"):
		return c.Simulator.Complete(req)
	}
	timeout := time.After(5 * time.Second)
	select {
	case mine <- struct{}{}:
		select {
		case <-theirs:
			return c.Simulator.Complete(req)
		case <-timeout:
		}
	case <-timeout:
	}
	return llm.Response{}, errors.New("extract_keywords and summarize_schema were never in flight together")
}

// faultyClient is the simulator except on the summarize_schema prompt,
// where it fails, or panics when panics is set.
type faultyClient struct {
	*llm.Simulator
	panics bool
}

var errSummarizer = errors.New("summarizer unavailable")

func (c faultyClient) Complete(req llm.Request) (llm.Response, error) {
	if strings.HasPrefix(req.Prompt, "Remove schema information") {
		if c.panics {
			panic("summarizer crashed")
		}
		return llm.Response{}, errSummarizer
	}
	return c.Simulator.Complete(req)
}

// TestSchemaStageErrorFailsRun: a failing summarize_schema on the
// deepseek variant fails the run with an error naming the stage, after
// its goroutine is joined; the trace carries the stage's error and no
// generate entry. Several callers at once give -race something to watch.
func TestSchemaStageErrorFailsRun(t *testing.T) {
	p := New(ConfigDeepSeek(), faultyClient{Simulator: llm.NewSimulator()}, testCorpus(t))
	questions := testCorpus(t).Dev[:8]
	var wg sync.WaitGroup
	for _, ex := range questions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev, tr, err := p.GenerateEvidenceTraced(context.Background(), ex.DB, ex.Question)
			if !errors.Is(err, errSummarizer) || !strings.Contains(err.Error(), "stage "+StageSchema) {
				t.Errorf("%s: err = %v, want the summarizer error named by its stage", ex.ID, err)
				return
			}
			if ev != "" {
				t.Errorf("%s: failed run returned evidence %q", ex.ID, ev)
			}
			if st := tr.Stage(StageSchema); st == nil || !strings.Contains(st.Err, errSummarizer.Error()) {
				t.Errorf("%s: trace lacks the schema stage's error: %+v", ex.ID, tr.Stages)
			}
			if tr.Stage(StageGenerate) != nil {
				t.Errorf("%s: generate ran after a stage failed: %+v", ex.ID, tr.Stages)
			}
		}()
	}
	wg.Wait()
}

// TestStagePanicBecomesError: a panicking stage fails its run instead of
// crashing the process.
func TestStagePanicBecomesError(t *testing.T) {
	p := New(ConfigDeepSeek(), faultyClient{Simulator: llm.NewSimulator(), panics: true}, testCorpus(t))
	ex := testCorpus(t).Dev[0]
	_, tr, err := p.GenerateEvidenceTraced(context.Background(), ex.DB, ex.Question)
	if err == nil || !strings.Contains(err.Error(), "stage "+StageSchema+": panic: summarizer crashed") {
		t.Fatalf("err = %v, want the schema stage's panic as an error", err)
	}
	if st := tr.Stage(StageSchema); st == nil || st.Err == "" {
		t.Errorf("trace lacks the panicking stage: %+v", tr.Stages)
	}
}

// TestCancelledContextSkipsStages: a context cancelled before the call
// skips every stage, so no LLM call is made.
func TestCancelledContextSkipsStages(t *testing.T) {
	sim := llm.NewSimulator()
	p := New(ConfigDeepSeek(), sim, testCorpus(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex := testCorpus(t).Dev[0]
	_, tr, err := p.GenerateEvidenceTraced(ctx, ex.DB, ex.Question)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(tr.Stages) != 0 {
		t.Errorf("stages ran under a cancelled context: %+v", tr.Stages)
	}
	if calls := sim.LedgerSnapshot().TotalCalls(); calls != 0 {
		t.Errorf("%d LLM calls under a cancelled context, want 0", calls)
	}
}
