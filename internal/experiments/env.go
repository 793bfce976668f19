// Package experiments reproduces every table and figure of the paper's
// evaluation section. Each driver returns a Table whose rows mirror the
// paper's layout; the bench harness and the benchrun CLI print them.
package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/evserve"
	"repro/internal/evstore"
	"repro/internal/llm"
	"repro/internal/pipeline"
	"repro/internal/seed"
	"repro/internal/sqlengine"
)

// Env holds the corpora, simulator and the evidence-generation services
// shared by all experiment drivers. Building SEED evidence for a whole
// split is the expensive step; each variant is served by an evserve.Service
// whose cache makes repeat accessor calls (every table driver asks for the
// same splits) cost a lookup rather than a pipeline run.
type Env struct {
	Seed   uint64
	BIRD   *dataset.Corpus
	Spider *dataset.Corpus
	Client *llm.Simulator

	birdRunner   *eval.Runner
	spiderRunner *eval.Runner

	// storeDir, when non-empty, backs every evidence service with a
	// durable evstore (one per corpus, the seedd layout), so offline
	// experiment runs read and extend the same evidence corpus the
	// serving daemon does. Set via NewEnvWithStore.
	storeDir string

	// mu guards lazy construction and reads of the service pointers;
	// the services themselves are concurrency-safe.
	mu          sync.Mutex
	gptSvc      *evserve.Service
	dsSvc       *evserve.Service
	revisedSvc  *evserve.Service
	spiderSvc   *evserve.Service
	birdStore   *evstore.Store
	spiderStore *evstore.Store
}

// NewEnv builds the experiment environment from a corpus seed. Evidence
// services (and the pipelines behind them) are constructed lazily on first
// use, so experiments that never touch a variant never pay for it.
func NewEnv(corpusSeed uint64) *Env {
	e := &Env{
		Seed:   corpusSeed,
		BIRD:   dataset.BuildBIRD(dataset.BIRDOptions{Seed: corpusSeed}),
		Spider: dataset.BuildSpider(corpusSeed),
		Client: llm.NewSimulator(),
	}
	e.birdRunner = eval.NewRunner(e.BIRD)
	e.spiderRunner = eval.NewRunner(e.Spider)
	return e
}

// NewEnvWithStore is NewEnv with durable evidence: every service built by
// the Env is backed by an evstore under storeDir (one store per corpus,
// the same StoreDir/<corpus> layout seedd and seedgen use). Evidence
// generated by a previous run — or by the serving daemon — is replayed
// into the caches, and this run's generations are persisted for the next.
func NewEnvWithStore(corpusSeed uint64, storeDir string) *Env {
	e := NewEnv(corpusSeed)
	e.storeDir = storeDir
	return e
}

// corpusStore lazily opens (under e.mu) the durable store for one corpus;
// nil when the Env runs without persistence. Open failures panic: an Env
// pointed at an unusable store directory is a driver configuration error,
// consistent with how corpus construction failures are treated.
func (e *Env) corpusStore(corpus string) *evstore.Store {
	if e.storeDir == "" {
		return nil
	}
	slot := &e.birdStore
	if corpus == "spider" {
		slot = &e.spiderStore
	}
	if *slot == nil {
		st, err := evstore.Open(filepath.Join(e.storeDir, corpus), evstore.Options{
			Manifest: evstore.Manifest(corpus, e.Seed),
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: opening evidence store for %s: %v", corpus, err))
		}
		*slot = st
	}
	return *slot
}

// storeOption injects the corpus store into service options when the Env
// is persistent; a plain pass-through otherwise.
func (e *Env) storeOption(corpus string, opts evserve.Options) evserve.Options {
	if st := e.corpusStore(corpus); st != nil {
		opts.Store = st
	}
	return opts
}

// birdService returns (building once) the evidence service for a BIRD
// variant.
func (e *Env) birdService(v seed.Variant) *evserve.Service {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v == seed.VariantDeepSeek {
		if e.dsSvc == nil {
			p := seed.New(seed.ConfigDeepSeek(), e.Client, e.BIRD)
			e.dsSvc = evserve.New(e.storeOption("bird", evserve.Options{
				Variant:        string(seed.VariantDeepSeek),
				GenerateTraced: p.GenerateEvidenceTraced,
			}))
		}
		return e.dsSvc
	}
	if e.gptSvc == nil {
		p := seed.New(seed.ConfigGPT(), e.Client, e.BIRD)
		e.gptSvc = evserve.New(e.storeOption("bird", evserve.Options{
			Variant:        string(seed.VariantGPT),
			GenerateTraced: p.GenerateEvidenceTraced,
		}))
	}
	return e.gptSvc
}

// BIRDSeedEvidence generates SEED evidence for every BIRD dev example under
// the given variant. Results are served from the variant's evidence cache,
// so repeat calls are cheap.
func (e *Env) BIRDSeedEvidence(v seed.Variant) map[string]string {
	return evidenceMap(e.birdService(v), e.BIRD.Dev)
}

// BIRDSeedEvidenceTraced generates (or serves from cache) evidence for one
// BIRD question under the given variant, with the per-stage trace of the
// generation that produced it (preserved across the evidence cache). It is
// the per-request view of the same pipeline BIRDSeedEvidence batches over
// a whole split: diagnostics use it to print per-question trace trees.
func (e *Env) BIRDSeedEvidenceTraced(ctx context.Context, v seed.Variant, db, question string) (evserve.Evidence, error) {
	return e.birdService(v).GenerateTraced(ctx, db, question)
}

// BIRDRevisedEvidence generates the SEED_revised condition: deepseek
// evidence with join clauses stripped by the revision model. The revised
// service's generation function pulls the base evidence through the
// deepseek service (sharing its cache) before revising.
func (e *Env) BIRDRevisedEvidence() map[string]string {
	// Resolve the base service before taking e.mu: birdService locks it too.
	base := e.birdService(seed.VariantDeepSeek)
	e.mu.Lock()
	if e.revisedSvc == nil {
		p := seed.New(seed.ConfigDeepSeek(), e.Client, e.BIRD)
		e.revisedSvc = evserve.New(e.storeOption("bird", evserve.Options{
			Variant: "seed_revised",
			// The trace passed through is the base deepseek generation's:
			// revision is a post-pass over its output, so that is where
			// the evidence actually came from.
			GenerateTraced: func(ctx context.Context, db, question string) (string, *pipeline.Trace, error) {
				ev, err := base.GenerateTraced(ctx, db, question)
				if err != nil {
					return "", nil, err
				}
				revised, rerr := p.Revise(ev.Text)
				if rerr != nil {
					return ev.Text, ev.Trace, nil
				}
				return revised, ev.Trace, nil
			},
		}))
	}
	svc := e.revisedSvc
	e.mu.Unlock()
	return evidenceMap(svc, e.BIRD.Dev)
}

// SpiderSeedEvidence runs the paper's Spider pipeline (§IV-E3): generate
// description files with the revision model first, then SEED_gpt evidence
// for dev and test questions.
func (e *Env) SpiderSeedEvidence() map[string]string {
	e.mu.Lock()
	if e.spiderSvc == nil {
		p := seed.New(seed.ConfigGPT(), e.Client, e.Spider)
		// Describe every database before the service goes concurrent:
		// DescribeDatabase installs docs into shared corpus state.
		for _, db := range e.Spider.DBs {
			if err := p.DescribeDatabase(db); err != nil {
				e.mu.Unlock()
				panic(fmt.Sprintf("experiments: describing spider DB %s: %v", db.Name, err))
			}
		}
		e.spiderSvc = evserve.New(e.storeOption("spider", evserve.Options{
			Variant:        evserve.CacheNamespace(string(seed.VariantGPT), "spider"),
			GenerateTraced: p.GenerateEvidenceTraced,
		}))
	}
	svc := e.spiderSvc
	e.mu.Unlock()
	split := append(append([]dataset.Example{}, e.Spider.Dev...), e.Spider.Test...)
	return evidenceMap(svc, split)
}

// Close closes every evidence service built so far (each flushes its
// store after its running generations finish) and then closes the
// durable stores. The Env is not usable for evidence generation
// afterwards.
func (e *Env) Close() {
	e.mu.Lock()
	services := []*evserve.Service{e.gptSvc, e.dsSvc, e.revisedSvc, e.spiderSvc}
	stores := []*evstore.Store{e.birdStore, e.spiderStore}
	e.mu.Unlock()
	for _, svc := range services {
		if svc != nil {
			svc.Close()
		}
	}
	for _, st := range stores {
		if st != nil {
			st.Close()
		}
	}
}

// EvidenceStats snapshots the counters of every evidence service built so
// far, in a fixed variant order. Services never touched are omitted.
func (e *Env) EvidenceStats() []evserve.Stats {
	e.mu.Lock()
	services := []*evserve.Service{e.gptSvc, e.dsSvc, e.revisedSvc, e.spiderSvc}
	e.mu.Unlock()
	var out []evserve.Stats
	for _, svc := range services {
		if svc != nil {
			out = append(out, svc.Stats())
		}
	}
	return out
}

// PlanCacheReport renders the SQL engines' prepared-plan cache counters,
// aggregated per corpus. Every gold and predicted query the experiment
// drivers execute flows through these caches (eval prepares statements on
// the corpus engines), so the hit ratio is the direct measure of how much
// parse-and-plan work the evaluation hot path is skipping.
func PlanCacheReport(env *Env) *Table {
	t := &Table{
		Title:  "SQL plan cache",
		Header: []string{"corpus", "hits", "misses", "evictions", "entries"},
	}
	for _, c := range []*dataset.Corpus{env.BIRD, env.Spider} {
		if c == nil {
			continue
		}
		var agg sqlengine.PlanCacheStats
		for _, db := range c.DBs {
			agg.Add(db.Engine.PlanCacheStats())
		}
		t.Rows = append(t.Rows, []string{
			c.Name,
			fmt.Sprint(agg.Hits),
			fmt.Sprint(agg.Misses),
			fmt.Sprint(agg.Evictions),
			fmt.Sprint(agg.Entries),
		})
	}
	return t
}

// PipelineStageReport renders the per-stage cost table of every evidence
// service built so far: how often each stage ran, and the wall time and
// token spend it accumulated — where a generation actually spends its
// time.
func PipelineStageReport(env *Env) *Table {
	t := &Table{
		Title:  "Evidence pipeline stages",
		Header: []string{"variant", "stage", "runs", "mean wall", "total wall", "tokens"},
	}
	for _, st := range env.EvidenceStats() {
		for _, sa := range st.Stages {
			t.Rows = append(t.Rows, []string{
				st.Variant,
				sa.Stage,
				fmt.Sprint(sa.Count),
				(time.Duration(sa.MeanMicros()) * time.Microsecond).Round(time.Microsecond).String(),
				(time.Duration(sa.WallMicros) * time.Microsecond).Round(time.Microsecond).String(),
				fmt.Sprint(sa.Tokens),
			})
		}
	}
	if len(t.Rows) == 0 {
		t.Notes = append(t.Notes, "no traced generations yet")
	}
	return t
}

// ThroughputReport renders the evidence services' cache and batch counters
// as a table; empty when no evidence has been generated yet.
func ThroughputReport(env *Env) *Table {
	t := &Table{
		Title:  "Evidence service throughput",
		Header: []string{"variant", "hits", "misses", "dedup", "gen", "gen time", "batch reqs", "batch time", "req/s"},
	}
	for _, st := range env.EvidenceStats() {
		t.Rows = append(t.Rows, []string{
			st.Variant,
			fmt.Sprint(st.Cache.Hits),
			fmt.Sprint(st.Cache.Misses),
			fmt.Sprint(st.Dedups),
			fmt.Sprint(st.Generations),
			st.GenerationTime.Round(time.Millisecond).String(),
			fmt.Sprint(st.BatchRequests),
			st.BatchTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", st.Throughput()),
		})
	}
	return t
}

// evidenceMap runs a split through the service's batch API and returns the
// evidence keyed by example ID. Failed requests map to empty evidence, the
// same contract the table drivers have always had.
func evidenceMap(svc *evserve.Service, split []dataset.Example) map[string]string {
	reqs := make([]evserve.Request, len(split))
	for i, ex := range split {
		reqs[i] = evserve.Request{DB: ex.DB, Question: ex.Question}
	}
	results, _ := svc.GenerateAll(context.Background(), reqs)
	out := make(map[string]string, len(split))
	for i, r := range results {
		ev := r.Evidence
		if r.Err != nil {
			ev = ""
		}
		out[split[i].ID] = ev
	}
	return out
}

// sampleEvery returns every nth example (n <= 1 returns all), for fast
// test-mode runs of the heavy tables.
func sampleEvery(split []dataset.Example, n int) []dataset.Example {
	if n <= 1 {
		return split
	}
	var out []dataset.Example
	for i := 0; i < len(split); i += n {
		out = append(out, split[i])
	}
	return out
}

// Table is a rendered experiment artefact.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}
