package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/seed"
	"repro/internal/server"
	"repro/internal/sqlengine"
	"repro/internal/synth"
	"repro/internal/texttosql"
)

const (
	clients       = 2           // closed-loop callers, one keep-alive connection each: the box has 2 cores
	generatorName = "codes-15b" // seedd's -generator default
	llmLatency    = 25 * time.Millisecond
	coldBuilds    = 5
	coldStride    = 9 // bird_cold: round i asks every 9th question from i; 9 rounds x 48 cover 432 of the 438
	fleetReplicas = 3
	synthSource   = "financial"
	mib           = 1 << 20
)

// spec is what a workload declares about itself.
type spec struct {
	name string
	why  string
	// expected are the failure classes this workload's traffic is known
	// to produce; any other class fails the run.
	expected []string
	// warm workloads must never answer source=generated; the cold one
	// must always.
	cold bool
	// nominal is what one round's fixed op count was sized to take. A
	// round slower than abandonFactor times this is abandoned.
	nominal time.Duration
	// driver workloads are the ones BENCHMARK.json lists; the others run
	// with them in `go run ./bench` and alone under -workload, but the
	// benchmark driver's time limit is spent on longer runs of fewer.
	driver bool
}

var specs = []spec{
	{name: "bird_warm", driver: true, nominal: 2 * time.Second, expected: []string{api.CodeUnprocessable},
		why: "tiny tables, warm evidence cache: server, batcher, evserve hit, texttosql and api encoding are the whole cost"},
	{name: "scan100k_warm", driver: true, nominal: 2 * time.Second,
		why: "100k-row corpus: sqlengine execute is >95% of a request, so kernels, top-k and parallelism show here only"},
	{name: "memory2k_para", driver: true, nominal: 2 * time.Second,
		why: "paraphrases against ~200 live patterns: qmemory lookup (embed, BM25, ranking under one mutex) dominates"},
	{name: "bird_cold", driver: true, nominal: 2 * time.Second, expected: []string{api.CodeUnprocessable}, cold: true,
		why: "fresh server per round at 25 ms LLM latency: seed/pipeline stages, llm round trips and evstore write-through do the work"},
	{name: "fleet3_warm", nominal: 2 * time.Second, expected: []string{api.CodeUnprocessable},
		why: "bird_warm's traffic through fleet.Router over 3 replicas: the difference from bird_warm is the fleet layer"},
	{name: "table4_offline", nominal: 500 * time.Millisecond,
		why: "the paper's Table IV loop, no HTTP: six generators, one-shot SQL, judge on every op"},
}

// driverSpecs are the workloads BENCHMARK.json declares, in its order.
func driverSpecs() []spec {
	var out []spec
	for _, s := range specs {
		if s.driver {
			out = append(out, s)
		}
	}
	return out
}

func specOf(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// options is what every workload is built from.
type options struct {
	// seed orders the traffic; corpusSeed generates the data. They are
	// separate because the benchmark driver varies seed between runs it
	// then compares: the questions asked stay the same, their order and
	// their pairing with clients change.
	seed       uint64
	corpusSeed uint64
	smoke      bool   // small corpus, one pass: the tier-1 configuration
	scratch    string // store and memory directories live here
}

func (o options) passes() int {
	if o.smoke {
		return 1
	}
	return 3
}

func (o options) scanRows() int {
	if o.smoke {
		return 10_000
	}
	return 100_000
}

// memoryQuestions sizes memory2k_para's canonical workload.
func (o options) memoryQuestions() int {
	if o.smoke {
		return 30
	}
	return 200
}

// dev is the BIRD dev split the BIRD workloads ask: all 438 questions,
// every ninth (all eight databases still) in the smoke configuration.
func (o options) dev(c *dataset.Corpus) []dataset.Example {
	if !o.smoke {
		return c.Dev
	}
	var out []dataset.Example
	for i := 0; i < len(c.Dev); i += 9 {
		out = append(out, c.Dev[i])
	}
	return out
}

// question is one servable corpus question, ready to send.
type question struct {
	ex      dataset.Example
	payload []byte
}

func questionsOf(examples []dataset.Example) []question {
	qs := make([]question, len(examples))
	for i, e := range examples {
		body, err := json.Marshal(api.QueryRequest{DB: e.DB, Question: e.Question})
		if err != nil {
			panic(err) // two strings
		}
		qs[i] = question{ex: e, payload: body}
	}
	return qs
}

// workload is one of the six. setup may be called again after teardown.
type workload interface {
	spec() spec
	setup() error
	teardown()
	// round runs measured round i; rec is nil when tracing is off.
	round(i int, rec *recorder) roundResult
	opsPerRound() int
	// setupSeconds and heapMiB describe the most recent setup.
	// perRoundSetup is the set-up a workload repeats inside every round
	// (bird_cold's server build; 0 elsewhere), known once rounds have run.
	setupSeconds() float64
	perRoundSetup() float64
	heapMiB() float64
	audit() *audit
	// replay measures the workload's layers one call at a time.
	replay(rec *recorder, lm *layerMetrics)
	// layerCounters adds what the program's own Metrics()/Stats()
	// snapshots say about rounds, which are all traced rounds.
	layerCounters(rounds []roundResult, lm *layerMetrics)
}

func newWorkload(name string, opt options) (workload, error) {
	sp, ok := specOf(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	switch name {
	case "bird_warm", "scan100k_warm", "memory2k_para", "fleet3_warm":
		return &served{base: base{sp: sp, opt: opt}}, nil
	case "bird_cold":
		return &cold{base: base{sp: sp, opt: opt}}, nil
	default:
		return &offline{base: base{sp: sp, opt: opt}}, nil
	}
}

// audit accumulates the output checks over every round of a workload.
type audit struct {
	expected map[string]bool
	// classes counts failed ops by class, expected or not.
	classes map[string]int
	// answers maps an example ID to the first answer seen for it (its
	// SQL, or "!"+class); a later different answer is a violation.
	answers map[string]string
	// violations counts broken output rules by name.
	violations map[string]int
	attempted  int
}

func newAudit(sp spec) *audit {
	a := &audit{expected: map[string]bool{}, classes: map[string]int{}, answers: map[string]string{}, violations: map[string]int{}}
	for _, c := range sp.expected {
		a.expected[c] = true
	}
	return a
}

// undeclared lists the failure classes seen that the workload did not
// declare, sorted.
func (a *audit) undeclared() []string {
	var out []string
	for c := range a.classes {
		if !a.expected[c] {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

func (a *audit) failedUndeclared() int {
	n := 0
	for c, k := range a.classes {
		if !a.expected[c] {
			n += k
		}
	}
	return n
}

// digestOf fingerprints a set of (example ID, answer) pairs, so two
// workloads, or a round and the golden file, compare by one string.
func digestOf(answers map[string]string) string {
	ids := make([]string, 0, len(answers))
	for id := range answers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s\x00%s\n", id, answers[id])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (a *audit) answer(id, ans string) {
	if prev, ok := a.answers[id]; !ok {
		a.answers[id] = ans
	} else if prev != ans {
		a.violations["answer_changed_between_rounds"]++
	}
}

// base is what the three workload shapes share.
type base struct {
	sp     spec
	opt    options
	sim    *llm.Simulator
	tr     tracer
	judge  *eval.Judge
	aud    *audit
	setupS float64
	heapMB float64
	// verdicts caches the judge per (example, SQL): an op is judged after
	// its round, off the clock, and each distinct answer only once.
	verdicts map[string]bool
}

func (b *base) spec() spec             { return b.sp }
func (b *base) setupSeconds() float64  { return b.setupS }
func (b *base) perRoundSetup() float64 { return 0 }
func (b *base) heapMiB() float64       { return b.heapMB }
func (b *base) audit() *audit          { return b.aud }

func (b *base) reset() {
	b.sim = llm.NewSimulator()
	b.judge = eval.NewJudge()
	b.verdicts = make(map[string]bool)
	if b.aud == nil {
		b.aud = newAudit(b.sp)
	}
}

func (b *base) verdict(db *schema.DB, e dataset.Example, sql string) bool {
	key := e.ID + "\x00" + sql
	v, ok := b.verdicts[key]
	if !ok {
		v = b.judge.Score(db, e, sql).Correct
		b.verdicts[key] = v
	}
	return v
}

// settle closes a finished HTTP round: it judges every answer, applies
// the output checks, notes the answers (in the audit, and in last for the
// layer replay; bodies only when keepBody) and drops the decoded
// responses. byID resolves the example the server says it answered.
func (b *base) settle(r *roundResult, corpus *dataset.Corpus, byID map[string]dataset.Example, qs []question, last []*answer, keepBody bool) {
	a := b.aud
	kind := "warm"
	if b.sp.cold {
		kind = "cold"
	}
	for i := range r.ops {
		op := &r.ops[i]
		a.attempted++
		if op.class != "" {
			a.classes[op.class]++
			continue
		}
		e, ok := byID[op.resp.ExampleID]
		db, okDB := corpus.DB(op.resp.DB)
		if !ok || !okDB {
			a.violations["answered_unknown_example"]++
			continue
		}
		op.correct = b.verdict(db, e, op.resp.SQL)
		if op.resp.Source == api.SourceMemory && !op.correct {
			a.violations["memory_answer_judged_wrong"]++
		}
		if generated := op.resp.Source == api.SourceGenerated; generated != b.sp.cold {
			a.violations["source_"+op.resp.Source+"_on_"+kind]++
		}
	}
	b.recordAnswers(r, func(q int) string { return qs[q].ex.ID })
	keepLast(r, last, keepBody)
}

// recordAnswers notes what each question was answered with, and stamps
// the round with a digest of its answers. Abandoned ops were never
// asked, so they say nothing about the answer.
func (b *base) recordAnswers(r *roundResult, idOf func(q int) string) {
	round := make(map[string]string, len(r.ops))
	for i := range r.ops {
		op := &r.ops[i]
		if op.class == classAbandoned {
			continue
		}
		ans := "!" + op.class
		if op.class == "" {
			ans = op.resp.SQL
		}
		id := idOf(op.q)
		b.aud.answer(id, ans)
		round[id] = ans
	}
	r.digest = digestOf(round)
}

// reqID names one op. The workload is part of it so that a workload's
// spans can be told from another's in a shared recorder.
func reqID(workload string, round, seq int) string {
	return fmt.Sprintf("%s%s-%d-%d", reqIDPrefix, workload, round, seq)
}

// answer is what the layer replay needs of a 2xx: the evidence and SQL
// the question was answered with, and (traced rounds only) the body, to
// decode and re-encode.
type answer struct {
	evidence, sql string
	body          []byte
}

// keepLast notes each op's answer in last (one slot per question, so
// bounded) and drops the decoded body from the round.
func keepLast(r *roundResult, last []*answer, keepBody bool) {
	for k := range r.ops {
		op := &r.ops[k]
		if op.resp != nil {
			a := &answer{evidence: op.resp.Evidence, sql: op.resp.SQL}
			if keepBody {
				a.body = op.body
			}
			last[op.q], op.source = a, op.resp.Source
		}
		op.resp, op.body = nil, nil
	}
}

func indexByID(examples ...[]dataset.Example) map[string]dataset.Example {
	m := make(map[string]dataset.Example)
	for _, es := range examples {
		for _, e := range es {
			m[e.ID] = e
		}
	}
	return m
}

// ---------------------------------------------------------------- served

// served is a warm workload against one seedd or a routed fleet.
type served struct {
	base
	corpus  *dataset.Corpus
	byID    map[string]dataset.Example
	teach   []question // asked twice in set-up, never measured
	qs      []question // the measured list
	st      *stack
	clients []*client
	dir     string
	// genRowsPerS is synth.Generate's rate in set-up (0 for BIRD).
	genRowsPerS float64
	// last holds the most recent 2xx answer per measured question and
	// taught the same per taught question: the layer replay's inputs.
	last   []*answer
	taught []*answer
}

func (w *served) opsPerRound() int { return len(w.qs) * w.opt.passes() }

func buildBIRD(corpusSeed uint64) *dataset.Corpus {
	return dataset.BuildBIRD(dataset.BIRDOptions{Seed: corpusSeed})
}

// synthCorpus generates the financial schema at `rows` rows with an
// n-question workload over it. Canonical questions are the dev split and
// their paraphrases the test split; both are servable.
func synthCorpus(corpusSeed uint64, rows, n int) (c *dataset.Corpus, rowsPerS float64, err error) {
	src, ok := buildBIRD(corpusSeed).DB(synthSource)
	if !ok {
		return nil, 0, fmt.Errorf("no %s database in BIRD", synthSource)
	}
	t0 := time.Now()
	db, err := synth.Generate(src, synth.Options{Seed: corpusSeed, Rows: synth.ProportionalRows(src, rows)})
	if err != nil {
		return nil, 0, err
	}
	rowsPerS = float64(rows) / time.Since(t0).Seconds()
	qs, err := synth.Workload(db, n, corpusSeed)
	if err != nil {
		return nil, 0, err
	}
	canonical, err := synth.ToExamples(db.Name, qs)
	if err != nil {
		return nil, 0, err
	}
	para, err := synth.ParaphraseExamples(db.Name, qs)
	if err != nil {
		return nil, 0, err
	}
	return &dataset.Corpus{Name: "synth", DBs: map[string]*schema.DB{db.Name: db}, Dev: canonical, Test: para}, rowsPerS, nil
}

func (w *served) setup() (err error) {
	w.reset()
	heap0 := heapAfterGC()
	t0 := time.Now()
	w.dir = mustMkdirTemp(w.opt.scratch, w.sp.name+"-")
	defer func() {
		if err != nil {
			w.teardown()
		}
	}()

	seedS := w.opt.corpusSeed
	switch w.sp.name {
	case "bird_warm":
		w.corpus = buildBIRD(seedS)
		w.qs = questionsOf(w.opt.dev(w.corpus))
		w.st, err = startSingle(seeddConfig(w.corpus, w.sim, seedS), &w.tr)
	case "fleet3_warm":
		w.corpus = buildBIRD(seedS)
		w.qs = questionsOf(w.opt.dev(w.corpus))
		w.st, err = startFleet(fleetReplicas, w.dir, &w.tr, func(i int) server.Config {
			c := w.corpus
			if i > 0 {
				c = buildBIRD(seedS)
			}
			return seeddConfig(c, w.sim, seedS)
		})
	case "scan100k_warm":
		if w.corpus, w.genRowsPerS, err = synthCorpus(seedS, w.opt.scanRows(), 40); err != nil {
			return err
		}
		w.corpus.Test = nil // the paraphrases are memory2k_para's; here they would only widen the session index
		w.qs = questionsOf(w.corpus.Dev)
		w.st, err = startSingle(seeddConfig(w.corpus, w.sim, seedS), &w.tr)
	case "memory2k_para":
		if w.corpus, w.genRowsPerS, err = synthCorpus(seedS, 2_000, w.opt.memoryQuestions()); err != nil {
			return err
		}
		w.teach, w.qs = questionsOf(w.corpus.Dev), questionsOf(w.corpus.Test)
		cfg := seeddConfig(w.corpus, w.sim, seedS)
		cfg.Memory, cfg.MemoryDir = true, w.dir
		w.st, err = startSingle(cfg, &w.tr)
	}
	if err != nil {
		return err
	}
	w.byID = indexByID(w.corpus.Dev, w.corpus.Test)
	w.clients = make([]*client, clients)
	for i := range w.clients {
		w.clients[i] = newClient(w.st.base)
	}
	w.last = make([]*answer, len(w.qs))
	w.taught = make([]*answer, len(w.teach))

	// Warm: the taught questions twice (the second pass is what confirms
	// a pattern), then the measured list once, so first contact — cold
	// evidence, memory admissions — happens here and every measured round
	// sees the same state.
	for pass, list := range [][]question{w.teach, w.teach, w.qs} {
		for i, q := range list {
			r := w.clients[0].query(q.payload, reqID(w.sp.name, -1, i), nil)
			if r.class != "" && !w.aud.expected[r.class] {
				return fmt.Errorf("%s: warm-up: %q answered %s", w.sp.name, q.ex.Question, r.class)
			}
			if r.resp != nil && pass > 0 {
				a := &answer{evidence: r.resp.Evidence, sql: r.resp.SQL}
				if pass == 1 {
					w.taught[i] = a
				} else {
					w.last[i] = a
				}
			}
		}
	}
	if err := w.awaitReplication(); err != nil {
		return err
	}
	w.setupS = time.Since(t0).Seconds()
	w.heapMB = (float64(heapAfterGC()) - float64(heap0)) / mib
	return nil
}

// awaitReplication waits until every replica's store holds every record
// the fleet generated, so measured rounds see idle tailers.
func (w *served) awaitReplication() error {
	if w.st.router == nil {
		return nil
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		var gens int64
		fewest := -1
		for _, n := range w.st.nodes {
			m := n.srv.Metrics()
			gens += m.Evidence[w.corpus.Name].Generations
			if r := m.Store[w.corpus.Name].Records; fewest < 0 || r < fewest {
				fewest = r
			}
		}
		if int64(fewest) >= gens {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: replication did not converge: %d of %d records", w.sp.name, fewest, gens)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (w *served) teardown() {
	for _, c := range w.clients {
		c.close()
	}
	if w.st != nil {
		w.st.stop()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	w.st, w.clients, w.corpus, w.qs, w.teach, w.last, w.taught, w.byID = nil, nil, nil, nil, nil, nil, nil, nil
}

func (w *served) round(i int, rec *recorder) roundResult {
	w.tr.rec.Store(rec)
	defer w.tr.rec.Store(nil)
	order := passes(orderRNG(w.opt.seed, w.sp.name, i), len(w.qs), w.opt.passes())
	var before counters
	if rec != nil {
		before = w.st.counters(w.corpus.Name)
	}
	r := runRound(clients, order, abandonFactor*w.sp.nominal, w.sim, func(c, seq, q int) opResult {
		return w.clients[c].query(w.qs[q].payload, reqID(w.sp.name, i, seq), rec)
	})
	if rec != nil {
		r.counters = w.st.counters(w.corpus.Name).since(before)
	}
	w.settle(&r, w.corpus, w.byID, w.qs, w.last, rec != nil)
	return r
}

// ------------------------------------------------------------------ cold

// cold is bird_cold: every round builds a server with an empty store and
// asks it a ninth of the dev split, which nobody has asked it.
type cold struct {
	base
	corpus *dataset.Corpus
	byID   map[string]dataset.Example
	qs     []question
	dir    string
	builds []float64 // server build, once per round
	last   []*answer
}

func (w *cold) opsPerRound() int { return len(w.qs) / coldStride }

func (w *cold) setup() error {
	w.reset()
	w.sim.SetLatency(llmLatency)
	heap0 := heapAfterGC()
	w.dir = mustMkdirTemp(w.opt.scratch, w.sp.name+"-")
	// All this workload sets up ahead of its rounds is the corpus, some
	// 70 ms of work: too short to time once, so it is built coldBuilds
	// times and the median taken.
	var builds []float64
	for range coldBuilds {
		t0 := time.Now()
		w.corpus = buildBIRD(w.opt.corpusSeed)
		builds = append(builds, time.Since(t0).Seconds())
	}
	w.qs = questionsOf(w.opt.dev(w.corpus))
	w.byID = indexByID(w.corpus.Dev)
	w.last = make([]*answer, len(w.qs))
	w.builds = nil
	w.setupS = median(builds)
	w.heapMB = (float64(heapAfterGC()) - float64(heap0)) / mib
	return nil
}

func (w *cold) teardown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	w.corpus, w.qs, w.byID, w.last = nil, nil, nil, nil
}

// perRoundSetup is the median server build: with the corpus build, what
// standing up a cold seedd costs.
func (w *cold) perRoundSetup() float64 { return median(w.builds) }

func (w *cold) round(i int, rec *recorder) roundResult {
	t0 := time.Now()
	cfg := seeddConfig(w.corpus, w.sim, w.opt.corpusSeed)
	cfg.StoreDir = mustMkdirTemp(w.dir, "store-")
	st, err := startSingle(cfg, &w.tr)
	if err != nil {
		panic(fmt.Sprintf("bench: %s: server build: %v", w.sp.name, err)) // worked in every earlier round
	}
	conns := make([]*client, clients)
	for c := range conns {
		conns[c] = newClient(st.base)
	}
	w.builds = append(w.builds, time.Since(t0).Seconds())
	// The server is this round's own, but the plan caches live in the
	// corpus, which every round shares.
	before := st.counters(w.corpus.Name)
	defer func() {
		for _, c := range conns {
			c.close()
		}
		st.stop()
		os.RemoveAll(cfg.StoreDir)
	}()

	w.tr.rec.Store(rec)
	defer w.tr.rec.Store(nil)
	// Round i asks every coldStride-th dev question starting at i, so a
	// round samples all eight databases alike (dev is grouped by
	// database; consecutive windows would make rounds incomparable) and
	// no question repeats for coldStride rounds. The seed orders them.
	order := make([]int, w.opsPerRound())
	for k, p := range orderRNG(w.opt.seed, w.sp.name, i).Perm(len(order)) {
		order[k] = p*coldStride + i%coldStride
	}
	r := runRound(clients, order, abandonFactor*w.sp.nominal, w.sim, func(c, seq, q int) opResult {
		return conns[c].query(w.qs[q].payload, reqID(w.sp.name, i, seq), rec)
	})
	if rec != nil {
		r.counters = st.counters(w.corpus.Name).since(before)
	}
	w.settle(&r, w.corpus, w.byID, w.qs, w.last, rec != nil)
	return r
}

// --------------------------------------------------------------- offline

// offline is table4_offline: the (generator, dev example) evaluations of
// Table IV's SEED_gpt column, exactly as eval.Runner.Evaluate does one.
type offline struct {
	base
	env      *experiments.Env
	gens     []texttosql.Generator
	evidence map[string]string
}

type pair struct{ gen, ex int }

func (w *offline) examples() []dataset.Example { return w.opt.dev(w.env.BIRD) }

func (w *offline) opsPerRound() int { return len(w.gens) * len(w.examples()) }

func (w *offline) setup() error {
	w.reset()
	heap0 := heapAfterGC()
	t0 := time.Now()
	w.env = experiments.NewEnv(w.opt.corpusSeed)
	w.sim = w.env.Client
	// The six Table IV configurations, in the table's row order.
	w.gens = []texttosql.Generator{
		texttosql.NewCHESSIRCGUT(w.sim),
		texttosql.NewCHESSIRSSCG(w.sim),
		texttosql.NewRSLSQL(w.sim),
		texttosql.NewCodeS(w.sim, 15),
		texttosql.NewCodeS(w.sim, 7),
		texttosql.NewDAILSQL(w.sim),
	}
	w.evidence = w.env.BIRDSeedEvidence(seed.VariantGPT)
	w.setupS = time.Since(t0).Seconds()
	w.heapMB = (float64(heapAfterGC()) - float64(heap0)) / mib
	return nil
}

func (w *offline) teardown() {
	if w.env != nil {
		w.env.Close()
	}
	w.env, w.gens, w.evidence = nil, nil, nil
}

// planCache sums the BIRD engines' prepared-plan counters.
func (w *offline) planCache() sqlengine.PlanCacheStats {
	var agg sqlengine.PlanCacheStats
	for _, db := range w.env.BIRD.DBs {
		agg.Add(db.Engine.PlanCacheStats())
	}
	return agg
}

func (w *offline) pairOf(q int) pair {
	n := len(w.examples())
	return pair{gen: q / n, ex: q % n}
}

func (w *offline) round(i int, rec *recorder) roundResult {
	dev := w.examples()
	order := passes(orderRNG(w.opt.seed, w.sp.name, i), w.opsPerRound(), 1)
	before := w.planCache()
	r := runRound(clients, order, abandonFactor*w.sp.nominal, w.sim, func(_, seq, q int) opResult {
		p := w.pairOf(q)
		e := dev[p.ex]
		req := ""
		if rec != nil {
			req = reqID(w.sp.name, i, seq)
		}
		var res opResult
		sp := rec.begin(spanClient, req)
		t0 := time.Now()
		db, ok := w.env.BIRD.DB(e.DB)
		if !ok {
			res.class = "no_database"
		} else {
			g := rec.begin(spanGenerate, req, spanClient)
			sql, err := w.gens[p.gen].Generate(texttosql.Task{Example: e, DB: db, Evidence: w.evidence[e.ID]})
			rec.end(g)
			if err != nil {
				res.class = "generate_error"
			} else {
				s := rec.begin(spanScore, req, spanClient)
				res.correct = w.judge.Score(db, e, sql).Correct
				rec.end(s)
				res.resp = &api.QueryResponse{SQL: sql}
			}
		}
		res.latency = time.Since(t0)
		rec.end(sp)
		rec.forget(req)
		return res
	})
	after := w.planCache()
	r.counters.n[cPlanHits], r.counters.n[cPlanMisses] = after.Hits-before.Hits, after.Misses-before.Misses
	for k := range r.ops {
		w.aud.attempted++
		if c := r.ops[k].class; c != "" {
			w.aud.classes[c]++
		}
	}
	w.recordAnswers(&r, func(q int) string {
		p := w.pairOf(q)
		return w.gens[p.gen].Name() + "/" + dev[p.ex].ID
	})
	for k := range r.ops {
		r.ops[k].resp = nil
	}
	return r
}
