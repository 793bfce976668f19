package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/bm25"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/eval"
	"repro/internal/evserve"
	"repro/internal/evstore"
	"repro/internal/llm"
	"repro/internal/pipeline"
	"repro/internal/qmemory"
	"repro/internal/seed"
	"repro/internal/server"
	"repro/internal/sqlengine"
	"repro/internal/texttosql"
)

// The layer replay calls each layer's public functions directly, one call
// at a time on one goroutine, on the inputs the workload's own traffic
// produced (its questions, the evidence and SQL it was answered with).
// What it reports is the layer's cost with nothing else running: the
// number an optimisation of that layer moves first.
const (
	replayItems    = 200 // most calls replayed per layer
	replayEvidence = 48  // evidence generations replayed at zero latency
	replayLatent   = 8   // evidence generations replayed with the LLM latency on
)

// The events the per-layer table counts, as indices into counters.n.
const (
	cBatches = iota
	cBatched
	cWindowFlushes
	cSizeFlushes
	cEvHits
	cEvMisses
	cDedups
	cPlanHits
	cPlanMisses
	cMemLookups
	cMemHits
	cDemotions
	cRequests
	cAttempts
	cFailovers
	cHedgedWins
	nCounters
)

// counters is what the program's Metrics()/Stats() snapshots say, reduced
// to what the per-layer table uses. Traced rounds carry the difference
// between the snapshot after and before.
type counters struct {
	n         [nCounters]int64
	perNode   []int64 // /v1/query requests each node's wrapped handler saw
	phrasings int     // a level, not a count of events
}

func (s *stack) counters(corpus string) counters {
	var c counters
	for _, nd := range s.nodes {
		m := nd.srv.Metrics()
		b, e, pc, mem := m.Batcher[corpus], m.Evidence[corpus], m.PlanCache[corpus], m.Memory[corpus]
		for i, v := range [nCounters]int64{
			cBatches: b.Batches, cBatched: b.BatchedRequests, cWindowFlushes: b.WindowFlushes, cSizeFlushes: b.SizeFlushes,
			cEvHits: e.CacheHits, cEvMisses: e.CacheMisses, cDedups: e.Dedups,
			cPlanHits: pc.Hits, cPlanMisses: pc.Misses,
			cMemLookups: mem.Lookups, cMemHits: mem.Hits, cDemotions: mem.Demotions,
		} {
			c.n[i] += v
		}
		c.phrasings += mem.Phrasings
		c.perNode = append(c.perNode, nd.served.Load())
	}
	if s.router != nil {
		m := s.router.Metrics()
		c.n[cRequests], c.n[cAttempts], c.n[cFailovers], c.n[cHedgedWins] = m.Requests, m.Attempts, m.Failovers, m.HedgedWins
	}
	return c
}

// add accumulates sign times o into c: +1 sums rounds, -1 takes an
// earlier snapshot away.
func (c *counters) add(o counters, sign int64) {
	for i := range c.n {
		c.n[i] += sign * o.n[i]
	}
	if c.perNode == nil {
		c.perNode = make([]int64, len(o.perNode))
	}
	for i := range o.perNode {
		c.perNode[i] += sign * o.perNode[i]
	}
	if sign > 0 {
		c.phrasings = o.phrasings
	}
}

// since is c minus an earlier snapshot.
func (c counters) since(o counters) counters {
	d := counters{n: c.n, perNode: append([]int64(nil), c.perNode...), phrasings: c.phrasings}
	d.add(o, -1)
	return d
}

// spanMetrics turns this workload's spans of the traced rounds into the
// per-layer timings: a span's duration where the layer is a leaf, its
// self time where it has children.
func (res *result) spanMetrics(spans []span, self map[int64]time.Duration) {
	prefix := reqIDPrefix + res.sp.name + "-"
	durs := make(map[string][]time.Duration)
	selfs := make(map[string][]time.Duration)
	for _, s := range spans {
		if !strings.HasPrefix(s.Req, prefix) {
			continue
		}
		durs[s.Name] = append(durs[s.Name], s.dur())
		selfs[s.Name] = append(selfs[s.Name], self[s.ID])
	}
	lm := res.layers
	lm.setMs("harness.client_self_ms", selfs[spanClient])
	lm.setMs("fleet.forward_self_ms", selfs[spanRouter])
	lm.setMs("server.handler_ms", durs[spanServer])
	lm.setMs("server.other_self_ms", selfs[spanServer])
	path := []string{spanClient, spanRouter, spanServer}
	for _, name := range timingSpans {
		lm.setMs(name+"_ms", durs[name])
		path = append(path, name)
	}
	if d := durs[spanGenerate]; len(d) > 0 { // table4_offline: the op's two calls are spans of their own
		lm.setMs("texttosql.generate_ms", d)
		lm.setMs("eval.score_ms", durs[spanScore])
		path = append(path, spanGenerate, spanScore)
	}
	// Along a request the self times tile the client span, so their
	// means add up to the mean latency exactly; their medians do not add
	// up to the median latency, and by how much is the residual.
	n := float64(len(durs[spanClient]))
	for _, name := range path {
		res.selfMedians += medianMs(selfs[name])
		var sum time.Duration
		for _, d := range selfs[name] {
			sum += d
		}
		res.selfMeans += ratio(ms(sum), n)
	}
	res.tracedP50 = medianMs(durs[spanClient])
	var sum time.Duration
	for _, d := range durs[spanClient] {
		sum += d
	}
	res.tracedMean = ratio(ms(sum), n)
}

// sharedCounters reports what the traced rounds' counter deltas and
// responses say; it is the same for one seedd, a fleet and a cold seedd.
func sharedCounters(rounds []roundResult, lm *layerMetrics) {
	var c counters
	sources := map[string]int{}
	var ok, bytes int
	for i := range rounds {
		c.add(rounds[i].counters, +1)
		for k := range rounds[i].ops {
			if op := &rounds[i].ops[k]; op.source != "" {
				ok++
				bytes += op.bytes
				sources[op.source]++
			}
		}
	}
	// share reports a's share of a+b, resting on a+b events.
	share := func(name string, a, b int) {
		lm.set(name, ratio(float64(c.n[a]), float64(c.n[a]+c.n[b])), int(c.n[a]+c.n[b]))
	}
	// per reports events of kind a per event of kind b.
	per := func(name string, a, b int) { lm.set(name, ratio(float64(c.n[a]), float64(c.n[b])), int(c.n[b])) }
	count := func(name string, a, of int) { lm.set(name, float64(c.n[a]), int(c.n[of])) }

	n := float64(ok)
	lm.set("server.source_share.memory", ratio(float64(sources[api.SourceMemory]), n), ok)
	lm.set("server.source_share.cache", ratio(float64(sources[api.SourceCache]), n), ok)
	lm.set("server.source_share.generated", ratio(float64(sources[api.SourceGenerated]), n), ok)
	lm.set("api.response_kb", ratio(float64(bytes)/1024, n), ok)
	per("server.batch_avg_fill", cBatched, cBatches)
	share("server.batch_window_flush_share", cWindowFlushes, cSizeFlushes)
	share("evserve.cache_hit_rate", cEvHits, cEvMisses)
	lm.set("evserve.dedups", float64(c.n[cDedups]), int(c.n[cEvHits]+c.n[cEvMisses]))
	share("sqlengine.plan_cache_hit_rate", cPlanHits, cPlanMisses)
	per("qmemory.hit_rate", cMemHits, cMemLookups)
	count("qmemory.demotions", cDemotions, cMemLookups)
	lm.set("qmemory.phrasings", float64(c.phrasings), int(c.n[cMemLookups]))
	per("fleet.attempts_per_req", cAttempts, cRequests)
	count("fleet.failovers", cFailovers, cRequests)
	count("fleet.hedged_wins", cHedgedWins, cRequests)
	if c.n[cRequests] > 0 {
		var most, sum int64
		for _, v := range c.perNode {
			most, sum = max(most, v), sum+v
		}
		lm.set("fleet.shard_skew", ratio(float64(most), float64(sum)/float64(len(c.perNode))), int(sum))
	}
}

func (w *served) layerCounters(rounds []roundResult, lm *layerMetrics) {
	sharedCounters(rounds, lm)
	if w.genRowsPerS > 0 {
		lm.set("synth.generate_rows_per_s", w.genRowsPerS, 1)
	}
}

func (w *cold) layerCounters(rounds []roundResult, lm *layerMetrics) { sharedCounters(rounds, lm) }

// layerCounters for the offline loop: the plan cache is the only counter
// on its path (Judge.Score rides it).
func (w *offline) layerCounters(rounds []roundResult, lm *layerMetrics) {
	var c counters
	for i := range rounds {
		c.add(rounds[i].counters, +1)
	}
	hits, all := c.n[cPlanHits], c.n[cPlanHits]+c.n[cPlanMisses]
	lm.set("sqlengine.plan_cache_hit_rate", ratio(float64(hits), float64(all)), int(all))
}

// item is one replay input: a question with the evidence and SQL the
// workload's traffic produced for it.
type item struct {
	ex       dataset.Example
	evidence string
	sql      string
	body     []byte // the response body; nil offline
}

func itemsOf(qs []question, last []*answer) []item {
	var out []item
	for i, q := range qs {
		if a := last[i]; a != nil {
			out = append(out, item{ex: q.ex, evidence: a.evidence, sql: a.sql, body: a.body})
		}
	}
	return out
}

// sample thins xs to at most n evenly spaced elements.
func sample[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// replayer times single calls, each under a span of its own.
type replayer struct {
	rec    *recorder
	lm     *layerMetrics
	corpus *dataset.Corpus
	smoke  bool
}

// cap is how many calls of a kind are replayed: n, a quarter of it in
// the smoke configuration.
func (rp *replayer) cap(n int) int {
	if rp.smoke {
		return n / 4
	}
	return n
}

func (rp *replayer) time(name string, fn func()) time.Duration {
	id := rp.rec.begin("replay."+name, "")
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	rp.rec.end(id)
	return d
}

// templateOf names the synth template a query has the shape of; BIRD
// queries of another shape count in sqlengine.exec_ms only.
func templateOf(sql string) string {
	u := strings.ToUpper(sql)
	switch {
	case strings.Contains(u, " JOIN ") && strings.Contains(u, "COUNT("):
		return "join_count"
	case strings.Contains(u, "ORDER BY") && strings.Contains(u, "LIMIT"):
		return "topk"
	case strings.Contains(u, "SUM("):
		return "sum_where"
	case strings.Contains(u, "AVG("):
		return "avg"
	case strings.Contains(u, "COUNT(") && (strings.Contains(u, " > ") || strings.Contains(u, " < ") || strings.Contains(u, "BETWEEN")):
		return "range_count"
	case strings.Contains(u, "COUNT(") && strings.Contains(u, " = "):
		return "count_eq"
	}
	return ""
}

// engine replays prepare, execute, judge and encode over the items.
func (rp *replayer) engine(items []item, fullScore bool) {
	items = sample(items, rp.cap(replayItems))
	var cold, cached, exec, score, encode []time.Duration
	byTemplate := make(map[string][]time.Duration)
	var batches, workers int64
	var execAlloc uint64
	judge := eval.NewJudge()
	var ms0, ms1 runtime.MemStats
	for _, it := range items {
		db, ok := rp.corpus.DB(it.ex.DB)
		if !ok {
			continue
		}
		var stmt *sqlengine.Stmt
		var err error
		d := rp.time("sqlengine.prepare", func() { stmt, err = db.Engine.Prepare(it.sql) })
		if err != nil {
			continue // the declared unprocessable answers
		}
		cold = append(cold, d)
		if _, _, err := db.Engine.PrepareCached(it.sql); err != nil {
			continue
		}
		cached = append(cached, rp.time("sqlengine.prepare_cached", func() { _, _, _ = db.Engine.PrepareCached(it.sql) }))

		var res *sqlengine.Result
		runtime.ReadMemStats(&ms0)
		d = rp.time("sqlengine.exec", func() { res, err = stmt.Exec() })
		runtime.ReadMemStats(&ms1)
		if err != nil {
			continue
		}
		exec = append(exec, d)
		execAlloc += ms1.TotalAlloc - ms0.TotalAlloc
		batches += res.Batches
		workers += int64(res.Workers)
		if t := templateOf(it.sql); t != "" {
			byTemplate[t] = append(byTemplate[t], d)
		}

		// The judge caches gold per example; the first call fills it.
		judge.ScoreRows(db, it.ex, res)
		if fullScore {
			score = append(score, rp.time("eval.score", func() { judge.Score(db, it.ex, it.sql) }))
		} else {
			score = append(score, rp.time("eval.score_rows", func() { judge.ScoreRows(db, it.ex, res) }))
		}
		var resp api.QueryResponse
		if it.body != nil && json.Unmarshal(it.body, &resp) == nil {
			encode = append(encode, rp.time("api.encode", func() { _, _ = json.Marshal(&resp) }))
		}
	}
	lm, n := rp.lm, float64(len(exec))
	lm.setMs("sqlengine.prepare_cold_ms", cold)
	lm.setMs("sqlengine.prepare_cached_ms", cached)
	lm.setMs("sqlengine.exec_ms", exec)
	for _, t := range []string{"count_eq", "sum_where", "avg", "range_count", "join_count", "topk"} {
		lm.setMs("sqlengine.exec_ms."+t, byTemplate[t])
	}
	lm.set("sqlengine.alloc_kb_per_exec", ratio(float64(execAlloc)/1024, n), len(exec))
	lm.set("sqlengine.batches_per_exec", ratio(float64(batches), n), len(exec))
	lm.set("sqlengine.parallel_workers", ratio(float64(workers), n), len(exec))
	lm.setMs("eval.score_ms", score)
	lm.setMs("api.encode_ms", encode)
}

// generate replays the serving generator over the items.
func (rp *replayer) generate(items []item) {
	sim := llm.NewSimulator()
	gen, err := server.GeneratorFor(generatorName, sim)
	if err != nil {
		return
	}
	var durs []time.Duration
	for _, it := range sample(items, rp.cap(replayItems)) {
		if db, ok := rp.corpus.DB(it.ex.DB); ok {
			durs = append(durs, rp.time("texttosql.generate", func() {
				_, _ = gen.Generate(texttosql.Task{Example: it.ex, DB: db, Evidence: it.evidence})
			}))
		}
	}
	rp.lm.setMs("texttosql.generate_ms", durs)
}

// evidence replays a miss then a hit of evserve over a fresh pipeline at
// the workload's LLM latency, and the DAG against the sequential path at
// the modelled latency. It returns the generated entries for the store
// replay.
func (rp *replayer) evidence(examples []dataset.Example, latency time.Duration) (keys []evserve.Key, entries []evserve.Entry) {
	n := rp.cap(replayEvidence)
	if latency > 0 {
		n = rp.cap(replayLatent)
	}
	examples = sample(examples, n)
	ctx := context.Background()
	variant := evserve.CacheNamespace(string(seed.VariantGPT), rp.corpus.Name)

	sim := llm.NewSimulator()
	sim.SetLatency(latency)
	p := seed.New(seed.ConfigGPT(), sim, rp.corpus)
	svc := evserve.New(evserve.Options{Variant: variant, GenerateTraced: p.GenerateEvidenceTraced})
	defer svc.Close()
	var miss, hit []time.Duration
	stages := make(map[string][]time.Duration)
	calls0, tokens0 := ledgerTotals(sim)
	for _, e := range examples {
		var ev evserve.Evidence
		var err error
		d := rp.time("evserve.miss", func() { ev, err = svc.GenerateTraced(ctx, e.DB, e.Question) })
		if err != nil {
			continue
		}
		miss = append(miss, d)
		keys = append(keys, evserve.KeyFor(e.DB, variant, e.Question))
		entries = append(entries, evserve.Entry{Evidence: ev.Text, Trace: ev.Trace})
		if ev.Trace != nil {
			for _, st := range ev.Trace.Stages {
				stages[st.Stage] = append(stages[st.Stage], time.Duration(st.WallMicros)*time.Microsecond)
			}
		}
	}
	calls1, tokens1 := ledgerTotals(sim)
	for _, e := range examples {
		hit = append(hit, rp.time("evserve.hit", func() { _, _ = svc.GenerateTraced(ctx, e.DB, e.Question) }))
	}
	lm, g := rp.lm, float64(len(miss))
	lm.setMs("evserve.miss_ms", miss)
	lm.setMs("evserve.hit_ms", hit)
	lm.set("llm.calls_per_evidence", ratio(float64(calls1-calls0), g), len(miss))
	lm.set("llm.tokens_per_evidence", ratio(float64(tokens1-tokens0), g), len(miss))
	for _, st := range []string{seed.StageKeywords, seed.StageSamples, seed.StageShots, seed.StageSchema, seed.StageGenerate} {
		lm.setMs("pipeline.stage_ms."+st, stages[st])
	}
	var memo pipeline.MemoStats
	for _, st := range p.StageMemoStats() {
		memo.Hits += st.Hits
		memo.Misses += st.Misses
	}
	lm.set("pipeline.memo_hit_rate", ratio(float64(memo.Hits), float64(memo.Hits+memo.Misses)), int(memo.Hits+memo.Misses))

	// DAG against sequential, each on its own fresh pipeline, with the
	// LLM latency on: without it the two differ only by scheduling noise.
	latent := llm.NewSimulator()
	latent.SetLatency(llmLatency)
	dagP := seed.New(seed.ConfigGPT(), latent, rp.corpus)
	seqP := seed.New(seed.ConfigGPT(), latent, rp.corpus)
	var dag, seq []time.Duration
	for _, e := range sample(examples, rp.cap(replayLatent)) {
		dag = append(dag, rp.time("seed.evidence_dag", func() { _, _, _ = dagP.GenerateEvidenceTraced(ctx, e.DB, e.Question) }))
		seq = append(seq, rp.time("seed.evidence_seq", func() { _, _ = seqP.GenerateEvidenceSequential(e.DB, e.Question) }))
	}
	lm.setMs("seed.evidence_dag_ms", dag)
	lm.setMs("seed.evidence_seq_ms", seq)
	return keys, entries
}

// store replays evstore appends of the generated entries, then reopens
// the store for its replay time.
func (rp *replayer) store(dir string, manifest string, keys []evserve.Key, entries []evserve.Entry) {
	dir = mustMkdirTemp(dir, "replay-store-")
	defer os.RemoveAll(dir)
	opts := evstore.Options{Manifest: manifest}
	st, err := evstore.Open(dir, opts)
	if err != nil {
		return
	}
	var appends []time.Duration
	for i := range keys {
		appends = append(appends, rp.time("evstore.append", func() { _ = st.Append(keys[i], entries[i]) }))
	}
	if err := st.Close(); err != nil {
		return
	}
	var size int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			size += info.Size()
		}
		return nil
	})
	rp.lm.setMs("evstore.append_ms", appends)
	rp.lm.set("evstore.bytes_per_record", ratio(float64(size), float64(len(keys))), len(keys))
	if st, err = evstore.Open(dir, opts); err == nil {
		rp.lm.set("evstore.replay_ms", float64(st.Stats().ReplayMicros)/1000, len(keys))
		_ = st.Close()
	}
}

// memory replays qmemory.Lookup over the measured questions against a
// memory taught the same canonical answers, and the two retrieval
// primitives under it.
func (rp *replayer) memory(taught, asked []item) {
	mem, err := qmemory.New(qmemory.Options{})
	if err != nil {
		return
	}
	defer mem.Close()
	var docs []string
	for _, it := range taught {
		db, ok := rp.corpus.DB(it.ex.DB)
		if !ok {
			continue
		}
		if res, err := db.Engine.Exec(it.sql); err == nil {
			mem.Admit(it.ex.DB, it.ex.Question, it.evidence, it.sql, qmemory.Fingerprint(res.Rows))
			docs = append(docs, it.ex.Question)
		}
	}
	asked = sample(asked, rp.cap(replayItems))
	model, idx := embed.NewModel(), bm25.New(docs)
	var lookup, emb, topk []time.Duration
	for _, it := range asked {
		q := it.ex.Question
		lookup = append(lookup, rp.time("qmemory.lookup", func() { mem.Lookup(it.ex.DB, q) }))
		emb = append(emb, rp.time("embed.embed", func() { model.Embed(q) }))
		topk = append(topk, rp.time("bm25.topk", func() { idx.TopK(q, 8) }))
	}
	rp.lm.setMs("qmemory.lookup_ms", lookup)
	rp.lm.setMs("embed.embed_ms", emb)
	rp.lm.setMs("bm25.topk_ms", topk)
}

func examplesOf(items []item) []dataset.Example {
	out := make([]dataset.Example, len(items))
	for i, it := range items {
		out[i] = it.ex
	}
	return out
}

func (w *served) replay(rec *recorder, lm *layerMetrics) {
	rp := &replayer{rec: rec, lm: lm, corpus: w.corpus, smoke: w.opt.smoke}
	items := itemsOf(w.qs, w.last)
	rp.generate(items)
	rp.engine(items, false)
	keys, entries := rp.evidence(examplesOf(items), 0)
	if w.st.router != nil {
		rp.store(w.dir, evstore.Manifest(w.corpus.Name, w.opt.corpusSeed), keys, entries)
	}
	if len(w.teach) > 0 {
		rp.memory(itemsOf(w.teach, w.taught), items)
	}
}

func (w *cold) replay(rec *recorder, lm *layerMetrics) {
	rp := &replayer{rec: rec, lm: lm, corpus: w.corpus, smoke: w.opt.smoke}
	items := itemsOf(w.qs, w.last)
	rp.generate(items)
	rp.engine(items, false)
	keys, entries := rp.evidence(examplesOf(items), llmLatency)
	rp.store(w.dir, evstore.Manifest(w.corpus.Name, w.opt.corpusSeed), keys, entries)
}

// replay for the offline loop: its generate and score calls are already
// spans of the traced rounds; the engine and the evidence that set-up
// generated are replayed on the answers of the serving generator.
func (w *offline) replay(rec *recorder, lm *layerMetrics) {
	rp := &replayer{rec: rec, lm: lm, corpus: w.env.BIRD, smoke: w.opt.smoke}
	gen, err := server.GeneratorFor(generatorName, llm.NewSimulator())
	if err != nil {
		return
	}
	var items []item
	for _, e := range sample(w.examples(), rp.cap(replayItems)) {
		db, ok := w.env.BIRD.DB(e.DB)
		if !ok {
			continue
		}
		if sql, err := gen.Generate(texttosql.Task{Example: e, DB: db, Evidence: w.evidence[e.ID]}); err == nil {
			items = append(items, item{ex: e, evidence: w.evidence[e.ID], sql: sql})
		}
	}
	rp.engine(items, true)
	rp.evidence(examplesOf(items), 0)
}
