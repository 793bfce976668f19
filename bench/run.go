package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// plan is one execution of a set of workloads.
type plan struct {
	opt       options
	workloads []string
	rounds    int // untraced measured rounds per workload
	setups    int // how many times at least each workload is set up; the last one is measured
	// setupBudget > 0 repeats the set-up beyond setups, up to maxSetups
	// times, while all of them together have taken less than this.
	setupBudget time.Duration
	// traceRounds > 0 adds that many rounds with spans on after the
	// untraced ones, then the layer replay.
	traceRounds int
	progress    io.Writer // nil is silent
}

// result is everything one workload produced.
type result struct {
	sp          spec
	opsPerRound int
	rounds      []roundResult // untraced
	traced      []roundResult
	e2e         map[string]value
	p95As       float64 // the percentile p95_ms actually is (lower on small pools)
	p99         value   // informational, n >= 1000 only
	layers      *layerMetrics
	aud         *audit
	digest      string
	// The layer self times along a request's path, summed as medians (to
	// set against the traced p50) and as means per request (against the
	// traced mean latency).
	selfMedians, tracedP50 float64
	selfMeans, tracedMean  float64
}

// report is one execution's results plus what was wrong with it.
type report struct {
	plan     plan
	results  []*result
	spans    []span
	problems []string // empty means the run is correct
	wall     time.Duration
}

func (p plan) say(format string, args ...any) {
	if p.progress != nil {
		fmt.Fprintf(p.progress, format+"\n", args...)
	}
}

// execute sets every workload up, runs the rounds interleaved (W1 W2 ...
// W6, W1 ...) so machine drift hits all workloads alike, and tears down.
func execute(p plan) (*report, error) {
	start := time.Now()
	rep := &report{plan: p}
	var wls []workload
	defer func() {
		for _, w := range wls {
			w.teardown()
		}
	}()
	setupSamples := make([][]float64, len(p.workloads))
	for i, name := range p.workloads {
		w, err := newWorkload(name, p.opt)
		if err != nil {
			return nil, err
		}
		for s, t0 := 0, time.Now(); s < p.setups || s < maxSetups && time.Since(t0) < p.setupBudget; s++ {
			if s > 0 {
				w.teardown()
			}
			if err := w.setup(); err != nil {
				return nil, err
			}
			p.say("# %s: set-up %d took %.3fs", name, s+1, w.setupSeconds())
			setupSamples[i] = append(setupSamples[i], w.setupSeconds())
		}
		wls = append(wls, w)
		rep.results = append(rep.results, &result{sp: w.spec(), opsPerRound: w.opsPerRound(), aud: w.audit()})
	}

	for r := range p.rounds {
		for i, w := range wls {
			rr := w.round(r, nil)
			rep.results[i].rounds = append(rep.results[i].rounds, rr)
			lat := rr.latenciesMs()
			p50, _ := percentile(lat, 0.5)
			p95, _ := percentile(lat, 0.95)
			p.say("# round %d/%d %-14s wall=%.3fs cpu=%.3fs p50=%.3fms p95=%.3fms ops=%d failed=%d correct=%d llm=%d/%d", r+1, p.rounds, w.spec().name, rr.wall.Seconds(), rr.cpu.Seconds(), p50, p95, len(rr.ops), rr.failed(), rr.correct(), rr.llmCalls, rr.llmTokens)
		}
	}

	var rec *recorder
	if p.traceRounds > 0 {
		rec = newRecorder()
		for r := range p.traceRounds {
			for i, w := range wls {
				rr := w.round(p.rounds+r, rec)
				rep.results[i].traced = append(rep.results[i].traced, rr)
				p.say("# traced round %d/%d %-14s %6.2fs", r+1, p.traceRounds, w.spec().name, rr.wall.Seconds())
			}
		}
	}

	for i, w := range wls {
		res := rep.results[i]
		res.endToEnd(value{median(setupSamples[i]) + w.perRoundSetup(), len(setupSamples[i])}, w.heapMiB())
		res.digest = digestOf(res.aud.answers)
		if rec != nil {
			p.say("# %s: layer replay", res.sp.name)
			res.layers = newLayerMetrics()
			w.layerCounters(res.traced, res.layers)
			w.replay(rec, res.layers)
			if q := res.e2e["qps"].v; q > 0 {
				res.layers.set("harness.trace_overhead_pct", 100*(q-quartileQPS(res.traced))/q, len(res.traced))
			}
		}
		rep.problems = append(rep.problems, res.verify()...)
	}
	if rec != nil {
		rep.spans = rec.snapshot()
		self := selfTimes(rep.spans)
		for _, res := range rep.results {
			res.spanMetrics(rep.spans, self)
		}
	}
	rep.checkSameAnswers("bird_warm", "fleet3_warm")
	rep.wall = time.Since(start)
	return rep, nil
}

// checkSameAnswers holds two workloads that ask the same questions to the
// same SQL for each, when both ran.
func (rep *report) checkSameAnswers(a, b string) {
	var ra, rb *result
	for _, res := range rep.results {
		switch res.sp.name {
		case a:
			ra = res
		case b:
			rb = res
		}
	}
	if ra != nil && rb != nil && ra.digest != rb.digest {
		rep.problems = append(rep.problems, fmt.Sprintf("%s answers digest %s but %s %s: the same questions got different SQL", a, ra.digest, b, rb.digest))
	}
}

// exitCode is 0 only for a run with nothing wrong.
func (rep *report) exitCode() int {
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

func (r *roundResult) correct() int {
	n := 0
	for i := range r.ops {
		if r.ops[i].correct {
			n++
		}
	}
	return n
}

func (r *roundResult) answered() int {
	n := 0
	for i := range r.ops {
		if r.ops[i].class != classAbandoned {
			n++
		}
	}
	return n
}

// perRound evaluates f on every round.
func perRound(rounds []roundResult, f func(r *roundResult) float64) []float64 {
	out := make([]float64, len(rounds))
	for i := range rounds {
		out[i] = f(&rounds[i])
	}
	return out
}

func roundQPS(r *roundResult) float64 { return float64(r.answered()) / r.wall.Seconds() }

// latenciesMs is the ascending client-side latency of a round's answered ops.
func (r *roundResult) latenciesMs() []float64 {
	out := make([]float64, 0, len(r.ops))
	for k := range r.ops {
		if op := &r.ops[k]; op.class != classAbandoned {
			out = append(out, ms(op.latency))
		}
	}
	sort.Float64s(out)
	return out
}

// quartileQPS is the timing estimator applied to throughput: see endToEnd.
func quartileQPS(rounds []roundResult) float64 {
	return bestQuartile(perRound(rounds, roundQPS), false)
}

// endToEnd derives the twelve end-to-end metrics from the untraced
// rounds.
//
// A timing metric (qps, p50_ms, p95_ms, cpu_ms_per_op) is computed per
// round and reported as the quartile of the rounds nearest the best one
// (bestQuartile), each metric taking its own. The machine this was sized on
// shares its cores: other tenants slow a process by up to a third for
// seconds at a time, so most of what moves a round makes it slower, and
// the median over rounds estimates the code plus the neighbours. The best
// round alone is no better: now and then a round is a tenth to a fifth
// faster than the median one, and across runs the best round spread more
// than the median did wherever the jitter was two-sided (memory2k_para). The quartile next to the best end
// ignores a lucky round in four and three disturbed ones in four.
// Percentiles are taken per round; the pool over all rounds decides which
// percentile the tail metric may be (minBeyond).
//
// A count metric (allocations, LLM calls and tokens, ok_rate, ex) is a
// total over a total, or the median over rounds: they repeat to a
// fraction of a percent.
func (res *result) endToEnd(setup value, heapMB float64) {
	var attempted, failed, correct, calls, tokens, answered int
	for i := range res.rounds {
		r := &res.rounds[i]
		attempted += len(r.ops)
		answered += r.answered()
		failed += r.failed()
		correct += r.correct()
		calls += r.llmCalls
		tokens += r.llmTokens
	}
	perOp := func(total func(r *roundResult) float64) []float64 {
		return perRound(res.rounds, func(r *roundResult) float64 { return total(r) / float64(len(r.ops)) })
	}
	res.p95As = supportedPercentile(answered, 0.95)
	lats := make([][]float64, len(res.rounds))
	for i := range res.rounds {
		lats[i] = res.rounds[i].latenciesMs()
	}
	quantile := func(p float64) float64 { // per round, then over rounds
		per := make([]float64, len(lats))
		for i, l := range lats {
			per[i], _ = percentile(l, p)
		}
		return bestQuartile(per, true)
	}
	if answered >= 1000 {
		res.p99 = value{quantile(0.99), answered}
	}
	nr, n := len(res.rounds), float64(attempted)
	res.e2e = map[string]value{
		"setup_s":           setup,
		"qps":               {quartileQPS(res.rounds), nr},
		"p50_ms":            {quantile(0.50), answered},
		"p95_ms":            {quantile(res.p95As), answered},
		"cpu_ms_per_op":     {bestQuartile(perOp(func(r *roundResult) float64 { return ms(r.cpu) }), true), nr},
		"alloc_kb_per_op":   {median(perOp(func(r *roundResult) float64 { return float64(r.allocB) / 1024 })), nr},
		"allocs_per_op":     {median(perOp(func(r *roundResult) float64 { return float64(r.mallocs) })), nr},
		"heap_mb":           {heapMB, 1},
		"ok_rate":           {ratio(float64(attempted-failed), n), attempted},
		"llm_calls_per_op":  {ratio(float64(calls), n), attempted},
		"llm_tokens_per_op": {ratio(float64(tokens), n), attempted},
		"ex":                {ratio(float64(correct), n), attempted},
	}
}

// verify applies the run-level output checks and names what failed.
func (res *result) verify() []string {
	var out []string
	name := res.sp.name
	for _, c := range res.aud.undeclared() {
		out = append(out, fmt.Sprintf("%s: %d ops failed with undeclared class %q", name, res.aud.classes[c], c))
	}
	var rules []string
	for v := range res.aud.violations {
		rules = append(rules, v)
	}
	sort.Strings(rules)
	for _, v := range rules {
		out = append(out, fmt.Sprintf("%s: output check %s broken %d times", name, v, res.aud.violations[v]))
	}
	return out
}
