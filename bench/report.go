package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
)

// printHeader records what the numbers were measured on.
func (rep *report) printHeader(w io.Writer) {
	p := rep.plan
	fmt.Fprintf(w, "bench: %s numcpu=%d gomaxprocs=%d seed=%d corpus-seed=%d clients=%d (closed loop, one keep-alive connection each) rounds=%d traced-rounds=%d set-ups>=%d smoke=%v wall=%.1fs\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), p.opt.seed, p.opt.corpusSeed, clients, p.rounds, p.traceRounds, p.setups, p.opt.smoke, rep.wall.Seconds())
	for _, res := range rep.results {
		fmt.Fprintf(w, "  %-14s ops/round=%d  %s\n", res.sp.name, res.opsPerRound, res.sp.why)
	}
}

// printEndToEnd prints every end-to-end metric of every workload by name
// and unit, with the sample count it rests on.
func (rep *report) printEndToEnd(w io.Writer) {
	fmt.Fprintf(w, "\nend-to-end (untraced rounds; qps, p50, p95 and cpu are the best quartile over rounds, counts over all rounds)\n")
	fmt.Fprintf(w, "%-14s %-18s %14s %-6s %8s\n", "workload", "metric", "value", "unit", "n")
	for _, res := range rep.results {
		for _, m := range endToEnd {
			v := res.e2e[m.Name]
			note := ""
			if m.Name == "p95_ms" && res.p95As < 0.95 {
				note = fmt.Sprintf("  (p%.0f: fewer than %d samples beyond p95)", 100*res.p95As, minBeyond)
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %-6s %8d%s\n", res.sp.name, m.Name, v.v, m.Unit, v.n, note)
		}
		if res.p99.n > 0 {
			fmt.Fprintf(w, "%-14s %-18s %14.4f %-6s %8d  (information only)\n", res.sp.name, "p99_ms", res.p99.v, "ms", res.p99.n)
		}
		fmt.Fprintf(w, "%-14s %-18s %14.4f %-6s %8d\n", res.sp.name, "error_rate", 1-res.e2e["ok_rate"].v, "ratio", res.e2e["ok_rate"].n)
		classes := make([]string, 0, len(res.aud.classes))
		for c := range res.aud.classes {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			kind := "declared"
			if !res.aud.expected[c] {
				kind = "UNDECLARED"
			}
			fmt.Fprintf(w, "%-14s   failed as %-22s %6d of %d  (%s)\n", res.sp.name, c, res.aud.classes[c], res.aud.attempted, kind)
		}
		fmt.Fprintf(w, "%-14s   answers digest %s\n", res.sp.name, res.digest)
	}
}

// printLayers prints the per-layer table of the traced run and, per
// workload, the layer self times against the traced p50.
func (rep *report) printLayers(w io.Writer) {
	if rep.plan.traceRounds == 0 {
		return
	}
	fmt.Fprintf(w, "\nper-layer (traced rounds and single-goroutine layer replay; 0 with n=0: layer not on this workload's path)\n")
	fmt.Fprintf(w, "%-14s %-38s %14s %-6s %8s\n", "workload", "metric", "value", "unit", "n")
	for _, res := range rep.results {
		for _, m := range perLayer {
			v := res.layers.vals[m.Name]
			fmt.Fprintf(w, "%-14s %-38s %14.4f %-6s %8d\n", res.sp.name, m.Name, v.v, m.Unit, v.n)
		}
	}
	fmt.Fprintf(w, "\nlayer self times along a request (client, router, server residual, the five timing phases; generate and score offline) against the traced latency\n")
	for _, res := range rep.results {
		resid := res.tracedP50 - res.selfMedians
		fmt.Fprintf(w, "%-14s medians: sum(layer self)=%.4f ms  traced p50=%.4f ms  residual=%.4f ms (%.1f%% of p50)\n",
			res.sp.name, res.selfMedians, res.tracedP50, resid, 100*ratio(resid, res.tracedP50))
		resid = res.tracedMean - res.selfMeans
		fmt.Fprintf(w, "%-14s means:   sum(layer self)=%.4f ms  traced mean=%.4f ms  residual=%.4f ms (%.1f%% of mean)\n",
			res.sp.name, res.selfMeans, res.tracedMean, resid, 100*ratio(resid, res.tracedMean))
	}
}

func (rep *report) printProblems(w io.Writer) {
	for _, p := range rep.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
}

// driverLine is the one JSON object the benchmark driver reads from the
// last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverLine reports one workload: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one. Failed counts
// ops that failed in a way the workload did not declare; declared
// failures (SQL from the simulated model that does not execute) are a
// modelled outcome and show in ok_rate and ex.
func (rep *report) printDriverLine(w io.Writer) error {
	res := rep.results[0]
	line := driverLine{
		Correct:   len(rep.problems) == 0,
		Attempted: res.aud.attempted,
		Failed:    res.aud.failedUndeclared(),
		Metrics:   make(map[string]driverValue),
	}
	if rep.plan.traceRounds > 0 {
		for _, m := range driverPerLayer() {
			line.Metrics[m.Name] = driverValue{res.layers.vals[m.Name].v, m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.Name] = driverValue{res.e2e[m.Name].v, m.Unit}
		}
	}
	for name, v := range line.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// compareRuns prints, per metric x workload, the value of each repeat,
// the relative difference between the first two and the bound, and
// reports whether every pair agrees within its bound.
func compareRuns(w io.Writer, reps []*report) bool {
	ok := true
	fmt.Fprintf(w, "\nrepeat: first run against second, per metric x workload\n")
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for i, res := range reps[0].results {
		for _, m := range endToEnd {
			a, b := res.e2e[m.Name].v, reps[1].results[i].e2e[m.Name].v
			diff := math.Abs(ratio(b-a, a))
			verdict := ""
			if diff > m.Bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %8.2f%% %6.1f%%%s\n", res.sp.name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok
}
