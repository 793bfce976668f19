package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/llm"
)

func TestPooledPercentilesAndTenBeyondRule(t *testing.T) {
	// 384 samples 1..384: the smallest pool a full run produces.
	pool := make([]float64, 384)
	for i := range pool {
		pool[i] = float64(i + 1)
	}
	if v, beyond := percentile(pool, 0.50); v != 192 || beyond != 192 {
		t.Errorf("p50 = %v with %d beyond, want 192 with 192", v, beyond)
	}
	if v, beyond := percentile(pool, 0.95); v != 365 || beyond != 19 {
		t.Errorf("p95 = %v with %d beyond, want 365 with 19", v, beyond)
	}
	if _, beyond := percentile(pool, 0.99); beyond >= minBeyond {
		t.Errorf("p99 of 384 samples has %d beyond; the rule should rule it out", beyond)
	}
	if p := supportedPercentile(384, 0.95); p != 0.95 {
		t.Errorf("384 samples support p95, got p%.1f", 100*p)
	}
	if p := supportedPercentile(384, 0.99); p >= 0.99 {
		t.Errorf("384 samples do not support p99, got p%.1f", 100*p)
	}
	// 48 samples (one smoke round of bird_cold): the tail metric drops
	// to the percentile that still has ten samples beyond it.
	p := supportedPercentile(48, 0.95)
	if _, beyond := percentile(pool[:48], p); beyond < minBeyond || p >= 0.95 {
		t.Errorf("48 samples: p%.1f leaves %d beyond", 100*p, beyond)
	}
	if p := supportedPercentile(12, 0.95); p != 0.5 {
		t.Errorf("a pool too small for any tail falls back to the median, got p%.1f", 100*p)
	}
	if v, _ := percentile(nil, 0.5); v != 0 {
		t.Errorf("empty pool: %v", v)
	}
}

// syntheticRound builds a round of n ops that took wall, each op lat.
func syntheticRound(n int, wall, lat time.Duration) roundResult {
	r := roundResult{ops: make([]opResult, n), wall: wall, cpu: wall / 2, allocB: uint64(n) * 2048, mallocs: uint64(n) * 7, llmCalls: n, llmTokens: 100 * n}
	for i := range r.ops {
		r.ops[i] = opResult{latency: lat, correct: i%2 == 0}
	}
	return r
}

func TestRoundEstimatorsAndAbandonedAccounting(t *testing.T) {
	res := &result{sp: spec{name: "w"}}
	// Five rounds at 100, 125, 200, 250 and 400 op/s; the last abandons 20
	// of its 100 ops after 0.2 s.
	res.rounds = []roundResult{
		syntheticRound(100, time.Second, 5*time.Millisecond),
		syntheticRound(100, 800*time.Millisecond, 4*time.Millisecond),
		syntheticRound(100, 500*time.Millisecond, 3*time.Millisecond),
		syntheticRound(100, 400*time.Millisecond, 2*time.Millisecond),
		syntheticRound(100, 200*time.Millisecond, time.Millisecond),
	}
	for i := 80; i < 100; i++ {
		res.rounds[4].ops[i] = opResult{class: classAbandoned}
	}
	// Allocation counts of the rounds: 2, 2, 2, 2 and 6 KiB per op.
	res.rounds[4].allocB *= 3
	res.endToEnd(value{1.5, 3}, 10)
	e := res.e2e
	if got := e["qps"].v; got != 250 {
		t.Errorf("qps = %v, want the second best of five rounds (the best is 80 answered / 0.2 s: abandoned ops are not completed ops)", got)
	}
	if got := e["p50_ms"]; got.v != 2 || got.n != 480 {
		t.Errorf("p50_ms = %+v, want the second best round's 2 ms, resting on the 480 answered ops", got)
	}
	if got := e["cpu_ms_per_op"].v; got != 2 {
		t.Errorf("cpu_ms_per_op = %v, want the second smallest of (5, 4, 2.5, 2, 1)", got)
	}
	if got := e["alloc_kb_per_op"].v; got != 2 {
		t.Errorf("alloc_kb_per_op = %v, want the median over rounds of (2, 2, 2, 2, 6)", got)
	}
	if got := e["allocs_per_op"].v; got != 7 {
		t.Errorf("allocs_per_op = %v, want 7", got)
	}
	if got := e["ok_rate"]; math.Abs(got.v-480.0/500) > 1e-12 || got.n != 500 {
		t.Errorf("ok_rate = %+v: abandoned ops count as attempted and failed", got)
	}
	if got := e["ex"].v; math.Abs(got-240.0/500) > 1e-12 {
		t.Errorf("ex = %v: abandoned ops count as wrong", got)
	}
	if got := e["llm_calls_per_op"].v; got != 1 {
		t.Errorf("llm_calls_per_op = %v", got)
	}
	if e["setup_s"] != (value{1.5, 3}) || e["heap_mb"].v != 10 {
		t.Errorf("setup_s/heap_mb not passed through: %+v %+v", e["setup_s"], e["heap_mb"])
	}
	for _, m := range endToEnd {
		if _, ok := e[m.Name]; !ok {
			t.Errorf("end-to-end metric %s not computed", m.Name)
		}
	}
	for _, c := range []struct {
		xs          []float64
		lower, want float64
	}{
		{nil, 0, 0},
		{[]float64{7}, 7, 7},
		{[]float64{4, 1, 3, 2}, 1, 4},                    // up to four rounds: the best
		{[]float64{5, 1, 4, 2, 3}, 2, 4},                 // five to eight: the second best
		{[]float64{9, 8, 7, 6, 5, 4, 3, 2, 1, 10}, 3, 8}, // nine to twelve: the third
	} {
		if got := bestQuartile(c.xs, true); got != c.lower {
			t.Errorf("bestQuartile(%v, lower is better) = %v, want %v", c.xs, got, c.lower)
		}
		if got := bestQuartile(c.xs, false); got != c.want {
			t.Errorf("bestQuartile(%v, higher is better) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median(5,1,3) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}

func TestRunRoundAbandonsWhatItCannotIssueInTime(t *testing.T) {
	order := make([]int, 50)
	r := runRound(2, order, 30*time.Millisecond, llm.NewSimulator(), func(_, _, _ int) opResult {
		time.Sleep(10 * time.Millisecond)
		return opResult{latency: 10 * time.Millisecond}
	})
	answered := r.answered()
	if answered == 0 || answered == len(order) {
		t.Fatalf("answered %d of %d: expected the deadline to cut the round short", answered, len(order))
	}
	if r.failed() != len(order)-answered {
		t.Errorf("failed = %d, want the %d unissued ops", r.failed(), len(order)-answered)
	}
	for _, op := range r.ops[answered+2:] {
		if op.class != classAbandoned {
			t.Fatalf("an unissued op is classed %q", op.class)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "router", Start: 0, End: 100},
		// Two hedged attempts overlap on [30,60]; the second outlives
		// the parent; the third is disjoint.
		{ID: 2, Parent: 1, Name: "attempt", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "attempt", Start: 30, End: 120},
		{ID: 4, Parent: 2, Name: "leaf", Start: 20, End: 25},
		{ID: 5, Name: "alone", Start: 5, End: 9},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 10, // 100 - |[10,100]|
		2: 45, // 50 - 5
		3: 90,
		4: 5,
		5: 4,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	// Children that tile the parent leave it no self time; a child
	// entirely outside it takes nothing.
	tiled := []span{
		{ID: 1, Start: 0, End: 30},
		{ID: 2, Parent: 1, Start: 0, End: 10},
		{ID: 3, Parent: 1, Start: 10, End: 30},
		{ID: 4, Parent: 1, Start: 40, End: 50},
	}
	if got := selfTimes(tiled)[1]; got != 0 {
		t.Errorf("tiled parent self time = %d, want 0", got)
	}
}

func TestRecorderParentsByName(t *testing.T) {
	rec := newRecorder()
	c := rec.begin(spanClient, "r1")
	rt := rec.begin(spanRouter, "r1", spanClient)
	a := rec.begin(spanServer, "r1", spanRouter, spanClient)
	b := rec.begin(spanServer, "r1", spanRouter, spanClient) // a hedge: sibling of a, not its child
	direct := rec.begin(spanServer, "r2", spanRouter, spanClient)
	for _, id := range []int64{b, a, rt, c, direct} {
		rec.end(id)
	}
	got := rec.snapshot()
	if got[rt-1].Parent != c || got[a-1].Parent != rt || got[b-1].Parent != rt {
		t.Errorf("parents: router under %d, attempts under %d and %d", got[rt-1].Parent, got[a-1].Parent, got[b-1].Parent)
	}
	if got[direct-1].Parent != 0 {
		t.Errorf("a request with no open parent is a root, got parent %d", got[direct-1].Parent)
	}
	h, ok := rec.last("r1", spanServer)
	if !ok || h.ID != b {
		t.Errorf("last server span of r1 = %+v", h)
	}
	addTimingSpans(rec, "r1", api.QueryTiming{EvidenceMicros: 3, ExecuteMicros: 2})
	kids := 0
	for _, s := range rec.snapshot() {
		if s.Parent == b {
			kids++
			if s.Start < h.Start {
				t.Errorf("timing span %s starts before its handler", s.Name)
			}
		}
	}
	if kids != len(timingSpans) {
		t.Errorf("%d timing spans under the handler, want %d", kids, len(timingSpans))
	}
	var off *recorder // tracing off: every method is a no-op
	off.end(off.begin("x", "y"))
	off.forget("y")
	if off.snapshot() != nil {
		t.Error("nil recorder recorded something")
	}
}

func TestClassification(t *testing.T) {
	envelope := func(code string) []byte {
		b, _ := json.Marshal(api.Error{Error: "x", Code: code})
		return b
	}
	cases := []struct {
		status int
		body   []byte
		want   string
	}{
		{422, envelope(api.CodeUnprocessable), "unprocessable"},
		{503, envelope(api.CodeOverCapacity), "over_capacity"},
		{404, envelope(api.CodeNotFound), "not_found"},
		{499, envelope(api.CodeClientClosed), "client_closed"},
		{502, []byte("<html>bad gateway</html>"), "http_502"},
		{500, []byte(`{"error":"no code"}`), "http_500"},
	}
	for _, c := range cases {
		if got := classify(c.status, c.body); got != c.want {
			t.Errorf("classify(%d, %s) = %q, want %q", c.status, c.body, got, c.want)
		}
	}
	transport := []struct {
		err  error
		want string
	}{
		{fmt.Errorf("dial: %w", syscall.ECONNREFUSED), "transport_refused"},
		{fmt.Errorf("read: %w", syscall.ECONNRESET), "transport_reset"},
		{io.ErrUnexpectedEOF, "transport_reset"},
		{os.ErrDeadlineExceeded, "transport_timeout"},
		{errors.New("something else"), "transport_error"},
	}
	for _, c := range transport {
		if got := classifyTransport(c.err); got != c.want {
			t.Errorf("classifyTransport(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestInjected503FailsTheRunByName puts a server that sheds every third
// request in front of the client: the run must fail and name the code.
func TestInjected503FailsTheRunByName(t *testing.T) {
	n := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n++
		switch n % 3 {
		case 0:
			w.Header().Set("Retry-After", "1")
			api.WriteError(w, http.StatusServiceUnavailable, api.CodeOverCapacity, "server at capacity")
		case 1:
			api.WriteError(w, http.StatusUnprocessableEntity, api.CodeUnprocessable, "generated SQL does not execute")
		default:
			api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "question not in the loaded corpus")
		}
	}))
	defer srv.Close()
	sp, _ := specOf("bird_warm")
	b := base{sp: sp}
	b.reset()
	c := newClient(srv.URL)
	defer c.close()
	r := runRound(1, make([]int, 9), time.Minute, b.sim, func(_, seq, _ int) opResult {
		return c.query([]byte(`{}`), reqID("bird_warm", 0, seq), nil)
	})
	b.settle(&r, nil, nil, questionsOf(make([]dataset.Example, 1)), make([]*answer, 1), false)
	res := &result{sp: sp, aud: b.aud, rounds: []roundResult{r}}
	res.endToEnd(value{1, 1}, 1)
	rep := &report{results: []*result{res}, problems: res.verify()}
	if got := b.aud.undeclared(); len(got) != 2 || got[0] != "not_found" || got[1] != "over_capacity" {
		t.Fatalf("undeclared classes = %v, want not_found and over_capacity (unprocessable is declared)", got)
	}
	if rep.exitCode() == 0 {
		t.Error("a run with undeclared failures exits 0")
	}
	joined := strings.Join(rep.problems, "\n")
	for _, code := range []string{`"over_capacity"`, `"not_found"`} {
		if !strings.Contains(joined, code) {
			t.Errorf("problems do not name %s:\n%s", code, joined)
		}
	}
	if strings.Contains(joined, "unprocessable") {
		t.Errorf("a declared class is reported as a problem:\n%s", joined)
	}
	var out bytes.Buffer
	if err := rep.printDriverLine(&out); err != nil {
		t.Fatal(err)
	}
	var line driverLine
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Attempted != 9 || line.Failed != 6 {
		t.Errorf("driver line = %+v, want incorrect, 9 attempted, 6 failed undeclared", line)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesDeclarations holds BENCHMARK.json and the
// program's own metric and workload tables in step.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	driven := driverSpecs()
	if len(decl.Workloads) != len(driven) {
		t.Fatalf("%d workloads declared, %d marked driver in the program", len(decl.Workloads), len(driven))
	}
	for i, w := range decl.Workloads {
		if w.Name != driven[i].name || w.Why != driven[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, driven[i].name, driven[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d implemented", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
			if !metricName.MatchString(got[i].Name) {
				t.Errorf("%s name %q is not well-formed", kind, got[i].Name)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, driverPerLayer())
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs the tier-1 configuration of the whole benchmark — six
// workloads, one round of one pass, a 10k-row corpus, one traced round
// and the layer replay — on two seeds, and checks that every declared
// metric of every workload came out as a finite number.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up the whole stack six times")
	}
	for _, seed := range []uint64{7, 11} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			p := plan{
				opt:         options{seed: seed, corpusSeed: seed, smoke: true, scratch: t.TempDir()},
				rounds:      1,
				setups:      1,
				traceRounds: 1,
			}
			for _, s := range specs {
				p.workloads = append(p.workloads, s.name)
			}
			rep, err := execute(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.checkGolden(); err != nil {
				t.Fatal(err)
			}
			for _, pr := range rep.problems {
				t.Errorf("problem: %s", pr)
			}
			if len(rep.results) != len(specs) {
				t.Fatalf("%d results", len(rep.results))
			}
			for _, res := range rep.results {
				for _, m := range endToEnd {
					v, ok := res.e2e[m.Name]
					if !ok || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
						t.Errorf("%s %s = %+v (present %v)", res.sp.name, m.Name, v, ok)
					}
					// At full size no end-to-end metric is ever 0; a smoke
					// corpus can be small enough that no question falls
					// through the memory to the LLM.
					if zeroOK := strings.HasPrefix(m.Name, "llm_"); ok && (v.v < 0 || v.v == 0 && !zeroOK) {
						t.Errorf("%s %s = %v", res.sp.name, m.Name, v.v)
					}
				}
				for _, m := range perLayer {
					v, ok := res.layers.vals[m.Name]
					if !ok {
						// Not on this workload's path: reported as 0, n=0.
						continue
					}
					if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
						t.Errorf("%s %s = %+v", res.sp.name, m.Name, v)
					}
				}
				for name := range res.layers.vals {
					if !metricName.MatchString(name) {
						t.Errorf("%s reports a metric named %q", res.sp.name, name)
					}
					declared := false
					for _, m := range perLayer {
						declared = declared || m.Name == name
					}
					if !declared {
						t.Errorf("%s reports undeclared per-layer metric %s", res.sp.name, name)
					}
				}
			}
			if a, b := rep.results[0], rep.results[4]; a.digest != b.digest {
				t.Errorf("bird_warm answered %s, fleet3_warm %s: the same questions must get the same SQL", a.digest, b.digest)
			}
			var out bytes.Buffer
			rep.printHeader(&out)
			rep.printEndToEnd(&out)
			rep.printLayers(&out)
			for _, want := range []string{"gomaxprocs=", "numcpu=", "ops/round=", "residual="} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("report lacks %q", want)
				}
			}
		})
	}
}
