package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/llm"
	"repro/internal/seed"
	"repro/internal/sqlengine"
	"repro/internal/texttosql"
)

var (
	corpusOnce sync.Once
	birdCorpus *dataset.Corpus
)

func testCorpus(t *testing.T) *dataset.Corpus {
	t.Helper()
	corpusOnce.Do(func() { birdCorpus = dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7}) })
	return birdCorpus
}

func quietLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

// newTestServer stands up a full serving stack over the shared BIRD corpus.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Corpora: []*dataset.Corpus{testCorpus(t)},
		Client:  llm.NewSimulator(),
		Variant: seed.VariantGPT,
		Logger:  quietLogger(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// gatedClient is an llm.Client whose completions wait until gate closes:
// a request that generates evidence stays in flight until the test lets
// it go.
type gatedClient struct {
	llm.Client
	gate chan struct{}
}

func (c gatedClient) Complete(req llm.Request) (llm.Response, error) {
	<-c.gate
	return c.Client.Complete(req)
}

// newGatedServer is newTestServer over a gatedClient. The returned release
// opens the gate; it is idempotent, and runs at cleanup too, so a failed
// test never leaves the server's Close waiting on a held generation.
func newGatedServer(t *testing.T, mutate func(*Config)) (srv *Server, ts *httptest.Server, release func()) {
	t.Helper()
	gate := make(chan struct{})
	srv, ts = newTestServer(t, func(cfg *Config) {
		cfg.Client = gatedClient{Client: cfg.Client, gate: gate}
		if mutate != nil {
			mutate(cfg)
		}
	})
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	return srv, ts, release
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHealthzAndDBs(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/dbs")
	if err != nil {
		t.Fatal(err)
	}
	var dbs struct {
		DBs []api.DBInfo `json:"dbs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dbs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(dbs.DBs) != len(testCorpus(t).DBs) {
		t.Fatalf("/v1/dbs lists %d databases, corpus has %d", len(dbs.DBs), len(testCorpus(t).DBs))
	}
	for _, info := range dbs.DBs {
		if info.Tables == 0 || info.Examples == 0 {
			t.Errorf("db %s listed with %d tables / %d examples", info.Name, info.Tables, info.Examples)
		}
	}
}

func TestQueryServesEvidenceSQLAndRows(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	e := testCorpus(t).Dev[0]
	resp, data := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
	if resp.StatusCode != 200 {
		t.Fatalf("query = %d: %s", resp.StatusCode, data)
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.ExampleID != e.ID {
		t.Errorf("resolved example %s, want %s", qr.ExampleID, e.ID)
	}
	if qr.Evidence == "" || qr.SQL == "" {
		t.Errorf("response missing evidence (%q) or SQL (%q)", qr.Evidence, qr.SQL)
	}
	if len(qr.Columns) == 0 {
		t.Error("response has no columns")
	}

	// Question lookup is whitespace- and case-tolerant, and the example
	// ID works as a direct key.
	resp, _ = postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: "  " + e.Question + "  "})
	if resp.StatusCode != 200 {
		t.Errorf("whitespace-padded question = %d", resp.StatusCode)
	}
	resp, data = postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, ID: e.ID})
	if resp.StatusCode != 200 {
		t.Errorf("lookup by id = %d: %s", resp.StatusCode, data)
	}

	// The session registry loaded exactly one session for all of this.
	if loaded := srv.reg.Loaded(); loaded != 1 {
		t.Errorf("sessions loaded = %d, want 1", loaded)
	}
}

func TestQueryErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, nil)
	e := testCorpus(t).Dev[0]

	resp, _ := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: "no_such_db", Question: e.Question})
	if resp.StatusCode != 404 {
		t.Errorf("unknown db = %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: "what is the airspeed velocity of an unladen swallow"})
	if resp.StatusCode != 404 {
		t.Errorf("unknown question = %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader([]byte("{not json")))
	req.Header.Set("Content-Type", "application/json")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != 400 {
		t.Errorf("malformed body = %d, want 400", r2.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/evidence", api.QueryRequest{DB: e.DB})
	if resp.StatusCode != 400 {
		t.Errorf("evidence without question = %d, want 400", resp.StatusCode)
	}
}

// TestQueryRefusesOversizeBody: a request body over maxRequestBody answers
// 413 bad_request unread, and the server goes on serving.
func TestQueryRefusesOversizeBody(t *testing.T) {
	_, ts := newTestServer(t, nil)
	e := testCorpus(t).Dev[0]
	resp, data := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: strings.Repeat("x", 2<<20)})
	var env api.Error
	if err := json.Unmarshal(data, &env); resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || env.Code != api.CodeBadRequest {
		t.Fatalf("2 MiB body = %d %s, want 413 %s", resp.StatusCode, data, api.CodeBadRequest)
	}
	if resp, data = postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after the oversize body = %d: %s", resp.StatusCode, data)
	}
}

func TestRateLimitReturns429WithRetryAfter(t *testing.T) {
	_, ts := newTestServer(t, func(cfg *Config) {
		cfg.Rate = 0.001 // effectively one request, then dry for a long time
		cfg.Burst = 1
	})
	e := testCorpus(t).Dev[0]
	resp, data := postJSON(t, ts.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: e.Question})
	if resp.StatusCode != 200 {
		t.Fatalf("first request = %d: %s", resp.StatusCode, data)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: e.Question})
	if resp.StatusCode != 429 {
		t.Fatalf("second request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	// Health stays reachable under rate limiting.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Errorf("healthz under rate limit = %d", hr.StatusCode)
	}
}

func TestOverloadReturns503(t *testing.T) {
	srv, ts, release := newGatedServer(t, func(cfg *Config) {
		cfg.MaxInFlight = 1
	})
	e := testCorpus(t).Dev[0]
	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: e.Question})
		first <- resp.StatusCode
	}()
	// The first request holds the only slot until the gate opens.
	waitFor(t, "the first request to hold the slot", func() bool { return srv.adm.stats().Inflight == 1 })
	resp, _ := postJSON(t, ts.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: e.Question})
	release()
	if resp.StatusCode != 503 {
		t.Errorf("over-capacity request = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without a Retry-After header")
	}
	if code := <-first; code != 200 {
		t.Errorf("first request = %d", code)
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	h := srv.wrap(pathHealthz, false, func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != 500 {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	e := testCorpus(t).Dev[0]
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	// The route counters are read from the Prometheus text.
	sample := func(series string) float64 {
		t.Helper()
		for _, line := range strings.Split(string(prom), "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("/metrics has no %s", series)
		return 0
	}
	if n := sample(`server_requests_total{route="/v1/query"}`); n != 3 {
		t.Errorf("query route count = %v, want 3", n)
	}
	p50 := sample(`server_request_latency_us{quantile="0.5",route="/v1/query"}`)
	p99 := sample(`server_request_latency_us{quantile="0.99",route="/v1/query"}`)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("histogram quantiles look wrong: p50=%v p99=%v", p50, p99)
	}
	snap := srv.Metrics()
	ev := snap.Evidence["bird"]
	if ev.Variant != string(seed.VariantGPT) {
		t.Errorf("evidence variant = %q", ev.Variant)
	}
	if ev.CacheHits < 2 {
		t.Errorf("repeat questions produced %d evidence cache hits, want >= 2", ev.CacheHits)
	}
	pc := snap.PlanCache["bird"]
	if pc.Hits+pc.Misses == 0 {
		t.Error("plan cache saw no traffic despite executed queries")
	}
	if snap.Admission.Admitted != 3 {
		t.Errorf("admitted = %d, want 3", snap.Admission.Admitted)
	}
}

// TestQueryGoldenEquivalence is the serving acceptance test: for the same
// (db, question, variant), POST /v1/query must return exactly the
// evidence, SQL and rows the offline pipeline produces — evidence checked
// against experiments.Env's evidence service, SQL and rows against the
// same generator constructor run offline.
func TestQueryGoldenEquivalence(t *testing.T) {
	env := experiments.NewEnv(7)
	defer env.Close()
	_, ts := newTestServer(t, nil)
	offlineGen, err := GeneratorFor("codes-15b", env.Client)
	if err != nil {
		t.Fatal(err)
	}

	checked := 0
	for i := 0; i < len(env.BIRD.Dev); i += 9 {
		e := env.BIRD.Dev[i]
		resp, data := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})

		offlineEv, err := env.BIRDSeedEvidenceFor(context.Background(), seed.VariantGPT, e.DB, e.Question)
		if err != nil {
			t.Fatalf("%s: offline evidence: %v", e.ID, err)
		}
		offlineSQL, genErr := offlineGen.Generate(texttosql.Task{
			Example: e, DB: env.BIRD.DBs[e.DB], Evidence: offlineEv,
		})
		if genErr != nil {
			if resp.StatusCode == 200 {
				t.Errorf("%s: offline generation failed (%v) but serving succeeded", e.ID, genErr)
			}
			continue
		}
		offlineRes, execErr := env.BIRD.DBs[e.DB].Engine.Exec(offlineSQL)

		if execErr != nil || offlineRes.Rows == nil {
			if resp.StatusCode == 200 {
				t.Errorf("%s: offline execution failed (%v) but serving returned 200", e.ID, execErr)
			}
			continue
		}
		if resp.StatusCode != 200 {
			t.Errorf("%s: serving = %d (%s) but offline pipeline succeeded", e.ID, resp.StatusCode, data)
			continue
		}
		var qr api.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if qr.Evidence != offlineEv {
			t.Errorf("%s: evidence diverged\n  online:  %q\n  offline: %q", e.ID, qr.Evidence, offlineEv)
		}
		if qr.SQL != offlineSQL {
			t.Errorf("%s: SQL diverged\n  online:  %q\n  offline: %q", e.ID, qr.SQL, offlineSQL)
		}
		offlineRows := renderRows(offlineRes.Rows, offlineRes.Rows.Len())
		onlineRows := qr.Rows
		if onlineRows == nil {
			onlineRows = [][]any{}
		}
		if offlineRows == nil {
			offlineRows = [][]any{}
		}
		if qr.RowCount != offlineRes.Rows.Len() || !reflect.DeepEqual(onlineRows, offlineRows) {
			t.Errorf("%s: rows diverged (online %d, offline %d)", e.ID, qr.RowCount, offlineRes.Rows.Len())
		}
		if qr.Cost != offlineRes.Cost {
			t.Errorf("%s: cost diverged (online %d, offline %d)", e.ID, qr.Cost, offlineRes.Cost)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d examples fully checked — sample too thin to call it equivalence", checked)
	}
}

// TestWarmServingBeatsSerialPipeline is the load-harness acceptance test:
// at concurrency 16 on a warm evidence cache — every request a cache hit,
// so none of them is batched — serving must sustain higher QPS than
// per-request serial pipeline calls: the pre-serving status quo, where
// every request pays a fresh evidence generation with no cache and no
// concurrency. This is the paper's practical-usability claim ("generate
// once, answer cheaply ever after") measured end to end.
func TestWarmServingBeatsSerialPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("load measurement; skipped in -short")
	}
	_, ts := newTestServer(t, nil)
	corpus := testCorpus(t)
	var payloads [][]byte
	for i := 0; i < len(corpus.Dev); i += 2 {
		e := corpus.Dev[i]
		body, _ := json.Marshal(api.QueryRequest{DB: e.DB, Question: e.Question})
		payloads = append(payloads, body)
	}
	ctx := context.Background()
	// Warm pass: fill the evidence cache and build every session.
	if _, err := runLoad(ctx, loadOptions{baseURL: ts.URL, payloads: payloads, concurrency: 8}); err != nil {
		t.Fatal(err)
	}
	warm, err := runLoad(ctx, loadOptions{baseURL: ts.URL, payloads: payloads, concurrency: 16, total: 2 * len(payloads)})
	if err != nil {
		t.Fatal(err)
	}
	// A few dev examples legitimately 422 (the generator emits SQL that
	// does not execute); that is serving behaviour, not load failure. It
	// must stay a small minority.
	if warm.errors*10 > warm.requests {
		t.Fatalf("load error rate too high: %d/%d", warm.errors, warm.requests)
	}
	// The status quo served requests are judged against: a script wrapping
	// the offline pipeline per request. Each of 64 dev questions pays a
	// full evidence generation (no cache, no batching, no concurrency),
	// then SQL generation and execution, without even the HTTP hop.
	seedCfg, err := seedConfigFor(seed.VariantGPT)
	if err != nil {
		t.Fatal(err)
	}
	client := llm.NewSimulator()
	p := seed.New(seedCfg, client, corpus)
	gen, err := GeneratorFor("codes-15b", client)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, e := range corpus.Dev[:64] {
		db := corpus.DBs[e.DB]
		ev, err := p.GenerateEvidence(e.DB, e.Question)
		if err != nil {
			t.Fatal(err)
		}
		sql, err := gen.Generate(texttosql.Task{Example: e, DB: db, Evidence: ev})
		if err != nil {
			t.Fatal(err)
		}
		// SQL that does not execute (the served path's 422s) still cost
		// its pipeline run.
		if stmt, err := db.Engine.Prepare(sql); err == nil {
			_, _ = stmt.Exec()
		}
	}
	serialQPS := 64 / time.Since(start).Seconds()
	t.Logf("pipeline serial: %.0f qps; warm serving c=16: %.0f qps (p50 %.0fus p99 %.0fus)",
		serialQPS, warm.qps, warm.p50Micros, warm.p99Micros)
	// Require a real margin, not a coin flip: measured 17–23x on two
	// cores, so 1.5x leaves ample room for noisy machines.
	if warm.qps <= 1.5*serialQPS {
		t.Errorf("warm serving (%.0f qps) does not beat per-request serial pipeline calls (%.0f qps) by >= 1.5x",
			warm.qps, serialQPS)
	}
}

// TestListingsDoNotBuildSessions pins the lazy-registry contract: the
// discovery routes serve static corpus data and must not trigger session
// builds (retriever warm-up) for every database they list.
func TestListingsDoNotBuildSessions(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	for _, url := range []string{ts.URL + "/v1/dbs", ts.URL + "/v1/examples?db=financial&limit=3"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d", url, resp.StatusCode)
		}
	}
	if loaded := srv.reg.Loaded(); loaded != 0 {
		t.Errorf("listings built %d sessions, want 0", loaded)
	}
}

func TestNewRejectsUnknownVariant(t *testing.T) {
	_, err := New(Config{
		Corpora: []*dataset.Corpus{testCorpus(t)},
		Client:  llm.NewSimulator(),
		Variant: "seed_deepsek", // typo must fail loudly, not fall back to GPT
		Logger:  quietLogger(),
	})
	if err == nil {
		t.Fatal("New accepted an unknown variant")
	}
}

func TestGeneratorForRejectsUnknown(t *testing.T) {
	client := llm.NewSimulator()
	for _, name := range []string{"codes-15b", "codes-7b", "codes-3b", "codes-1b", "chess", "chess-sscg", "rsl-sql", "dail-sql", "c3"} {
		gen, err := GeneratorFor(name, client)
		if err != nil || gen == nil {
			t.Errorf("GeneratorFor(%q) = %v", name, err)
		}
	}
	if _, err := GeneratorFor("gpt-17", client); err == nil {
		t.Error("unknown generator accepted")
	}
}

func TestServerCloseIdempotentAndRejectsAfter(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	e := testCorpus(t).Dev[0]
	resp, data := postJSON(t, ts.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: e.Question})
	if resp.StatusCode != 200 {
		t.Fatalf("pre-close request = %d: %s", resp.StatusCode, data)
	}
	srv.Close()
	srv.Close() // idempotent
	resp, _ = postJSON(t, ts.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: fmt.Sprintf("%s (uncached)", e.Question)})
	if resp.StatusCode != 503 {
		t.Errorf("evidence after Close = %d, want 503", resp.StatusCode)
	}
}

// TestQueryExposesEvidenceTrace: /v1/query and /v1/evidence responses
// carry the per-stage provenance trace; a repeat question is flagged as
// an evidence-cache hit while keeping the original generation's trace.
func TestQueryExposesEvidenceTrace(t *testing.T) {
	_, ts := newTestServer(t, nil)
	ex := testCorpus(t).Dev[0]
	body := api.QueryRequest{DB: ex.DB, Question: ex.Question}

	resp, data := postJSON(t, ts.URL+"/v1/query", body)
	if resp.StatusCode != 200 {
		t.Fatalf("query = %d: %s", resp.StatusCode, data)
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.EvidenceTrace == nil {
		t.Fatal("query response has no evidence_trace")
	}
	stages := make(map[string]bool)
	for _, st := range qr.EvidenceTrace.Stages {
		stages[st.Stage] = true
	}
	for _, want := range []string{seed.StageKeywords, seed.StageSamples, seed.StageSchema, seed.StageShots, seed.StageGenerate} {
		if !stages[want] {
			t.Errorf("trace missing stage %s: %+v", want, qr.EvidenceTrace.Stages)
		}
	}
	if qr.EvidenceTrace.Stage(seed.StageGenerate).Tokens == 0 {
		t.Error("generate stage reports no tokens")
	}

	// Repeat: the evidence cache answers, but the trace survives.
	resp, data = postJSON(t, ts.URL+"/v1/query", body)
	if resp.StatusCode != 200 {
		t.Fatalf("repeat query = %d", resp.StatusCode)
	}
	var warm api.QueryResponse
	if err := json.Unmarshal(data, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.EvidenceCacheHit {
		t.Error("repeat query not flagged evidence_cache_hit")
	}
	if warm.EvidenceTrace == nil || len(warm.EvidenceTrace.Stages) == 0 {
		t.Error("cache hit lost the evidence trace")
	}

	// /v1/evidence carries the same provenance.
	resp, data = postJSON(t, ts.URL+"/v1/evidence", body)
	if resp.StatusCode != 200 {
		t.Fatalf("evidence = %d", resp.StatusCode)
	}
	var er api.EvidenceResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Trace == nil || !er.CacheHit {
		t.Errorf("/v1/evidence trace=%v cacheHit=%v, want preserved trace and cache hit", er.Trace != nil, er.CacheHit)
	}
}

// TestMetricsExposeStages: the metrics snapshot surfaces the per-stage
// latency aggregation of the evidence generations.
func TestMetricsExposeStages(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	exs := testCorpus(t).Dev
	if len(exs) > 8 {
		exs = exs[:8]
	}
	var wg sync.WaitGroup
	for _, ex := range exs {
		wg.Add(1)
		go func(ex dataset.Example) {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: ex.DB, Question: ex.Question})
			if resp.StatusCode != 200 {
				t.Errorf("query %s = %d: %s", ex.ID, resp.StatusCode, data)
			}
		}(ex)
	}
	wg.Wait()

	snap := srv.Metrics()
	ev, ok := snap.Evidence["bird"]
	if !ok {
		t.Fatal("no bird evidence snapshot")
	}
	if len(ev.Stages) == 0 {
		t.Fatal("/metrics evidence snapshot has no per-stage aggregation")
	}
	var sawGenerate bool
	for _, sa := range ev.Stages {
		if sa.Count <= 0 {
			t.Errorf("stage %s count = %d", sa.Stage, sa.Count)
		}
		if sa.Stage == seed.StageGenerate {
			sawGenerate = true
			if sa.Tokens == 0 {
				t.Error("generate stage aggregated no tokens")
			}
		}
	}
	if !sawGenerate {
		t.Errorf("stages missing generate: %+v", ev.Stages)
	}
}

// TestSetRowsCapsRendering: a positive MaxRows caps the rendered rows and
// flags the truncation while RowCount keeps the full count; nil rows (a
// statement with no result set) leave the response as it was. Read from
// the body writeQueryResponse writes.
func TestSetRowsCapsRendering(t *testing.T) {
	written := func(rows *sqlengine.Rows, maxRows int) api.QueryResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		writeQueryResponse(rec, &api.QueryResponse{}, rows, maxRows)
		var resp api.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: %v", rec.Body, err)
		}
		return resp
	}
	rows := sqlengine.NewRows([]string{"n"}, [][]sqlengine.Value{
		{sqlengine.Int(1)}, {sqlengine.Null()}, {sqlengine.Text("x")},
	})
	for _, tc := range []struct {
		maxRows, want int
		truncated     bool
	}{{0, 3, false}, {2, 2, true}, {3, 3, false}, {5, 3, false}} {
		resp := written(rows, tc.maxRows)
		if resp.RowCount != 3 || len(resp.Rows) != tc.want || resp.Truncated != tc.truncated || !reflect.DeepEqual(resp.Columns, rows.Columns) {
			t.Errorf("maxRows %d: columns %v, row_count %d, %d rows, truncated %v; want 3 rows counted, %d rendered, truncated %v",
				tc.maxRows, resp.Columns, resp.RowCount, len(resp.Rows), resp.Truncated, tc.want, tc.truncated)
		}
	}
	if resp := written(nil, 1); !reflect.DeepEqual(resp, api.QueryResponse{}) {
		t.Errorf("nil rows changed the response: %+v", resp)
	}
}
