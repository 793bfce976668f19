package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// TestRoutedQueryTraceEndToEnd is the tentpole acceptance test: one query
// sent through a real fleet.Router must yield one trace, fetchable from
// the serving replica via the response's X-Trace-Id, whose spans cover
// every layer — the router's forward, admission, the evidence lookup and
// generation, the evidence pipeline stages, and the engine's prepare and
// execute.
func TestRoutedQueryTraceEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, nil)

	rt, err := fleet.NewRouter(fleet.Config{
		Replicas: []string{ts.URL},
		Logger:   quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	// A client-supplied traceparent and request ID must both survive the
	// hop: the replica's trace continues the client's trace rather than
	// starting its own.
	clientTrace := obs.NewTraceID()
	e := testCorpus(t).Dev[0]
	body, _ := json.Marshal(api.QueryRequest{DB: e.DB, Question: e.Question})
	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/query", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "client-req-1")
	obs.Inject(req.Header, clientTrace, "")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed query = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != "client-req-1" {
		t.Errorf("routed response %s = %q, want the client's ID", obs.RequestIDHeader, got)
	}
	traceID := resp.Header.Get(obs.TraceIDHeader)
	if traceID != clientTrace {
		t.Errorf("routed response %s = %q, want the client trace %q", obs.TraceIDHeader, traceID, clientTrace)
	}

	tresp, err := http.Get(ts.URL + "/v1/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s = %d, want 200", traceID, tresp.StatusCode)
	}
	var rec obs.TraceRecord
	if err := json.NewDecoder(tresp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.RequestID != "client-req-1" {
		t.Errorf("trace request_id = %q, want client-req-1", rec.RequestID)
	}

	names := make(map[string]int)
	stages := 0
	for _, sp := range rec.Spans {
		names[sp.Name]++
		if strings.HasPrefix(sp.Name, "stage:") {
			stages++
		}
		if sp.Name == "sqlengine.execute" {
			// The execute span must describe the physical execution mode.
			for _, attr := range []string{"batches", "path"} {
				if sp.Attrs.Get(attr) == nil {
					t.Errorf("sqlengine.execute span missing %q attr (got %v)", attr, sp.Attrs)
				}
			}
		}
	}
	for _, want := range []string{
		"router.forward", "request", "admission", "evidence",
		"evserve.lookup", "evserve.generate", "generate", "sqlengine.prepare", "sqlengine.execute",
	} {
		if names[want] == 0 {
			t.Errorf("trace is missing span %q (got %v)", want, names)
		}
	}
	if stages == 0 {
		t.Errorf("trace has no evidence pipeline stage spans (got %v)", names)
	}
}

// TestRequestIDEchoedOnShed pins the satellite guarantee: a 429 rejected
// before any handler runs still carries the client's X-Request-Id.
func TestRequestIDEchoedOnShed(t *testing.T) {
	_, ts := newTestServer(t, func(cfg *Config) {
		cfg.Rate = 0.001
		cfg.Burst = 1
	})
	e := testCorpus(t).Dev[0]
	body, _ := json.Marshal(api.QueryRequest{DB: e.DB, Question: e.Question})
	var sawShed bool
	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(obs.RequestIDHeader, "shed-req")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get(obs.RequestIDHeader); got != "shed-req" {
			t.Fatalf("status %d response %s = %q, want shed-req", resp.StatusCode, obs.RequestIDHeader, got)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			sawShed = true
		}
	}
	if !sawShed {
		t.Fatal("no request was shed; the echo-under-shed path went unexercised")
	}
}

// keepAll is a slog handler that enables every level and drops each
// record: a logger that pays for the request line without writing it.
type keepAll struct{}

func (keepAll) Enabled(context.Context, slog.Level) bool  { return true }
func (keepAll) Handle(context.Context, slog.Record) error { return nil }
func (h keepAll) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h keepAll) WithGroup(string) slog.Handler           { return h }

// headerWriter is an http.ResponseWriter that keeps only its header, so
// serving through it allocates nothing of its own.
type headerWriter struct{ h http.Header }

func (w headerWriter) Header() http.Header       { return w.h }
func (headerWriter) Write(b []byte) (int, error) { return len(b), nil }
func (headerWriter) WriteHeader(int)             {}

// TestRequestLogBuiltOnlyWhenEnabled: under a logger whose handler drops
// Info (slog.DiscardHandler, as the bench's quiet logger is), wrap does
// not build the request line's arguments, which cost at least five
// allocations a request under a logger that keeps them.
func TestRequestLogBuiltOnlyWhenEnabled(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) { c.Logger = slog.New(slog.DiscardHandler) })
	h := srv.wrap(pathHealthz, false, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	req := httptest.NewRequest(http.MethodGet, pathHealthz, nil)
	req.Header.Set(obs.RequestIDHeader, "log-req")
	w := headerWriter{http.Header{}}
	quiet := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) })
	srv.log = slog.New(keepAll{})
	kept := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) })
	t.Logf("a request allocates %.0f times under DiscardHandler, %.0f under a handler that keeps Info", quiet, kept)
	if kept-quiet < 5 {
		t.Errorf("a request allocates %.0f times when its log line is discarded, %.0f when kept: the line's arguments are still built", quiet, kept)
	}
}

// TestPanicRecordsTraceAndCounter pins the panic-path satellite: the
// in-flight span is marked errored with the panic value, panics_total
// increments, and the 500 still echoes the request ID.
func TestPanicRecordsTraceAndCounter(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	before := srv.panicsTotal.Value()
	h := srv.wrap(pathQuery, true, func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, pathQuery, nil)
	req.Header.Set(obs.RequestIDHeader, "panic-req")
	h.ServeHTTP(rec, req)

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	if got := rec.Header().Get(obs.RequestIDHeader); got != "panic-req" {
		t.Errorf("panic 500 %s = %q, want panic-req", obs.RequestIDHeader, got)
	}
	if got := srv.panicsTotal.Value(); got != before+1 {
		t.Errorf("panics_total = %d, want %d", got, before+1)
	}

	traceID := rec.Header().Get(obs.TraceIDHeader)
	if traceID == "" {
		t.Fatal("panic 500 carries no X-Trace-Id")
	}
	trec := srv.Traces().Get(traceID)
	if trec == nil {
		t.Fatal("panicked request's trace was not retained")
	}
	if !trec.Errored() {
		t.Error("panicked request's trace is not marked errored")
	}
	var found bool
	for _, sp := range trec.Spans {
		if strings.Contains(sp.Err, "kaboom") {
			found = true
		}
	}
	if !found {
		t.Errorf("no span carries the panic value; spans: %+v", trec.Spans)
	}
}

// TestMetricsPrometheusDefault pins the exposition: /metrics is
// Prometheus text, and ?format=json (the retired JSON view) answers the
// same text.
func TestMetricsPrometheusDefault(t *testing.T) {
	_, ts := newTestServer(t, nil)
	e := testCorpus(t).Dev[0]
	postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain exposition", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE server_requests_total counter",
		`server_requests_total{route="/v1/query"}`,
		"server_request_latency_us",
		"evserve_cache_entries",
		"server_admission_admitted_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics exposition is missing %q", want)
		}
	}

	jresp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	jbody, _ := io.ReadAll(jresp.Body)
	jresp.Body.Close()
	if ct := jresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") ||
		!strings.Contains(string(jbody), "# TYPE server_requests_total counter") {
		t.Errorf("?format=json answered %q: %.80s; want the text exposition", ct, jbody)
	}
}

// TestErroredTraceSurvivesChurn pins the trace store's always-keep class
// end to end: with a tiny ring, an errored (panicked) request's trace
// survives churn from successful queries that cycles the recent ring.
func TestErroredTraceSurvivesChurn(t *testing.T) {
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.TraceCapacity = 2
	})
	h := srv.wrap(pathQuery, true, func(w http.ResponseWriter, r *http.Request) {
		panic("evictme-not")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, pathQuery, nil))
	traceID := rec.Header().Get(obs.TraceIDHeader)
	if traceID == "" {
		t.Fatal("panic 500 carries no X-Trace-Id")
	}
	// Churn the recent ring well past its capacity with healthy traffic.
	e := testCorpus(t).Dev[0]
	for i := 0; i < 8; i++ {
		postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
	}
	tresp, err := http.Get(ts.URL + "/v1/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Errorf("errored trace %s evicted (GET = %d), want always-keep retention", traceID, tresp.StatusCode)
	}
}

// TestMetricsCountersAreCounters: on a fully wired server (durable
// evidence store, durable query memory, replication tailers for a peer)
// and on a router in front of it, every family named *_total is exposed
// as a counter, and no other family is.
func TestMetricsCountersAreCounters(t *testing.T) {
	peer := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(peer.Close)
	_, ts := newTestServer(t, func(c *Config) {
		c.StoreDir = t.TempDir()
		c.StoreSeed = 7
		c.Memory = true
		c.MemoryDir = t.TempDir()
		c.Peers = []string{peer.URL}
	})
	rt, err := fleet.NewRouter(fleet.Config{Replicas: []string{ts.URL}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	e := testCorpus(t).Dev[0]
	postJSON(t, front.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})

	for _, tc := range []struct {
		name, url string
		want      []string
	}{
		{"server", ts.URL, []string{
			"server_requests_total", "server_admission_admitted_total", "evserve_generations_total",
			"evstore_appends_total", "evstore_tailer_polls_total", "qmemory_lookups_total",
			"qmemory_store_appends_total", "qmemory_tailer_polls_total", "sqlengine_plan_cache_hits_total",
		}},
		{"router", front.URL, []string{"fleet_requests_total", "fleet_replica_attempts_total"}},
	} {
		resp, err := http.Get(tc.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		types := make(map[string]string)
		for _, line := range strings.Split(string(body), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
				types[f[2]] = f[3]
			}
		}
		for _, fam := range tc.want {
			if _, ok := types[fam]; !ok {
				t.Errorf("%s /metrics has no %s family", tc.name, fam)
			}
		}
		for fam, typ := range types {
			if strings.HasSuffix(fam, "_total") != (typ == "counter") {
				t.Errorf("%s /metrics: %s is a %s", tc.name, fam, typ)
			}
		}
	}
}
