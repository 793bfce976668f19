package fleet

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// mustRouter builds a router over cfg with test-friendly logging.
func mustRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestForwardPropagatesTraceHeaders pins the router's side of the trace
// contract: every backend attempt carries the client's trace ID (or a
// fresh one), the request ID, and its attempt index; the response relays
// the replica's X-Trace-Id and echoes X-Request-Id.
func TestForwardPropagatesTraceHeaders(t *testing.T) {
	var mu sync.Mutex
	var gotTraceparent, gotReqID, gotAttempt string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		mu.Lock()
		gotTraceparent = r.Header.Get(obs.TraceparentHeader)
		gotReqID = r.Header.Get(obs.RequestIDHeader)
		gotAttempt = r.Header.Get(obs.FleetAttemptHeader)
		mu.Unlock()
		w.Header().Set(obs.TraceIDHeader, "deadbeef")
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(backend.Close)

	rt := mustRouter(t, Config{Replicas: []string{backend.URL}})
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	clientTrace := obs.NewTraceID()
	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/query",
		strings.NewReader(`{"db":"financial","question":"q"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "rid-42")
	obs.Inject(req.Header, clientTrace, "")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mu.Lock()
	defer mu.Unlock()
	wantPrefix := "00-" + clientTrace + "-"
	if !strings.HasPrefix(gotTraceparent, wantPrefix) {
		t.Errorf("backend traceparent = %q, want prefix %q (client trace propagated)", gotTraceparent, wantPrefix)
	}
	if gotReqID != "rid-42" {
		t.Errorf("backend %s = %q, want rid-42", obs.RequestIDHeader, gotReqID)
	}
	if gotAttempt != "0" {
		t.Errorf("backend %s = %q, want 0 (first attempt)", obs.FleetAttemptHeader, gotAttempt)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != "rid-42" {
		t.Errorf("router response %s = %q, want rid-42", obs.RequestIDHeader, got)
	}
	if got := resp.Header.Get(obs.TraceIDHeader); got != "deadbeef" {
		t.Errorf("router response %s = %q, want the replica's deadbeef relayed", obs.TraceIDHeader, got)
	}
}

// TestRequestIDMintedAndEchoedOnFailure pins the no-replica-answered
// path: even a 502 minted by the router itself carries a request ID.
func TestRequestIDMintedAndEchoedOnFailure(t *testing.T) {
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	rt := mustRouter(t, Config{Replicas: []string{deadURL}, MaxAttempts: 1})
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	resp, err := http.Post(front.URL+"/v1/query", "application/json",
		strings.NewReader(`{"db":"financial","question":"q"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead fleet = %d, want 502", resp.StatusCode)
	}
	if resp.Header.Get(obs.RequestIDHeader) == "" {
		t.Errorf("502 response carries no %s", obs.RequestIDHeader)
	}
}

// TestRouterMetricsPrometheusDefault pins the router's exposition:
// Prometheus text, and ?format=json (the retired JSON view) answers the
// same text.
func TestRouterMetricsPrometheusDefault(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(backend.Close)
	rt := mustRouter(t, Config{Replicas: []string{backend.URL}})
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain exposition", ct)
	}
	for _, want := range []string{
		"# TYPE fleet_requests_total counter",
		"fleet_replica_alive{replica=",
		"fleet_request_latency_us",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics exposition is missing %q", want)
		}
	}

	jresp, err := http.Get(front.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	jbody, _ := io.ReadAll(jresp.Body)
	jresp.Body.Close()
	if ct := jresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") ||
		!strings.Contains(string(jbody), "# TYPE fleet_requests_total counter") {
		t.Errorf("?format=json answered %q: %.80s; want the text exposition", ct, jbody)
	}
}
