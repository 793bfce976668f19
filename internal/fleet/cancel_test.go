package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

// hangingReplica answers health checks but parks every other request on
// the request context — the shape of a replica that is alive but slower
// than the client's patience.
func hangingReplica(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		// Drain the body so net/http's background read can notice the
		// client disconnect and cancel r.Context().
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestRouterClientCancelAnswers499 is the regression test for the
// canceled-context accounting bug: a request the client abandons
// mid-flight must answer 499, stay out of the router's 5xx accounting,
// and leave the replica's breaker untouched — previously it was reported
// as a 502, polluting both.
func TestRouterClientCancelAnswers499(t *testing.T) {
	rep := hangingReplica(t)
	rt, err := NewRouter(Config{
		Replicas:       []string{rep.URL},
		RequestTimeout: 10 * time.Second,
		AttemptTimeout: 10 * time.Second,
		HedgeDelay:     10 * time.Second,
		BaseBackoff:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(`{"db":"financial","question":"how many accounts"}`)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	rt.Handler().ServeHTTP(w, req)

	if w.Code != api.StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d: %s", w.Code, api.StatusClientClosedRequest, w.Body)
	}
	var env api.Error
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("response is not the error envelope: %v: %s", err, w.Body)
	}
	if env.Code != api.CodeClientClosed {
		t.Errorf("code = %q, want %q", env.Code, api.CodeClientClosed)
	}
	if env.RequestID == "" {
		t.Error("envelope lost the request id")
	}
	if env.RequestID != w.Header().Get("X-Request-Id") {
		t.Error("envelope request id disagrees with the header")
	}

	m := rt.Metrics()
	if m.ClientFivexx != 0 {
		t.Errorf("client cancellation counted as %d router 5xx", m.ClientFivexx)
	}
	if m.ClientClosed != 1 {
		t.Errorf("ClientClosed = %d, want 1", m.ClientClosed)
	}
	if m.Exhausted != 0 {
		t.Errorf("client cancellation counted as %d exhausted requests", m.Exhausted)
	}
	for _, rs := range m.Replicas {
		if rs.Breaker != "closed" {
			t.Errorf("replica %s breaker %q after a client cancel, want closed", rs.Name, rs.Breaker)
		}
		if rs.Failures != 0 {
			t.Errorf("replica %s charged %d failures for a client cancel", rs.Name, rs.Failures)
		}
	}
}

// TestRouterErrorEnvelope pins the unified error envelope on the
// router's own non-2xx paths: bad requests and exhausted forwards both
// answer {error, code, request_id}.
func TestRouterErrorEnvelope(t *testing.T) {
	rep := newFakeReplica(t, modeFail)
	rt, err := NewRouter(Config{
		Replicas:       []string{rep.srv.URL},
		RequestTimeout: 2 * time.Second,
		AttemptTimeout: time.Second,
		HedgeDelay:     100 * time.Millisecond,
		BaseBackoff:    time.Millisecond,
		MaxAttempts:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	h := rt.Handler()

	t.Run("bad request", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader("{not json"))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", w.Code)
		}
		var env api.Error
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("not the envelope: %v: %s", err, w.Body)
		}
		if env.Code != api.CodeBadRequest || env.Error == "" || env.RequestID == "" {
			t.Errorf("envelope = %+v", env)
		}
	})

	t.Run("exhausted passes through replica envelope", func(t *testing.T) {
		// The fake replica answers plain 500s; the router relays the last
		// backend response verbatim, so here we only pin status + 5xx
		// accounting. (Real seedd replicas answer enveloped errors, which
		// relay through unchanged.)
		w := postQuery(t, h, "financial", "q")
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("status = %d, want 500 passthrough", w.Code)
		}
		if got := rt.Metrics().ClientFivexx; got != 1 {
			t.Errorf("ClientFivexx = %d, want 1", got)
		}
	})
}
