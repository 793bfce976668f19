package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

// fakeReplica is a scriptable seedd stand-in: it counts hits and serves
// whatever behavior the test installs.
type fakeReplica struct {
	srv  *httptest.Server
	hits atomic.Int64
	// mode selects the canned behavior; tests flip it mid-flight.
	mode atomic.Value // string
}

const (
	modeOK      = "ok"
	modeFail    = "fail"     // 500
	modeShed    = "shed"     // 429 + X-Retry-After-Ms
	modeSlow    = "slow"     // 2s then 200
	modeDown    = "down"     // connection refused (server closed separately)
	modeMissing = "notfound" // 404
	modeHuge    = "huge"     // 200 with a body one byte over maxProxiedBody
)

func newFakeReplica(t *testing.T, initial string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	f.mode.Store(initial)
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		f.hits.Add(1)
		switch f.mode.Load().(string) {
		case modeFail:
			http.Error(w, "boom", http.StatusInternalServerError)
		case modeShed:
			w.Header().Set("Retry-After", "60")
			w.Header().Set("X-Retry-After-Ms", "60000")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
		case modeSlow:
			time.Sleep(2 * time.Second)
			fmt.Fprintf(w, `{"served_by":%q}`, f.srv.URL)
		case modeMissing:
			http.Error(w, "no such db", http.StatusNotFound)
		case modeHuge:
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(bytes.Repeat([]byte{' '}, maxProxiedBody+1))
		default:
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"served_by":%q}`, f.srv.URL)
		}
	}))
	t.Cleanup(f.srv.Close)
	return f
}

// newTestFleet builds n fake replicas and a router over them with
// test-friendly timeouts. Probing is off unless the test enables it;
// routing still learns from its own request outcomes.
func newTestFleet(t *testing.T, n int, mutate func(*Config)) (*Router, []*fakeReplica) {
	t.Helper()
	reps := make([]*fakeReplica, n)
	urls := make([]string, n)
	for i := range reps {
		reps[i] = newFakeReplica(t, modeOK)
		urls[i] = reps[i].srv.URL
	}
	cfg := Config{
		Replicas:       urls,
		RequestTimeout: 10 * time.Second,
		AttemptTimeout: 5 * time.Second,
		HedgeDelay:     100 * time.Millisecond,
		BaseBackoff:    time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt, reps
}

// byURL maps a fake replica set by base URL for owner lookups.
func byURL(reps []*fakeReplica) map[string]*fakeReplica {
	m := make(map[string]*fakeReplica, len(reps))
	for _, r := range reps {
		m[r.srv.URL] = r
	}
	return m
}

// questionOwnedBy finds a question whose shard owner is the given replica.
func questionOwnedBy(t *testing.T, ring *Ring, db, want string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		q := fmt.Sprintf("synthetic question %d", i)
		if owner(ring, ShardKey(db, q)) == want {
			return q
		}
	}
	t.Fatalf("no question found owned by %s", want)
	return ""
}

func postQuery(t *testing.T, h http.Handler, db, q string) *httptest.ResponseRecorder {
	t.Helper()
	body := fmt.Sprintf(`{"db":%q,"question":%q}`, db, q)
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestRouterShardAffinity pins the routing contract evserve's cache
// depends on: a repeated (db, question) always lands on the same replica,
// while distinct questions spread across the fleet.
func TestRouterShardAffinity(t *testing.T) {
	rt, reps := newTestFleet(t, 3, nil)
	h := rt.Handler()

	first := postQuery(t, h, "financial", "how many accounts")
	if first.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", first.Code, first.Body)
	}
	servedBy := first.Header().Get("X-Fleet-Replica")
	for i := 0; i < 20; i++ {
		w := postQuery(t, h, "financial", "how many accounts")
		if got := w.Header().Get("X-Fleet-Replica"); got != servedBy {
			t.Fatalf("repeat question moved from %s to %s", servedBy, got)
		}
	}

	seen := make(map[string]bool)
	for i := 0; i < 50; i++ {
		w := postQuery(t, h, "financial", fmt.Sprintf("question %d", i))
		if w.Code != http.StatusOK {
			t.Fatalf("query %d status %d", i, w.Code)
		}
		seen[w.Header().Get("X-Fleet-Replica")] = true
	}
	if len(seen) < 2 {
		t.Fatalf("50 distinct questions all routed to %v — no spread", seen)
	}
	_ = reps
}

// TestRouterFailoverDeadReplica kills a shard owner outright and requires
// the router to keep answering 200 from the ring successor — the
// zero-availability-loss core of the fleet design.
func TestRouterFailoverDeadReplica(t *testing.T) {
	rt, reps := newTestFleet(t, 3, nil)
	h := rt.Handler()
	owner := reps[0].srv.URL
	q := questionOwnedBy(t, rt.ring, "financial", owner)

	if w := postQuery(t, h, "financial", q); w.Header().Get("X-Fleet-Replica") != owner {
		t.Fatalf("sanity: question not served by its owner %s", owner)
	}
	reps[0].srv.Close() // SIGKILL stand-in: connections refused from now on

	for i := 0; i < 10; i++ {
		w := postQuery(t, h, "financial", q)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d after owner death: status %d body %s", i, w.Code, w.Body)
		}
		if got := w.Header().Get("X-Fleet-Replica"); got == owner {
			t.Fatalf("request %d claimed to be served by the dead owner", i)
		}
	}
	if fivexx := rt.Metrics().ClientFivexx; fivexx != 0 {
		t.Fatalf("router surfaced %d 5xx responses during failover, want 0", fivexx)
	}
}

// TestRouterRetryAfterCooldown pins satellite 2 end to end: a 429 with
// X-Retry-After-Ms diverts traffic elsewhere immediately and keeps the
// shedding replica out of rotation for the advertised window.
func TestRouterRetryAfterCooldown(t *testing.T) {
	rt, reps := newTestFleet(t, 2, nil)
	h := rt.Handler()
	owner := reps[0].srv.URL
	other := reps[1].srv.URL
	q := questionOwnedBy(t, rt.ring, "financial", owner)
	reps[0].mode.Store(modeShed)

	w := postQuery(t, h, "financial", q)
	if w.Code != http.StatusOK {
		t.Fatalf("shed request not absorbed: status %d body %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Fleet-Replica"); got != other {
		t.Fatalf("shed request served by %s, want failover to %s", got, other)
	}
	ownerHits := byURL(reps)[owner].hits.Load()
	// The 60s cooldown must keep every subsequent request off the owner
	// without a single wasted attempt.
	for i := 0; i < 10; i++ {
		if w := postQuery(t, h, "financial", q); w.Code != http.StatusOK {
			t.Fatalf("request %d during cooldown: status %d", i, w.Code)
		}
	}
	if got := byURL(reps)[owner].hits.Load(); got != ownerHits {
		t.Fatalf("cooled-down replica received %d extra requests", got-ownerHits)
	}
	if shed := rt.Metrics().ShedRetries; shed != 1 {
		t.Fatalf("ShedRetries = %d, want exactly the one absorbed rejection", shed)
	}
}

// TestRouterBreakerEjectsAndReadmits drives a replica through
// fail -> ejection -> heal -> probe -> re-admission using only the serving
// path (no background prober), pinning that the breaker both stops the
// bleeding and lets a healed replica back in.
func TestRouterBreakerEjectsAndReadmits(t *testing.T) {
	rt, reps := newTestFleet(t, 2, func(c *Config) {
		c.BreakerThreshold = 2
		c.BreakerProbation = 50 * time.Millisecond
	})
	h := rt.Handler()
	owner := reps[0].srv.URL
	q := questionOwnedBy(t, rt.ring, "financial", owner)
	reps[0].mode.Store(modeFail)

	// Each request burns one failed attempt on the owner then fails over;
	// two of them trip the threshold-2 breaker.
	for i := 0; i < 2; i++ {
		if w := postQuery(t, h, "financial", q); w.Code != http.StatusOK {
			t.Fatalf("request %d not absorbed: status %d", i, w.Code)
		}
	}
	if state, _ := rt.replicas[owner].breaker.State(time.Now()); state != "open" {
		t.Fatalf("breaker state %s after consecutive failures, want open", state)
	}
	ownerHits := reps[0].hits.Load()
	for i := 0; i < 5; i++ {
		postQuery(t, h, "financial", q)
	}
	if got := reps[0].hits.Load(); got != ownerHits {
		t.Fatalf("ejected replica received %d requests during probation", got-ownerHits)
	}

	reps[0].mode.Store(modeOK)
	time.Sleep(60 * time.Millisecond) // probation expires
	// First request after probation is the half-open probe; it succeeds and
	// re-admits the owner, so traffic returns to the shard owner.
	if w := postQuery(t, h, "financial", q); w.Header().Get("X-Fleet-Replica") != owner {
		t.Fatalf("healed owner not probed after probation (served by %s)", w.Header().Get("X-Fleet-Replica"))
	}
	if w := postQuery(t, h, "financial", q); w.Header().Get("X-Fleet-Replica") != owner {
		t.Fatal("healed owner not re-admitted after successful probe")
	}
}

// TestRouterAuthoritative4xx pins that client errors are not replica
// faults: a 404 passes through verbatim, is not retried anywhere, and
// leaves the breaker closed.
func TestRouterAuthoritative4xx(t *testing.T) {
	rt, reps := newTestFleet(t, 3, nil)
	h := rt.Handler()
	for _, r := range reps {
		r.mode.Store(modeMissing)
	}
	w := postQuery(t, h, "nope", "whatever")
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404 passthrough", w.Code)
	}
	var total int64
	for _, r := range reps {
		total += r.hits.Load()
	}
	if total != 1 {
		t.Fatalf("a 404 burned %d attempts, want 1 (no retry on authoritative errors)", total)
	}
}

// TestRouterHedgesSlowReplica pins the tail-latency bound: a replica in a
// latency spike costs one HedgeDelay, after which the next ring replica
// races it and wins.
func TestRouterHedgesSlowReplica(t *testing.T) {
	rt, reps := newTestFleet(t, 2, func(c *Config) {
		c.HedgeDelay = 50 * time.Millisecond
	})
	h := rt.Handler()
	owner := reps[0].srv.URL
	q := questionOwnedBy(t, rt.ring, "financial", owner)
	reps[0].mode.Store(modeSlow) // 2s stall

	t0 := time.Now()
	w := postQuery(t, h, "financial", q)
	elapsed := time.Since(t0)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if got := w.Header().Get("X-Fleet-Replica"); got == owner {
		t.Fatal("response credited to the stalled owner, want the hedge winner")
	}
	if elapsed > time.Second {
		t.Fatalf("hedged request took %v — the 2s stall leaked into the tail", elapsed)
	}
	if m := rt.Metrics(); m.HedgedWins == 0 {
		t.Fatalf("HedgedWins = 0 after a hedge won: %+v", m)
	}
}

// TestRouterExhaustionPassesThroughLastResponse: when every replica sheds,
// the client gets the final 429 (with its Retry-After intact) rather than
// a synthetic 502 that hides the backpressure signal.
func TestRouterExhaustionPassesThroughLastResponse(t *testing.T) {
	rt, reps := newTestFleet(t, 2, nil)
	h := rt.Handler()
	for _, r := range reps {
		r.mode.Store(modeShed)
	}
	w := postQuery(t, h, "financial", "q")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 passthrough after exhaustion", w.Code)
	}
	if w.Header().Get("X-Retry-After-Ms") == "" {
		t.Fatal("Retry-After hint lost in exhaustion passthrough")
	}
	if m := rt.Metrics(); m.Exhausted != 1 {
		t.Fatalf("Exhausted = %d, want 1", m.Exhausted)
	}
}

// TestRouterRefusesOversizeBodies: a body over maxProxiedBody is refused
// whole, never passed on cut short. A replica answer one byte over reaches
// the client as a 502 upstream_error after one attempt — every replica
// would return the same answer — and a request body one byte over answers
// 413 without reaching any replica.
func TestRouterRefusesOversizeBodies(t *testing.T) {
	rt, reps := newTestFleet(t, 3, func(c *Config) {
		c.HedgeDelay = time.Minute // a slow first attempt must not be raced
	})
	h := rt.Handler()
	hits := func() (n int64) {
		for _, r := range reps {
			n += r.hits.Load()
		}
		return n
	}
	for _, r := range reps {
		r.mode.Store(modeHuge)
	}
	w := postQuery(t, h, "financial", "q")
	var e api.Error
	if err := json.Unmarshal(w.Body.Bytes(), &e); w.Code != http.StatusBadGateway || err != nil || e.Code != api.CodeUpstreamError {
		t.Fatalf("oversize answer: status %d, code %q (decode error %v), want 502 %s", w.Code, e.Code, err, api.CodeUpstreamError)
	}
	if n := hits(); n != 1 {
		t.Fatalf("oversize answer took %d attempts, want 1 (no retry)", n)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(bytes.Repeat([]byte{' '}, maxProxiedBody+1)))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if err := json.Unmarshal(w.Body.Bytes(), &e); w.Code != http.StatusRequestEntityTooLarge || err != nil || e.Code != api.CodeBadRequest {
		t.Fatalf("oversize request: status %d, code %q (decode error %v), want 413 %s", w.Code, e.Code, err, api.CodeBadRequest)
	}
	if n := hits(); n != 1 {
		t.Fatalf("an oversize request reached a replica (%d hits)", n-1)
	}
}

// TestRouterMasksChaos: three replicas each misbehave a different way —
// every third response stalls, a burst of 500s, every fifth body cut
// mid-flight — and no injected fault may reach a client: every routed
// query answers 2xx and the router counts zero 5xx and zero exhaustions.
func TestRouterMasksChaos(t *testing.T) {
	var proxies []*Proxy
	rt, _ := newTestFleet(t, 3, func(cfg *Config) {
		cfg.Logger = slog.New(slog.DiscardHandler) // 300+ access-log lines otherwise
		for i, target := range cfg.Replicas {
			p, err := NewProxy(target)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(p.Close)
			proxies = append(proxies, p)
			cfg.Replicas[i] = p.URL()
		}
	})
	proxies[0].SpikeLatency(25*time.Millisecond, 3)
	proxies[1].Burst5xx(25)
	proxies[2].TruncateEvery(5)

	h := rt.Handler()
	const total = 300
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1); i <= total; i = next.Add(1) {
				if w := postQuery(t, h, "financial", fmt.Sprintf("question %d", i)); w.Code/100 != 2 {
					t.Errorf("request %d under chaos: status %d body %s", i, w.Code, w.Body)
				}
			}
		}()
	}
	wg.Wait()

	if m := rt.Metrics(); m.ClientFivexx != 0 || m.Exhausted != 0 {
		t.Errorf("faults leaked: ClientFivexx = %d, Exhausted = %d, want 0 and 0", m.ClientFivexx, m.Exhausted)
	}
	for i, p := range proxies {
		if p.Injected() == 0 {
			t.Errorf("proxy %d injected no fault: the run proved nothing about it", i)
		}
	}
}

// TestRouterRouteDebugEndpoint pins the shard-mapping contract the CI
// failover smoke scripts against.
func TestRouterRouteDebugEndpoint(t *testing.T) {
	rt, reps := newTestFleet(t, 3, nil)
	h := rt.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/route?db=financial&question=how+many+accounts", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var out struct {
		Owner      string   `json:"owner"`
		Candidates []string `json:"candidates"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("decoding route response: %v", err)
	}
	if len(out.Candidates) != 3 || out.Candidates[0] != out.Owner {
		t.Fatalf("route = %+v, want owner-first list of all 3 replicas", out)
	}
	// The debug endpoint and the serving path must agree.
	if got := postQuery(t, h, "financial", "how many accounts").Header().Get("X-Fleet-Replica"); got != out.Owner {
		t.Fatalf("serving path used %s, /v1/route claims %s", got, out.Owner)
	}
	_ = reps
}

// TestRouterReadinessReflectsFleet: with probing on and every replica
// dead, the router's own /healthz?ready flips to 503 so an upstream load
// balancer can stop sending traffic.
func TestRouterReadinessReflectsFleet(t *testing.T) {
	rt, reps := newTestFleet(t, 2, func(c *Config) {
		c.ProbeInterval = 20 * time.Millisecond
	})
	h := rt.Handler()
	for _, r := range reps {
		r.srv.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		req := httptest.NewRequest(http.MethodGet, "/healthz?ready", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router still ready %v after every replica died", w.Code)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Liveness (no ?ready) stays 200: the router process itself is fine.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("router liveness %d, want 200", w.Code)
	}
}
