package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/seed"
)

// TestServerDrainKeepsInFlightAlive is the shutdown-under-load regression
// test: flipping the drain bit must take the replica out of rotation
// (GET /healthz?ready answers 503) without killing liveness, replication,
// or requests already in flight.
func TestServerDrainKeepsInFlightAlive(t *testing.T) {
	// The gated client holds every evidence generation, guaranteeing
	// genuinely in-flight work while we flip the drain bit.
	srv, ts, release := newGatedServer(t, nil)
	examples := testCorpus(t).Dev[:4]

	var wg sync.WaitGroup
	statuses := make([]int, len(examples))
	for i, e := range examples {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: e.Question})
			statuses[i] = resp.StatusCode
		}()
	}

	waitFor(t, "the requests to be in flight", func() bool { return srv.adm.stats().Inflight == int64(len(examples)) })
	srv.SetDraining(true)

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz?ready"); code != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz?ready = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("draining /healthz = %d, want 200 (liveness must survive drain)", code)
	}
	if code := get("/metrics"); code != http.StatusOK {
		t.Errorf("draining /metrics = %d, want 200", code)
	}

	release()
	wg.Wait()
	for i, code := range statuses {
		if code != http.StatusOK {
			t.Errorf("in-flight request %d finished %d during drain, want 200", i, code)
		}
	}

	snap := srv.Metrics()
	if !snap.Draining {
		t.Error("/metrics does not report draining")
	}
	srv.SetDraining(false)
	if code := get("/healthz?ready"); code != http.StatusOK {
		t.Errorf("undrained /healthz?ready = %d, want 200", code)
	}
}

// TestServerPeerReplicationServesWithoutLLM is the end-to-end fleet
// replication test: two servers peered over HTTP, evidence generated on
// the leader, and the follower — which never saw the question — serves it
// as a cache hit with zero evidence generations and zero LLM calls.
func TestServerPeerReplicationServesWithoutLLM(t *testing.T) {
	examples := testCorpus(t).Dev[:5]

	_, leaderTS, _ := newStoreServer(t, t.TempDir(), llm.NewSimulator())

	type evResp struct {
		Evidence string `json:"evidence"`
		CacheHit bool   `json:"evidence_cache_hit"`
	}
	want := make(map[string]string, len(examples))
	for _, e := range examples {
		resp, body := postJSON(t, leaderTS.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: e.Question})
		if resp.StatusCode != 200 {
			t.Fatalf("leader /v1/evidence = %d: %s", resp.StatusCode, body)
		}
		var r evResp
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		want[e.ID] = r.Evidence
	}

	followerSim := llm.NewSimulator()
	follower, followerTS, _ := newFleetServer(t, t.TempDir(), followerSim, []string{leaderTS.URL})

	// Wait for the follower's tailer to ship the leader's WAL.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if int64(followerApplied(follower)) >= int64(len(examples)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower replicated %d entries in 5s, want >= %d\nreplication: %+v",
				followerApplied(follower), len(examples), follower.Metrics().Replication)
		}
		time.Sleep(10 * time.Millisecond)
	}

	for _, e := range examples {
		resp, body := postJSON(t, followerTS.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: e.Question})
		if resp.StatusCode != 200 {
			t.Fatalf("follower /v1/evidence = %d: %s", resp.StatusCode, body)
		}
		var r evResp
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if !r.CacheHit {
			t.Fatalf("follower missed the replicated cache for %s", e.ID)
		}
		if r.Evidence != want[e.ID] {
			t.Fatalf("replicated evidence for %s diverged:\n leader   %q\n follower %q", e.ID, want[e.ID], r.Evidence)
		}
	}

	snap := follower.Metrics()
	ev := snap.Evidence["bird"]
	if ev.Generations != 0 {
		t.Errorf("follower ran %d generations serving replicated evidence, want 0", ev.Generations)
	}
	if ev.Injected < int64(len(examples)) {
		t.Errorf("follower injected %d replicated entries into its cache, want >= %d", ev.Injected, len(examples))
	}
	if calls := followerSim.LedgerSnapshot().TotalCalls(); calls != 0 {
		t.Errorf("follower made %d LLM calls serving replicated evidence, want 0", calls)
	}
	if len(snap.Replication) == 0 {
		t.Fatal("/metrics has no replication section on a fleet member")
	}
	for stream, st := range snap.Replication {
		if st.Errors > 0 {
			t.Errorf("replication stream %s saw %d errors", stream, st.Errors)
		}
	}
}

// newFleetServer is newStoreServer plus peers: a fleet member tailing the
// given replicas' evidence stores.
func newFleetServer(t *testing.T, dir string, client llm.Client, peers []string) (*Server, *httptest.Server, func()) {
	t.Helper()
	srv, err := New(Config{
		Corpora:           []*dataset.Corpus{testCorpus(t)},
		Client:            client,
		Variant:           seed.VariantGPT,
		StoreDir:          dir,
		StoreSeed:         7,
		Peers:             peers,
		ReplicateInterval: 20 * time.Millisecond,
		Logger:            quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	stop := func() {
		ts.Close()
		srv.Close()
	}
	t.Cleanup(stop)
	return srv, ts, stop
}

func followerApplied(s *Server) int64 {
	var total int64
	for _, st := range s.Metrics().Replication {
		total += st.Applied
	}
	return total
}

// TestAdmissionRejectCarriesRetryAfterMs pins the fleet-facing admission
// contract: a 429 carries both the RFC whole-second Retry-After and its
// millisecond-resolution twin X-Retry-After-Ms, and the two agree.
func TestAdmissionRejectCarriesRetryAfterMs(t *testing.T) {
	_, ts := newTestServer(t, func(cfg *Config) {
		cfg.Rate = 0.001 // one token; the next refills in ~17 minutes
		cfg.Burst = 1
	})
	e := testCorpus(t).Dev[0]

	resp, _ := postJSON(t, ts.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: e.Question})
	if resp.StatusCode != 200 {
		t.Fatalf("first request = %d, want 200", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: e.Question})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", resp.StatusCode)
	}

	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
	ms, err := strconv.ParseInt(resp.Header.Get("X-Retry-After-Ms"), 10, 64)
	if err != nil || ms <= 0 {
		t.Fatalf("X-Retry-After-Ms = %q, want positive milliseconds", resp.Header.Get("X-Retry-After-Ms"))
	}
	if ms > int64(secs)*1000 {
		t.Errorf("X-Retry-After-Ms %d exceeds Retry-After %ds — the coarse header must round up", ms, secs)
	}
}
