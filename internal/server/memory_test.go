package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/seed"
)

// TestMemoryServesRepeatWithZeroLLMCalls is the tentpole's end-to-end
// contract: a question answered correctly once is answered again from
// the query memory — source "memory", confidence attached, and zero
// simulated LLM calls for the request.
func TestMemoryServesRepeatWithZeroLLMCalls(t *testing.T) {
	sim := llm.NewSimulator()
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.Client = sim
		cfg.Memory = true
	})

	examples := testCorpus(t).Dev[:12]
	var memoryHits int
	for _, e := range examples {
		resp, data := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		if resp.StatusCode != 200 {
			continue
		}
		var first api.QueryResponse
		if err := json.Unmarshal(data, &first); err != nil {
			t.Fatal(err)
		}
		if first.Source == api.SourceMemory {
			// Cross-example generalization: a pattern learned from an
			// earlier example matched this question and passed verification
			// against THIS example's gold. Legitimate, but useless for the
			// first-vs-repeat comparison below.
			continue
		}

		before := sim.LedgerSnapshot().TotalCalls()
		resp, data = postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		if resp.StatusCode != 200 {
			t.Fatalf("repeat of %s = %d: %s", e.ID, resp.StatusCode, data)
		}
		var second api.QueryResponse
		if err := json.Unmarshal(data, &second); err != nil {
			t.Fatal(err)
		}
		if second.Source != api.SourceMemory {
			// The simulator does not answer every example correctly; only
			// judged-correct generations are admitted. Incorrect ones must
			// keep regenerating.
			continue
		}
		memoryHits++
		if delta := sim.LedgerSnapshot().TotalCalls() - before; delta != 0 {
			t.Errorf("memory hit for %s made %d LLM calls, want 0", e.ID, delta)
		}
		if second.MemoryConfidence <= 0 {
			t.Errorf("memory hit for %s carries no confidence", e.ID)
		}
		if second.SQL != first.SQL {
			t.Errorf("memory hit for %s served %q, generated %q", e.ID, second.SQL, first.SQL)
		}
		if second.RowCount != first.RowCount {
			t.Errorf("memory hit for %s row count %d != %d", e.ID, second.RowCount, first.RowCount)
		}
		if second.Timing.MemoryMicros <= 0 {
			t.Errorf("memory hit for %s reports no memory time", e.ID)
		}
		if second.Timing.GenerateMicros != 0 || second.Timing.EvidenceMicros != 0 {
			t.Errorf("memory hit for %s reports pipeline time: %+v", e.ID, second.Timing)
		}
		// The trace says which path answered: a repeat is the exact map's.
		tresp, err := http.Get(ts.URL + "/v1/traces/" + resp.Header.Get(obs.TraceIDHeader))
		if err != nil {
			t.Fatal(err)
		}
		var rec obs.TraceRecord
		err = json.NewDecoder(tresp.Body).Decode(&rec)
		tresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var attrs map[string]any
		for _, sp := range rec.Spans {
			if sp.Name == "memory.lookup" {
				attrs = sp.Attrs
			}
		}
		if attrs["match"] != "exact" || attrs["attempts"] != float64(1) || attrs["path"] == nil {
			t.Errorf("memory.lookup span of %s: %v; want match=exact attempts=1 and the engine's path", e.ID, attrs)
		}
	}
	if memoryHits == 0 {
		t.Fatal("no example was served from memory on repeat")
	}
	// Repeat traffic is told from paraphrase traffic without a trace.
	var exact, hits int64
	for _, st := range srv.Metrics().Memory {
		exact, hits = exact+st.ExactHits, hits+st.Hits
	}
	if exact < int64(memoryHits) || exact > hits {
		t.Errorf("memory stats: %d exact of %d hits; want at least %d exact", exact, hits, memoryHits)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(prom), "qmemory_exact_hits_total") {
		t.Error("/metrics does not export qmemory_exact_hits_total")
	}
}

// TestMemoryDisabledByDefault pins the compatibility default: without
// Config.Memory, repeats keep their pre-memory behavior (evidence cache
// hit, source "cache") and the metrics snapshot carries no memory block.
func TestMemoryDisabledByDefault(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	e := testCorpus(t).Dev[0]
	postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
	_, data := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
	var qr api.QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Source == api.SourceMemory {
		t.Fatal("memory must be opt-in")
	}
	if qr.Source != api.SourceCache {
		t.Fatalf("repeat source = %q, want %q", qr.Source, api.SourceCache)
	}
	if srv.Metrics().Memory != nil {
		t.Fatal("metrics should omit memory when disabled")
	}
}

// TestMemoryWarmRestart: with MemoryDir set, learned patterns survive a
// restart — the second life serves from memory without relearning.
func TestMemoryWarmRestart(t *testing.T) {
	dir := t.TempDir()
	newMemServer := func(sim llm.Client) (*Server, string, func()) {
		srv, err := New(Config{
			Corpora:     []*dataset.Corpus{testCorpus(t)},
			Client:      sim,
			Variant:     seed.VariantGPT,
			BatchWindow: 2 * time.Millisecond,
			BatchMax:    16,
			StoreSeed:   7,
			Memory:      true,
			MemoryDir:   dir,
			Logger:      quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		return srv, ts.URL, func() { ts.Close(); srv.Close() }
	}

	_, url1, stop1 := newMemServer(llm.NewSimulator())
	// Teach the first life a few patterns; remember which ones stuck.
	var learned []dataset.Example
	for _, e := range testCorpus(t).Dev[:8] {
		postJSON(t, url1+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		_, data := postJSON(t, url1+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		var qr api.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			continue
		}
		if qr.Source == api.SourceMemory {
			learned = append(learned, e)
		}
	}
	if len(learned) == 0 {
		t.Fatal("first life learned nothing")
	}
	stop1()

	sim2 := llm.NewSimulator()
	srv2, url2, _ := newMemServer(sim2)
	for _, e := range learned {
		before := sim2.LedgerSnapshot().TotalCalls()
		resp, data := postJSON(t, url2+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		if resp.StatusCode != 200 {
			t.Fatalf("restarted server /v1/query = %d: %s", resp.StatusCode, data)
		}
		var qr api.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Source != api.SourceMemory {
			t.Errorf("restarted server regenerated %s (source %q), want memory", e.ID, qr.Source)
		}
		if delta := sim2.LedgerSnapshot().TotalCalls() - before; delta != 0 {
			t.Errorf("restarted memory hit for %s made %d LLM calls", e.ID, delta)
		}
	}
	for _, st := range srv2.Metrics().Memory {
		if st.Restored == 0 {
			t.Error("metrics report no restored patterns after warm restart")
		}
	}
}

// TestMemoryReplicationServesOnFollower: patterns learned on one replica
// ship to peers like evidence — the follower serves a question it never
// generated, from memory, with zero LLM calls.
func TestMemoryReplicationServesOnFollower(t *testing.T) {
	leaderDir := t.TempDir()
	leaderSrv, err := New(Config{
		Corpora:     []*dataset.Corpus{testCorpus(t)},
		Client:      llm.NewSimulator(),
		Variant:     seed.VariantGPT,
		BatchWindow: 2 * time.Millisecond,
		BatchMax:    16,
		StoreDir:    leaderDir,
		StoreSeed:   7,
		Memory:      true,
		Logger:      quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	leaderTS := httptest.NewServer(leaderSrv.Handler())
	t.Cleanup(func() { leaderTS.Close(); leaderSrv.Close() })

	// Teach the leader.
	var learned []dataset.Example
	for _, e := range testCorpus(t).Dev[:8] {
		postJSON(t, leaderTS.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		_, data := postJSON(t, leaderTS.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		var qr api.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			continue
		}
		if qr.Source == api.SourceMemory {
			learned = append(learned, e)
		}
	}
	if len(learned) == 0 {
		t.Fatal("leader learned nothing")
	}

	followerSim := llm.NewSimulator()
	followerSrv, err := New(Config{
		Corpora:           []*dataset.Corpus{testCorpus(t)},
		Client:            followerSim,
		Variant:           seed.VariantGPT,
		BatchWindow:       2 * time.Millisecond,
		BatchMax:          16,
		StoreDir:          t.TempDir(),
		StoreSeed:         7,
		Peers:             []string{leaderTS.URL},
		ReplicateInterval: 20 * time.Millisecond,
		Memory:            true,
		Logger:            quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	followerTS := httptest.NewServer(followerSrv.Handler())
	t.Cleanup(func() { followerTS.Close(); followerSrv.Close() })

	deadline := time.Now().Add(5 * time.Second)
	for {
		var injected int64
		for _, st := range followerSrv.Metrics().Memory {
			injected += st.Injected
		}
		if injected >= int64(len(learned)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower injected %d patterns in 5s, want >= %d\nmemory replication: %+v",
				injected, len(learned), followerSrv.Metrics().MemoryReplication)
		}
		time.Sleep(10 * time.Millisecond)
	}

	for _, e := range learned {
		before := followerSim.LedgerSnapshot().TotalCalls()
		resp, data := postJSON(t, followerTS.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		if resp.StatusCode != 200 {
			t.Fatalf("follower /v1/query = %d: %s", resp.StatusCode, data)
		}
		var qr api.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Source != api.SourceMemory {
			t.Errorf("follower regenerated %s (source %q), want memory", e.ID, qr.Source)
		}
		if delta := followerSim.LedgerSnapshot().TotalCalls() - before; delta != 0 {
			t.Errorf("follower memory hit for %s made %d LLM calls", e.ID, delta)
		}
	}
}
