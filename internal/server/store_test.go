package server

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/seed"
)

// newStoreServer builds a serving stack with durable evidence over dir.
// Unlike newTestServer it returns the close function instead of deferring
// it, because restart tests must tear the first life down mid-test.
func newStoreServer(t *testing.T, dir string, client llm.Client) (*Server, *httptest.Server, func()) {
	t.Helper()
	srv, err := New(Config{
		Corpora:   []*dataset.Corpus{testCorpus(t)},
		Client:    client,
		Variant:   seed.VariantGPT,
		StoreDir:  dir,
		StoreSeed: 7, // testCorpus's generation seed
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	stop := func() {
		ts.Close()
		srv.Close()
	}
	t.Cleanup(stop) // Close is idempotent, so an explicit stop + cleanup is safe
	return srv, ts, stop
}

// TestServerWarmRestartServesFromStore is the serving-level half of the
// durability golden test: a server shut down and restarted over the same
// store directory answers /v1/evidence byte-identically — evidence and
// trace — from the replayed store, with zero evidence generations and
// zero simulated LLM calls.
func TestServerWarmRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	examples := testCorpus(t).Dev[:6]

	type evResp struct {
		Evidence string          `json:"evidence"`
		Trace    json.RawMessage `json:"evidence_trace"`
		CacheHit bool            `json:"evidence_cache_hit"`
	}

	// First life: populate the store through real requests.
	_, ts, stop := newStoreServer(t, dir, llm.NewSimulator())
	want := make(map[string]evResp, len(examples))
	for _, e := range examples {
		resp, body := postJSON(t, ts.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: e.Question})
		if resp.StatusCode != 200 {
			t.Fatalf("first life /v1/evidence = %d: %s", resp.StatusCode, body)
		}
		var r evResp
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		want[e.ID] = r
	}
	stop()

	// Second life: fresh server, fresh simulator, same store directory.
	sim := llm.NewSimulator()
	srv2, ts2, _ := newStoreServer(t, dir, sim)
	for _, e := range examples {
		resp, body := postJSON(t, ts2.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: e.Question})
		if resp.StatusCode != 200 {
			t.Fatalf("restarted /v1/evidence = %d: %s", resp.StatusCode, body)
		}
		var r evResp
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if !r.CacheHit {
			t.Fatalf("restarted server missed the replayed cache for %s", e.ID)
		}
		w := want[e.ID]
		if r.Evidence != w.Evidence {
			t.Fatalf("evidence for %s changed across restart:\n before %q\n after  %q", e.ID, w.Evidence, r.Evidence)
		}
		if string(r.Trace) != string(w.Trace) {
			t.Fatalf("trace for %s not byte-identical across restart:\n before %s\n after  %s", e.ID, w.Trace, r.Trace)
		}
	}

	snap := srv2.Metrics()
	ev := snap.Evidence["bird"]
	if ev.Generations != 0 {
		t.Errorf("restarted server ran %d generations, want 0", ev.Generations)
	}
	if ev.Restored < int64(len(examples)) {
		t.Errorf("restarted server restored %d entries, want >= %d", ev.Restored, len(examples))
	}
	st, ok := snap.Store["bird"]
	if !ok {
		t.Fatal("/metrics has no store section for bird")
	}
	if st.Records < len(examples) {
		t.Errorf("store metrics report %d records, want >= %d", st.Records, len(examples))
	}
	if calls := sim.LedgerSnapshot().TotalCalls(); calls != 0 {
		t.Errorf("restarted server made %d simulated LLM calls serving warm evidence, want 0", calls)
	}
}

// TestMetricsOmitStoreWhenDisabled pins the /metrics shape: no store
// section unless StoreDir is set, and no phantom restore counters.
func TestMetricsOmitStoreWhenDisabled(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	snap := srv.Metrics()
	if snap.Store != nil {
		t.Fatalf("store metrics present without a store: %+v", snap.Store)
	}
	if ev := snap.Evidence["bird"]; ev.Restored != 0 || ev.StoreAppends != 0 {
		t.Fatalf("phantom store counters: %+v", ev)
	}
}

// TestStoreSharedAcrossQueryAndEvidenceRoutes: evidence generated through
// /v1/query is durable too — the store is wired under the evidence
// service, not a single route.
func TestStoreSharedAcrossQueryAndEvidenceRoutes(t *testing.T) {
	dir := t.TempDir()
	e := testCorpus(t).Dev[0]

	srv, ts, _ := newStoreServer(t, dir, llm.NewSimulator())
	resp, body := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/query = %d: %s", resp.StatusCode, body)
	}
	var q api.QueryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	snap := srv.Metrics()
	if ev := snap.Evidence["bird"]; ev.StoreAppends == 0 {
		t.Fatalf("query-path generation was not persisted: %+v", ev)
	}
	if st := snap.Store["bird"]; st.Appends == 0 {
		t.Fatalf("store saw no appends: %+v", st)
	}
	// The same entry then serves /v1/evidence as a hit.
	resp, body = postJSON(t, ts.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: e.Question})
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/evidence = %d: %s", resp.StatusCode, body)
	}
	var ev struct {
		Evidence string `json:"evidence"`
		CacheHit bool   `json:"evidence_cache_hit"`
	}
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatal(err)
	}
	if !ev.CacheHit || ev.Evidence != q.Evidence {
		t.Fatalf("evidence route did not share the query route's entry: %+v vs %q", ev, q.Evidence)
	}
}

// TestDuplicateCorpusReleasesStore: the duplicate-corpus error path must
// release resources already started — observable because a second,
// valid New over the same store directory only works if the first
// attempt's store handle was closed.
func TestDuplicateCorpusReleasesStore(t *testing.T) {
	dir := t.TempDir()
	corpus := testCorpus(t)
	_, err := New(Config{
		Corpora:  []*dataset.Corpus{corpus, corpus},
		Client:   llm.NewSimulator(),
		StoreDir: dir,
		Logger:   quietLogger(),
	})
	if err == nil {
		t.Fatal("New accepted a duplicate corpus")
	}
	srv, err := New(Config{
		Corpora:  []*dataset.Corpus{corpus},
		Client:   llm.NewSimulator(),
		StoreDir: dir,
		Logger:   quietLogger(),
	})
	if err != nil {
		t.Fatalf("store not released by the failed construction: %v", err)
	}
	srv.Close()
}

// TestNewFailsOnUnusableStoreDir: a store directory that cannot be
// created fails construction with a useful error instead of silently
// serving without durability.
func TestNewFailsOnUnusableStoreDir(t *testing.T) {
	dir := t.TempDir()
	// Park a file where the per-corpus directory should go.
	if err := os.WriteFile(filepath.Join(dir, "bird"), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{
		Corpora:  []*dataset.Corpus{testCorpus(t)},
		Client:   llm.NewSimulator(),
		StoreDir: dir,
		Logger:   quietLogger(),
	})
	if err == nil {
		t.Fatal("New accepted an unusable store directory")
	}
}
