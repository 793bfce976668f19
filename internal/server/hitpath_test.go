package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// postTraced posts body to path and returns the response body with the
// trace the request left in the server's trace store.
func postTraced(t *testing.T, srv *Server, base, path string, body any) ([]byte, *obs.TraceRecord) {
	t.Helper()
	resp, data := postJSON(t, base+path, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, data)
	}
	rec := srv.Traces().Get(resp.Header.Get(obs.TraceIDHeader))
	if rec == nil {
		t.Fatalf("POST %s left no trace", path)
	}
	return data, rec
}

// spansNamed returns the record's spans whose name starts with prefix: a
// whole span name, or "stage:" for every pipeline stage.
func spansNamed(rec *obs.TraceRecord, prefix string) []obs.Span {
	var out []obs.Span
	for _, sp := range rec.Spans {
		if strings.HasPrefix(sp.Name, prefix) {
			out = append(out, sp)
		}
	}
	return out
}

func childNames(rec *obs.TraceRecord, parent obs.Span) map[string]int {
	names := make(map[string]int)
	for _, sp := range rec.Spans {
		if sp.ParentID == parent.SpanID {
			names[sp.Name]++
		}
	}
	return names
}

// TestEvidenceSpansHitAndMiss pins what a trace says about the evidence
// step on both routes. A miss waited for a batch: batcher.wait{batch_size}
// (and, on /v1/query, the pipeline's stages) and no evserve.lookup — the batch
// runs under its own context. A hit did one cache lookup on its own
// goroutine: evserve.lookup{cache_hit:true} and nothing else — no
// batcher.wait, because it did not wait.
func TestEvidenceSpansHitAndMiss(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	corpus := testCorpus(t)

	t.Run("query", func(t *testing.T) {
		e := corpus.Dev[0]
		req := api.QueryRequest{DB: e.DB, Question: e.Question}
		for _, hit := range []bool{false, true} {
			data, rec := postTraced(t, srv, ts.URL, "/v1/query", req)
			var qr api.QueryResponse
			if err := json.Unmarshal(data, &qr); err != nil {
				t.Fatal(err)
			}
			if qr.EvidenceCacheHit != hit || qr.EvidenceTrace == nil {
				t.Fatalf("hit=%v: response cache_hit %v, evidence_trace %v", hit, qr.EvidenceCacheHit, qr.EvidenceTrace)
			}
			evs := spansNamed(rec, "evidence")
			if len(evs) != 1 || evs[0].Attrs["cache_hit"] != hit {
				t.Fatalf("hit=%v: evidence spans %+v", hit, evs)
			}
			kids := childNames(rec, evs[0])
			if hit {
				if len(kids) != 1 || kids["evserve.lookup"] != 1 {
					t.Errorf("hit: evidence has children %v, want one evserve.lookup", kids)
				}
				if lk := spansNamed(rec, "evserve.lookup"); len(lk) != 1 || lk[0].Attrs["cache_hit"] != true {
					t.Errorf("hit: evserve.lookup spans %+v, want one with cache_hit=true", lk)
				}
				if n := len(spansNamed(rec, "batcher.wait")); n != 0 {
					t.Errorf("hit: %d batcher.wait spans, want none", n)
				}
				continue
			}
			waits := spansNamed(rec, "batcher.wait")
			if kids["batcher.wait"] != 1 || len(waits) != 1 || waits[0].Attrs["batch_size"] != 1 {
				t.Errorf("miss: batcher.wait spans %+v under evidence %v, want one with batch_size=1", waits, kids)
			}
			if n := len(spansNamed(rec, "stage:")); n == 0 || n != len(qr.EvidenceTrace.Stages) || n != len(kids)-1 {
				t.Errorf("miss: %d stage spans for %d traced stages (evidence children %v)", n, len(qr.EvidenceTrace.Stages), kids)
			}
			if n := len(spansNamed(rec, "evserve.lookup")); n != 0 {
				t.Errorf("miss: %d evserve.lookup spans, want none", n)
			}
		}
	})

	t.Run("evidence", func(t *testing.T) {
		e := corpus.Dev[1]
		req := api.QueryRequest{DB: e.DB, Question: e.Question}
		for _, hit := range []bool{false, true} {
			data, rec := postTraced(t, srv, ts.URL, "/v1/evidence", req)
			var er api.EvidenceResponse
			if err := json.Unmarshal(data, &er); err != nil {
				t.Fatal(err)
			}
			if er.CacheHit != hit {
				t.Fatalf("hit=%v: response cache_hit %v", hit, er.CacheHit)
			}
			lookups, waits := spansNamed(rec, "evserve.lookup"), spansNamed(rec, "batcher.wait")
			if hit {
				if len(lookups) != 1 || lookups[0].Attrs["cache_hit"] != true || len(waits) != 0 {
					t.Errorf("hit: lookups %+v, waits %+v; want one evserve.lookup{cache_hit:true} and no wait", lookups, waits)
				}
			} else if len(waits) != 1 || waits[0].Attrs["batch_size"] != 1 || len(lookups) != 0 {
				t.Errorf("miss: lookups %+v, waits %+v; want one batcher.wait{batch_size:1} and no lookup", lookups, waits)
			}
		}
	})
}

// TestWarmTraceHasNoStageSpans: a cache hit ran no pipeline stage, so its trace
// must not show any — replaying the cached generation's stages under a
// microsecond-long evidence span hangs children off a parent that ended
// before they started. Every span of a warm trace lies inside its parent;
// the response's evidence_trace still carries the provenance.
func TestWarmTraceHasNoStageSpans(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	e := testCorpus(t).Dev[0]
	req := api.QueryRequest{DB: e.DB, Question: e.Question}
	postTraced(t, srv, ts.URL, "/v1/query", req)
	data, rec := postTraced(t, srv, ts.URL, "/v1/query", req)

	var qr api.QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Source != api.SourceCache || qr.EvidenceTrace == nil || len(qr.EvidenceTrace.Stages) == 0 {
		t.Fatalf("warm repeat: source %q, evidence_trace %+v; want a cache hit that still explains itself", qr.Source, qr.EvidenceTrace)
	}
	if stages := spansNamed(rec, "stage:"); len(stages) != 0 {
		t.Errorf("warm trace has %d stage spans for stages this request did not run", len(stages))
	}
	byID := make(map[string]obs.Span, len(rec.Spans))
	for _, sp := range rec.Spans {
		byID[sp.SpanID] = sp
	}
	// Start and duration are each truncated to the microsecond (and a
	// duration floored at one), so a child can overhang by the rounding.
	const slack = 2
	for _, sp := range rec.Spans {
		p, ok := byID[sp.ParentID]
		if !ok {
			continue
		}
		if sp.StartMicros < p.StartMicros-slack || sp.StartMicros+sp.DurationMicros > p.StartMicros+p.DurationMicros+slack {
			t.Errorf("span %s [%d, +%d us] is not inside its parent %s [%d, +%d us]",
				sp.Name, sp.StartMicros, sp.DurationMicros, p.Name, p.StartMicros, p.DurationMicros)
		}
	}
}

// TestEvidenceProbeCountedOncePerRequest is the counting contract the
// bench and /metrics read: each request moves the evidence cache's
// counters by exactly one — a cold one cache_misses, a warm one
// cache_hits — and only a request with something to generate is batched.
func TestEvidenceProbeCountedOncePerRequest(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	e := testCorpus(t).Dev[0]
	req := api.QueryRequest{DB: e.DB, Question: e.Question}
	counts := func() [3]int64 {
		m := srv.Metrics()
		ev, b := m.Evidence["bird"], m.Batcher["bird"]
		if b.BatchedRequests != b.Batches {
			t.Fatalf("serial requests shared a batch: %+v", b)
		}
		return [3]int64{ev.CacheMisses, ev.CacheHits, b.Batches}
	}
	for _, step := range []struct {
		name, path string
		want       [3]int64 // misses, hits, batches so far
	}{
		{"cold query", "/v1/query", [3]int64{1, 0, 1}},
		{"warm query", "/v1/query", [3]int64{1, 1, 1}},
		{"warm evidence", "/v1/evidence", [3]int64{1, 2, 1}},
	} {
		if resp, data := postJSON(t, ts.URL+step.path, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %s", step.name, resp.StatusCode, data)
		}
		if got := counts(); got != step.want {
			t.Errorf("after the %s: misses/hits/batches = %v, want %v", step.name, got, step.want)
		}
	}
}

// TestSameKeyMissesInOneBatchGenerateOnce: three concurrent cold requests
// for one key, dispatched as one batch to a one-worker pool, are one
// generation — the second and third jobs find the first's entry when the
// pool re-reads the cache — and three counted probes, not six.
func TestSameKeyMissesInOneBatchGenerateOnce(t *testing.T) {
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.EvidenceWorkers = 1
		cfg.BatchWindow = time.Hour // the batch leaves when it is full
		cfg.BatchMax = 3
	})
	e := testCorpus(t).Dev[0]
	req := api.QueryRequest{DB: e.DB, Question: e.Question}
	body, _ := json.Marshal(req)
	texts := make([]string, 3)
	var wg sync.WaitGroup
	for i := range texts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/evidence", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var er api.EvidenceResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("request %d = %d, %v", i, resp.StatusCode, err)
			}
			texts[i] = er.Evidence
		}()
	}
	wg.Wait()
	if texts[0] == "" || texts[1] != texts[0] || texts[2] != texts[0] {
		t.Errorf("the three answers differ: %q", texts)
	}
	m := srv.Metrics()
	ev, b := m.Evidence["bird"], m.Batcher["bird"]
	if ev.Generations != 1 {
		t.Errorf("generations = %d, want 1", ev.Generations)
	}
	if b.Batches != 1 || b.BatchedRequests != 3 || b.SizeFlushes != 1 {
		t.Errorf("batcher = %+v, want one size-flushed batch of 3", b)
	}
	if ev.CacheMisses+ev.CacheHits != 3 {
		t.Errorf("cache counted %d misses + %d hits for 3 requests", ev.CacheMisses, ev.CacheHits)
	}
}
