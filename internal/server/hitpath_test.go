package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
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

// attrMap returns a span's attributes as a map of their values.
func attrMap(as obs.Attrs) map[string]any {
	m := make(map[string]any, len(as))
	for _, a := range as {
		m[a.Key] = a.Value()
	}
	return m
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
// step on both routes. A hit did one cache lookup and nothing else:
// evserve.lookup{cache_hit:true}. A miss generated on its own request:
// evserve.lookup{cache_hit:false} with an evserve.generate child (and, on
// /v1/query, the pipeline's stages under the evidence span).
func TestEvidenceSpansHitAndMiss(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	corpus := testCorpus(t)

	// lookup checks the one evserve.lookup span and its children.
	lookup := func(t *testing.T, rec *obs.TraceRecord, hit bool) obs.Span {
		t.Helper()
		lks := spansNamed(rec, "evserve.lookup")
		if len(lks) != 1 || attrMap(lks[0].Attrs)["cache_hit"] != hit {
			t.Fatalf("hit=%v: evserve.lookup spans %+v, want one with cache_hit=%v", hit, lks, hit)
		}
		want := map[string]int{"evserve.generate": 1}
		if hit {
			want = map[string]int{}
		}
		if kids := childNames(rec, lks[0]); !reflect.DeepEqual(kids, want) {
			t.Errorf("hit=%v: evserve.lookup has children %v, want %v", hit, kids, want)
		}
		return lks[0]
	}

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
			if len(evs) != 1 || attrMap(evs[0].Attrs)["cache_hit"] != hit {
				t.Fatalf("hit=%v: evidence spans %+v", hit, evs)
			}
			if lk := lookup(t, rec, hit); lk.ParentID != evs[0].SpanID {
				t.Errorf("hit=%v: evserve.lookup is not under the evidence span", hit)
			}
			stages := 0
			if !hit {
				stages = len(qr.EvidenceTrace.Stages)
			}
			kids := childNames(rec, evs[0])
			if n := len(spansNamed(rec, "stage:")); n != stages || len(kids) != 1+stages {
				t.Errorf("hit=%v: %d stage spans, evidence children %v; want %d stages", hit, n, kids, stages)
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
			if er.CacheHit != hit || er.Variant != "seed_gpt" {
				t.Fatalf("hit=%v: response cache_hit %v, variant %q", hit, er.CacheHit, er.Variant)
			}
			lookup(t, rec, hit)
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
// cache_hits — and only a miss generates.
func TestEvidenceProbeCountedOncePerRequest(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	e := testCorpus(t).Dev[0]
	req := api.QueryRequest{DB: e.DB, Question: e.Question}
	counts := func() [3]int64 {
		ev := srv.Metrics().Evidence["bird"]
		return [3]int64{ev.CacheMisses, ev.CacheHits, ev.Generations}
	}
	for _, step := range []struct {
		name, path string
		want       [3]int64 // misses, hits, generations so far
	}{
		{"cold query", "/v1/query", [3]int64{1, 0, 1}},
		{"warm query", "/v1/query", [3]int64{1, 1, 1}},
		{"warm evidence", "/v1/evidence", [3]int64{1, 2, 1}},
	} {
		if resp, data := postJSON(t, ts.URL+step.path, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %s", step.name, resp.StatusCode, data)
		}
		if got := counts(); got != step.want {
			t.Errorf("after the %s: misses/hits/generations = %v, want %v", step.name, got, step.want)
		}
	}
}

// TestSameKeyConcurrentMissesGenerateOnce: three concurrent cold requests
// for one key are one generation — the second and third join the first's
// — and three counted probes, not six.
func TestSameKeyConcurrentMissesGenerateOnce(t *testing.T) {
	srv, ts, release := newGatedServer(t, nil)
	e := testCorpus(t).Dev[0]
	body, _ := json.Marshal(api.QueryRequest{DB: e.DB, Question: e.Question})
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
	waitFor(t, "two requests to join the generation", func() bool { return srv.Metrics().Evidence["bird"].Dedups == 2 })
	release()
	wg.Wait()
	if texts[0] == "" || texts[1] != texts[0] || texts[2] != texts[0] {
		t.Errorf("the three answers differ: %q", texts)
	}
	ev := srv.Metrics().Evidence["bird"]
	if ev.Generations != 1 || ev.Dedups != 2 {
		t.Errorf("generations = %d, dedups = %d; want 1, 2", ev.Generations, ev.Dedups)
	}
	if ev.CacheMisses != 3 || ev.CacheHits != 0 {
		t.Errorf("cache counted %d misses + %d hits for 3 concurrent cold requests, want 3 + 0", ev.CacheMisses, ev.CacheHits)
	}
}

// TestEvidenceTimeoutAbandonsGeneration: a request whose deadline passes
// while its evidence generates answers 504 at the deadline, not when the
// generation ends; the generation finishes anyway, so the repeat is a
// cache hit without a second one.
func TestEvidenceTimeoutAbandonsGeneration(t *testing.T) {
	srv, ts, release := newGatedServer(t, func(cfg *Config) {
		cfg.RequestTimeout = 50 * time.Millisecond
	})
	e := testCorpus(t).Dev[0]
	req := api.QueryRequest{DB: e.DB, Question: e.Question}
	body, _ := json.Marshal(req)
	// A client deadline, so a request that waits out the generation fails
	// the test instead of waiting for a gate only the test can open.
	client := &http.Client{Timeout: 5 * time.Second}
	start := time.Now()
	resp, err := client.Post(ts.URL+"/v1/evidence", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timed-out request answered after %v, want about the 50 ms deadline", elapsed)
	}
	var env api.Error
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout || env.Code != api.CodeUpstreamTimeout {
		t.Fatalf("timed-out request = %d %s, want 504 %s", resp.StatusCode, data, api.CodeUpstreamTimeout)
	}

	release()
	svc := srv.services["bird"]
	waitFor(t, "the abandoned generation to land", func() bool {
		st := svc.Stats()
		return st.Generations == 1 && st.Inflight == 0
	})
	resp, data = postJSON(t, ts.URL+"/v1/evidence", req)
	var er api.EvidenceResponse
	if err := json.Unmarshal(data, &er); err != nil || resp.StatusCode != http.StatusOK || !er.CacheHit {
		t.Fatalf("repeat = %d %s, want a 200 cache hit", resp.StatusCode, data)
	}
	if n := svc.Stats().Generations; n != 1 {
		t.Errorf("generations = %d, want 1", n)
	}
}

// TestEvidenceHitsAndMissesRaceClose hammers cache hits and fresh misses
// through the HTTP handler while the server closes under them: every
// request answers 200 or 503 — never a hang, a panic or another status —
// Close returns only once no generation is running, and a cached key
// answers 503 afterwards. Run with -race.
func TestEvidenceHitsAndMissesRaceClose(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	dev := testCorpus(t).Dev
	const warm = 4
	for _, e := range dev[:warm] {
		if resp, data := postJSON(t, ts.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: e.Question}); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up = %d: %s", resp.StatusCode, data)
		}
	}
	var wg sync.WaitGroup
	var answered, closed atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				e := dev[(g+i)%warm]
				q := e.Question
				if i%2 == 1 { // a question never asked before: a miss
					q = fmt.Sprintf("%s (%d-%d)", q, g, i)
				}
				body, _ := json.Marshal(api.QueryRequest{DB: e.DB, Question: q})
				resp, err := http.Post(ts.URL+"/v1/evidence", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					answered.Add(1)
				case http.StatusServiceUnavailable:
					closed.Add(1)
				default:
					t.Errorf("request = %d %s, want 200 or 503", resp.StatusCode, data)
					return
				}
			}
		}()
	}
	svc := srv.services["bird"]
	waitFor(t, "traffic to reach the service", func() bool { return svc.Stats().Generations > warm })
	srv.Close()
	if n := svc.Stats().Inflight; n != 0 {
		t.Errorf("Close returned with %d generations running", n)
	}
	wg.Wait()
	if answered.Load() == 0 || closed.Load() == 0 {
		t.Logf("answered %d, closed %d: the close did not land mid-traffic", answered.Load(), closed.Load())
	}
	e := dev[0]
	if resp, data := postJSON(t, ts.URL+"/v1/evidence", api.QueryRequest{DB: e.DB, Question: e.Question}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("cached key on a closed server = %d %s, want 503", resp.StatusCode, data)
	}
}
