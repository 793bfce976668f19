package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// serveQuery serves one /v1/query in-process, with hdr's headers, and
// returns its recorder.
func serveQuery(t *testing.T, h http.Handler, body []byte, hdr http.Header) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	for k, v := range hdr {
		req.Header[k] = v
	}
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("/v1/query = %d: %s", rr.Code, rr.Body)
	}
	return rr
}

// queryAllocs is the mean allocations and bytes of serving body runs
// times, on one P, as testing.AllocsPerRun counts them but not rounded
// down.
func queryAllocs(t *testing.T, h http.Handler, body []byte, hdr http.Header, runs int) (allocs, bytes float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		serveQuery(t, h, body, hdr)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// memoryHitQuestion returns a dev question whose repeat the query memory
// answers.
func memoryHitQuestion(t *testing.T, c *dataset.Corpus) []byte {
	t.Helper()
	srv, _ := newTestServer(t, func(cfg *Config) { cfg.Memory, cfg.TraceCapacity = true, -1 })
	for _, e := range c.Dev {
		body, err := json.Marshal(api.QueryRequest{DB: e.DB, Question: e.Question})
		if err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			continue
		}
		var resp api.QueryResponse
		if err := json.Unmarshal(serveQuery(t, srv.Handler(), body, nil).Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Source == api.SourceMemory {
			return body
		}
	}
	t.Fatal("no dev question repeats as a memory hit")
	return nil
}

// retainedPerRecord is the heap one finished trace keeps: n traced
// requests' records are held, the store is rotated past them, and the
// heap they free on release is divided among them.
func retainedPerRecord(t *testing.T, srv *Server, h http.Handler, body []byte, hdr http.Header, n int) float64 {
	t.Helper()
	recs := make([]*obs.TraceRecord, n)
	for i := range recs {
		if recs[i] = srv.Traces().Get(serveQuery(t, h, body, hdr).Header().Get(obs.TraceIDHeader)); recs[i] == nil {
			t.Fatal("traced request left no record")
		}
	}
	for range 16 {
		serveQuery(t, h, body, hdr)
	}
	var held, freed runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(recs)
	recs = nil
	runtime.GC()
	runtime.ReadMemStats(&freed)
	return (float64(held.HeapAlloc) - float64(freed.HeapAlloc)) / float64(n)
}

// TestTraceAllocations bounds what tracing costs a /v1/query on each
// tier, sent directly and, as fleet.Router forwards it, with an
// X-Fleet-Attempt header (which adds a router.forward span): the
// allocations a traced request (TraceCapacity 4) makes beyond the same
// request untraced (TraceCapacity -1), and the heap a retained record
// keeps. Allocations and heap are compared outside the race detector,
// whose instrumentation allocates; under it each tier's span count is
// checked alone.
func TestTraceAllocations(t *testing.T) {
	c := testCorpus(t)
	cacheBody, err := json.Marshal(api.QueryRequest{DB: c.Dev[0].DB, Question: c.Dev[0].Question})
	if err != nil {
		t.Fatal(err)
	}
	routed := http.Header{obs.FleetAttemptHeader: {"0"}}
	for _, tier := range []struct {
		name   string
		source string
		memory bool
		cache  int // EvidenceCache: -1 makes every request a generation
		body   []byte
		hdr    http.Header
		spans  int
		// extra bounds the allocations a traced request makes beyond an
		// untraced one, as measured (go1.24.0). Before the trace owned
		// its storage they were 35, 62, 68, 87 and 93.
		extra float64
		// retained bounds the heap a retained record keeps at what it
		// kept before the trace owned its storage (go1.24.0). It keeps
		// 1,311, 2,223, 2,767, 4,317 and 4,335 B now.
		retained float64
	}{
		{"memory_hit", api.SourceMemory, true, 0, memoryHitQuestion(t, c), nil, 3, 5, 1444},
		{"cache_hit", api.SourceCache, false, 0, cacheBody, nil, 7, 8, 3070},
		{"routed_cache_hit", api.SourceCache, false, 0, cacheBody, routed, 8, 9, 3550},
		{"generation", api.SourceGenerated, false, -1, cacheBody, nil, 13, 11, 4752},
		{"routed_generation", api.SourceGenerated, false, -1, cacheBody, routed, 14, 11, 5360},
	} {
		t.Run(tier.name, func(t *testing.T) {
			server := func(traceCapacity int) (*Server, http.Handler) {
				srv, _ := newTestServer(t, func(cfg *Config) {
					cfg.Memory, cfg.EvidenceCache, cfg.TraceCapacity = tier.memory, tier.cache, traceCapacity
				})
				h := srv.Handler()
				// Warm past the trace rings' capacity, so the store only
				// rotates while allocations are counted.
				for range 12 {
					serveQuery(t, h, tier.body, tier.hdr)
				}
				return srv, h
			}
			srv, traced := server(4)
			_, untraced := server(-1)

			rr := serveQuery(t, traced, tier.body, tier.hdr)
			var resp api.QueryResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Source != tier.source {
				t.Fatalf("source %q, want %q", resp.Source, tier.source)
			}
			rec := srv.Traces().Get(rr.Header().Get(obs.TraceIDHeader))
			if rec == nil || len(rec.Spans) != tier.spans {
				t.Fatalf("trace %+v, want %d spans", rec, tier.spans)
			}
			if raceEnabled {
				t.Log("race detector on: allocations and heap not compared")
				return
			}
			const runs = 200
			tracedAllocs, tracedBytes := queryAllocs(t, traced, tier.body, tier.hdr, runs)
			untracedAllocs, untracedBytes := queryAllocs(t, untraced, tier.body, tier.hdr, runs)
			extra := tracedAllocs - untracedAllocs
			t.Logf("a traced %s allocates %.2f times (%.0f B) more than an untraced one (bound %.0f)", tier.name, extra, tracedBytes-untracedBytes, tier.extra)
			// Rounded: the runtime's own allocations land in either count.
			if math.Round(extra) > tier.extra {
				t.Errorf("a traced %s allocates %.2f times more than an untraced one, over the %.0f measured", tier.name, extra, tier.extra)
			}
			b := retainedPerRecord(t, srv, traced, tier.body, tier.hdr, 256)
			t.Logf("a retained %s record keeps %.0f B (before: %.0f B)", tier.name, b, tier.retained)
			if b > tier.retained {
				t.Errorf("a retained %s record keeps %.0f B, more than the %.0f B it kept before", tier.name, b, tier.retained)
			}
		})
	}
}
