package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/llm"
	"repro/internal/obs"
)

// Failure classes the harness adds to the envelope codes of api.Error.
const (
	classAbandoned = "abandoned"  // round overran; the op was never issued
	classBadBody   = "bad_body"   // 2xx whose body is not an api.QueryResponse
	classNoCode    = "http_"      // non-2xx without an envelope code: http_<status>
	transportPfx   = "transport_" // transport_timeout, transport_refused, ...
	abandonFactor  = 4            // a round this many times its nominal length is abandoned
)

// opResult is what one op produced, as the client saw it.
type opResult struct {
	q       int           // index into the workload's question list (or pair list)
	latency time.Duration // client-side
	// class is "" for a 2xx with a well-formed body, else the envelope
	// code or a harness class above.
	class string
	// resp is the decoded body of a 2xx and body its bytes. They live
	// until the round is settled: a round that kept every body it decoded
	// would grow the heap, and with it every later round's GC work.
	resp    *api.QueryResponse
	body    []byte
	source  string // resp.Source, kept
	bytes   int    // response body size
	correct bool   // filled in after the round by the judge
}

// roundResult is one measured round: per-op outcomes plus the process
// deltas taken around it.
type roundResult struct {
	ops       []opResult
	wall      time.Duration
	cpu       time.Duration // getrusage user+sys, whole process
	allocB    uint64        // MemStats.TotalAlloc delta
	mallocs   uint64        // MemStats.Mallocs delta
	llmCalls  int
	llmTokens int
	digest    string // of this round's answers, see digestOf
	heap0     uint64
	gcs       uint32
	gcPause   time.Duration
	counters  counters // traced rounds only: the program's own counters over the round
}

func (r *roundResult) failed() int {
	n := 0
	for i := range r.ops {
		if r.ops[i].class != "" {
			n++
		}
	}
	return n
}

// classify names a non-2xx answer by its envelope code.
func classify(status int, body []byte) string {
	var e api.Error
	if json.Unmarshal(body, &e) == nil && e.Code != "" {
		return e.Code
	}
	return fmt.Sprintf("%s%d", classNoCode, status)
}

// classifyTransport names a request that produced no HTTP answer.
func classifyTransport(err error) string {
	var ne net.Error
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.As(err, &ne) && ne.Timeout():
		return transportPfx + "timeout"
	case errors.Is(err, syscall.ECONNREFUSED):
		return transportPfx + "refused"
	case errors.Is(err, syscall.ECONNRESET), errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return transportPfx + "reset"
	}
	return transportPfx + "error"
}

// client is one closed-loop caller on one keep-alive connection.
type client struct {
	http *http.Client
	url  string
}

func newClient(base string) *client {
	return &client{
		url: base + queryPath,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// query issues one /v1/query and classifies the answer. With a recorder
// it wraps the call in a client span and hangs the phases the response's
// timing block reports under the server handler's span.
func (c *client) query(payload []byte, reqID string, rec *recorder) opResult {
	var res opResult
	sp := rec.begin(spanClient, reqID)
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(payload))
	if err != nil {
		panic(err) // fixed method and URL: only a harness bug gets here
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := c.http.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	switch {
	case err != nil:
		res.class = classifyTransport(err)
	case resp.StatusCode/100 != 2:
		res.class = classify(resp.StatusCode, body)
	default:
		var qr api.QueryResponse
		if json.Unmarshal(body, &qr) != nil || qr.Source == "" {
			res.class = classBadBody
		} else {
			res.resp, res.body = &qr, body
		}
	}
	res.bytes = len(body)
	res.latency = time.Since(t0)
	rec.end(sp)
	if rec != nil {
		if res.resp != nil {
			addTimingSpans(rec, reqID, res.resp.Timing)
		}
		rec.forget(reqID)
	}
	return res
}

// Names of the spans derived from api.QueryTiming, in serving order.
var timingSpans = [...]string{"server.timing.memory", "server.timing.evidence", "server.timing.generate", "server.timing.prepare", "server.timing.execute"}

// addTimingSpans lays the response's phase durations end to end under the
// handler span that produced them. The phases run in this order without
// overlap; their offsets inside the handler are not reported, so they
// start at the handler's start. Self-time arithmetic needs only that
// they are disjoint and inside the parent.
func addTimingSpans(rec *recorder, reqID string, t api.QueryTiming) {
	h, ok := rec.last(reqID, spanServer)
	if !ok {
		return
	}
	at := h.Start
	for i, us := range [...]int64{t.MemoryMicros, t.EvidenceMicros, t.GenerateMicros, t.PrepareMicros, t.ExecuteMicros} {
		end := at + us*1000
		rec.add(timingSpans[i], reqID, h.ID, at, end)
		at = end
	}
}

// ledgerTotals sums calls and prompt+completion tokens over models.
func ledgerTotals(sim *llm.Simulator) (calls, tokens int) {
	for _, u := range sim.LedgerSnapshot().PerModel {
		calls += u.Calls
		tokens += u.PromptTokens + u.CompletionTokens
	}
	return calls, tokens
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRound issues order's ops from nClients closed-loop goroutines that
// take the next op off one shared cursor, and measures the process
// around them. do(client, seq, q) performs op q, the seq-th of the round.
// Ops not issued within abandonAfter are marked abandoned: they count as
// attempted and failed.
func runRound(nClients int, order []int, abandonAfter time.Duration, sim *llm.Simulator, do func(client, seq, q int) opResult) roundResult {
	res := roundResult{ops: make([]opResult, len(order))}
	for i, q := range order {
		res.ops[i] = opResult{q: q, class: classAbandoned}
	}
	// Every round starts from a collected heap, so what the previous
	// workload's round left behind is not this round's GC work.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	calls0, tokens0 := ledgerTotals(sim)
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(abandonAfter)

	var cursor atomic.Int64
	var wg sync.WaitGroup
	for c := range nClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(order) || time.Now().After(deadline) {
					return
				}
				r := do(c, i, order[i])
				r.q = order[i]
				res.ops[i] = r
			}
		}()
	}
	wg.Wait()

	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	calls1, tokens1 := ledgerTotals(sim)
	res.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.llmCalls, res.llmTokens = calls1-calls0, tokens1-tokens0
	return res
}

// passes returns n whole passes over [0,size), each its own permutation
// drawn from rng: the mix of a round is fixed, only its order is seeded.
func passes(rng *rand.Rand, size, n int) []int {
	out := make([]int, 0, size*n)
	for range n {
		out = append(out, rng.Perm(size)...)
	}
	return out
}

// orderRNG derives the per-(workload, round) source of op order from the
// traffic seed.
func orderRNG(seed uint64, workload string, round int) *rand.Rand {
	var h uint64 = 1469598103934665603
	for _, b := range []byte(workload) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h+uint64(round)))
}

// heapAfterGC is the live heap once garbage is gone. Two collections:
// the first frees what sync.Pools and finalizers were holding.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mustMkdirTemp(root, pattern string) string {
	dir, err := os.MkdirTemp(root, pattern)
	if err != nil {
		panic(fmt.Sprintf("bench: scratch directory: %v", err))
	}
	return dir
}
