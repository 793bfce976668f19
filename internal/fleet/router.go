package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// Config assembles a Router. Replicas is required; everything else has
// fleet-shaped defaults.
type Config struct {
	// Replicas are the seedd backend base URLs (e.g.
	// "http://127.0.0.1:8081"). The consistent-hash ring is built over
	// exactly this set.
	Replicas []string
	// VirtualNodes is the per-replica virtual-node count on the ring;
	// <= 0 uses DefaultVirtualNodes.
	VirtualNodes int
	// MaxAttempts bounds how many backend attempts one client request may
	// spend across retries and hedges; <= 0 defaults to 3 (or the replica
	// count, whichever is larger, so a full ring walk is always possible).
	MaxAttempts int
	// RequestTimeout is the end-to-end client deadline across all
	// attempts; <= 0 defaults to 30s.
	RequestTimeout time.Duration
	// AttemptTimeout bounds one backend attempt; <= 0 defaults to 10s.
	AttemptTimeout time.Duration
	// HedgeDelay is how long the router waits on an in-flight attempt
	// before racing a duplicate against the next ring replica. This is
	// the bounded-tail-latency knob: a replica in a latency spike costs
	// at most HedgeDelay extra, not its whole spike. <= 0 defaults to
	// 250ms.
	HedgeDelay time.Duration
	// BaseBackoff seeds the exponential backoff between retry attempts
	// after a hard failure; <= 0 defaults to 10ms. Every wait is jittered
	// to half-to-full of its nominal value so synchronized clients spread
	// out.
	BaseBackoff time.Duration
	// BreakerThreshold is the consecutive-failure count that ejects a
	// replica (see NewBreaker); <= 0 defaults to 5.
	BreakerThreshold int
	// BreakerProbation is the initial ejection duration, doubling while
	// the replica flaps up to 16x; <= 0 defaults to 1s.
	BreakerProbation time.Duration
	// ProbeInterval is the per-replica health-probe period; <= 0 disables
	// background probing (the serving path still learns from its own
	// failures).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip; <= 0 defaults to 1s.
	ProbeTimeout time.Duration
	// Logger receives structured routing logs; nil uses slog.Default().
	Logger *slog.Logger
}

// maxProxiedBody bounds the request and response bodies the router will
// buffer before forwarding or relaying them. Buffering (rather than
// streaming) is what lets a mid-body backend death turn into a retry
// instead of a truncated client response; a body over the bound is refused
// whole, never passed on cut short.
const maxProxiedBody = 32 << 20

// readBounded reads all of r, reporting over when it holds more than
// maxProxiedBody bytes.
func readBounded(r io.Reader) (body []byte, over bool, err error) {
	body, err = io.ReadAll(io.LimitReader(r, maxProxiedBody+1))
	return body, len(body) > maxProxiedBody, err
}

// Router is the fleet front tier: an http.Handler that shards /v1/query
// and /v1/evidence across replicas by consistent hash of (db, question),
// fails over along the ring, and keeps itself observable at /healthz and
// /metrics. Construct with NewRouter; Close stops the health probers.
type Router struct {
	cfg      Config
	ring     *Ring
	replicas map[string]*replica
	client   *http.Client
	log      *slog.Logger

	probeCtx    context.Context
	probeCancel context.CancelFunc
	probeWG     sync.WaitGroup

	rr    atomic.Int64 // round-robin cursor for unsharded routes
	start time.Time
	reg   *obs.Registry

	requests     atomic.Int64
	attempts     atomic.Int64
	failovers    atomic.Int64 // attempts beyond the first, per request
	hedgedWins   atomic.Int64 // requests won by a non-first attempt
	shedRetries  atomic.Int64 // 429/503 responses absorbed by retrying elsewhere
	exhausted    atomic.Int64 // requests that ran out of attempts
	clientFivexx atomic.Int64 // 5xx the router returned to its client
	clientClosed atomic.Int64 // requests abandoned by the client (499s)

	lat *obs.Histogram // end-to-end request latency, microseconds
}

// NewRouter builds the front tier and starts its health probers.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("fleet: Config.Replicas is required")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.MaxAttempts < len(cfg.Replicas) {
		// A full ring walk must always be possible: N-1 failures with a
		// healthy last replica should never exhaust the budget.
		cfg.MaxAttempts = len(cfg.Replicas)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 10 * time.Second
	}
	if cfg.HedgeDelay <= 0 {
		cfg.HedgeDelay = 250 * time.Millisecond
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 10 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	rt := &Router{
		cfg:      cfg,
		ring:     NewRing(cfg.Replicas, cfg.VirtualNodes),
		replicas: make(map[string]*replica, len(cfg.Replicas)),
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
		log:      cfg.Logger,
		start:    time.Now(),
	}
	for _, name := range rt.ring.Replicas() {
		rt.replicas[name] = newReplica(name, cfg.BreakerThreshold, cfg.BreakerProbation)
	}
	rt.initObs()
	rt.probeCtx, rt.probeCancel = context.WithCancel(context.Background())
	if cfg.ProbeInterval > 0 {
		for _, rep := range rt.replicas {
			rt.probeWG.Add(1)
			go rt.probeLoop(rep)
		}
	}
	return rt, nil
}

// probeLoop drives one replica's liveness/readiness probes until Close.
// The first probe fires immediately so a router started against a dead
// replica ejects it within one interval, not two.
func (rt *Router) probeLoop(rep *replica) {
	defer rt.probeWG.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	rep.probe(rt.probeCtx, rt.client, rt.cfg.ProbeTimeout)
	for {
		select {
		case <-rt.probeCtx.Done():
			return
		case <-t.C:
			rep.probe(rt.probeCtx, rt.client, rt.cfg.ProbeTimeout)
		}
	}
}

// Close stops the health probers. In-flight requests finish normally.
func (rt *Router) Close() {
	rt.probeCancel()
	rt.probeWG.Wait()
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", rt.stamp(rt.serveSharded))
	mux.HandleFunc("POST /v1/evidence", rt.stamp(rt.serveSharded))
	mux.HandleFunc("GET /v1/dbs", rt.stamp(rt.serveAny))
	mux.HandleFunc("GET /v1/examples", rt.stamp(rt.serveAny))
	mux.HandleFunc("GET /v1/route", rt.stamp(rt.handleRoute))
	mux.HandleFunc("GET /healthz", rt.stamp(rt.handleHealthz))
	mux.HandleFunc("GET /metrics", rt.stamp(rt.handleMetrics))
	return mux
}

// serveSharded routes a body-carrying request by consistent hash of its
// (db, question) pair, so repeat questions land on the replica whose
// evidence cache and store are hot for them.
func (rt *Router) serveSharded(w http.ResponseWriter, r *http.Request) {
	body, over, err := readBounded(r.Body)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	if over {
		rt.writeError(w, http.StatusRequestEntityTooLarge, api.CodeBadRequest, fmt.Sprintf("request body exceeds %d bytes", maxProxiedBody))
		return
	}
	// Routing needs only the api.QueryRequest identity fields; the raw
	// body passes through to the replica untouched.
	var sr api.QueryRequest
	if err := json.Unmarshal(body, &sr); err != nil {
		rt.writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("malformed request body: %v", err))
		return
	}
	q := sr.Question
	if q == "" {
		// ID-only requests shard by the id instead; the mapping only needs
		// to be stable per request shape for cache affinity to hold.
		q = sr.ID
	}
	rt.forward(w, r, body, rt.candidatesFor(ShardKey(sr.DB, q)))
}

// serveAny routes an unsharded read to any replica, rotating the starting
// point so listing traffic spreads across the fleet.
func (rt *Router) serveAny(w http.ResponseWriter, r *http.Request) {
	names := rt.ring.Replicas()
	startAt := int(rt.rr.Add(1)) % len(names)
	cands := make([]*replica, 0, len(names))
	for i := range names {
		cands = append(cands, rt.replicas[names[(startAt+i)%len(names)]])
	}
	rt.forward(w, r, nil, cands)
}

// candidatesFor lists the key's replicas in failover order: the shard
// owner first, then its ring successors.
func (rt *Router) candidatesFor(key string) []*replica {
	names := rt.ring.Successors(key, len(rt.replicas))
	cands := make([]*replica, len(names))
	for i, n := range names {
		cands[i] = rt.replicas[n]
	}
	return cands
}

// attemptResult is one backend attempt's outcome, body fully buffered.
type attemptResult struct {
	rep    *replica
	status int
	header http.Header
	body   []byte
	// tooLarge marks a response body over maxProxiedBody: final, because
	// every replica returns the same answer, and relayed as a 502.
	tooLarge bool
	err      error
	index    int // 0 = first attempt, >0 = retry/hedge
}

// final reports whether the result should be relayed to the client as-is:
// any response that is not a replica fault (transport error, 5xx) and not
// an admission shed (429, or 503 which also covers draining replicas).
func (a attemptResult) final() bool {
	if a.tooLarge {
		return true
	}
	if a.err != nil {
		return false
	}
	if a.status == http.StatusTooManyRequests || a.status == http.StatusServiceUnavailable {
		return false
	}
	return a.status < 500
}

// shed reports a 429/503 admission rejection — the replica is alive but
// asked for backoff, so it cools down without a breaker penalty.
func (a attemptResult) shed() bool {
	return a.err == nil &&
		(a.status == http.StatusTooManyRequests || a.status == http.StatusServiceUnavailable)
}

// fwdMeta is the per-request identity the forwarding path threads through
// its attempts and logs: the request ID (stamped by stamp, echoed on the
// response, propagated to every attempt) and the trace ID (a client
// traceparent when one arrived, fresh otherwise — every attempt carries it
// so the serving replica's trace is joinable from the router log line).
type fwdMeta struct {
	path    string
	reqID   string
	traceID string
}

// forward relays one client request to the candidate replicas: bounded
// attempts, exponential backoff with jitter between retries, and a hedge
// to the next ring replica when the current attempt is slow. The first
// final response wins; losers are cancelled.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, body []byte, cands []*replica) {
	t0 := time.Now()
	rt.requests.Add(1)
	meta := fwdMeta{path: r.URL.Path, reqID: r.Header.Get(obs.RequestIDHeader)}
	if tid, _, ok := obs.Extract(r.Header); ok {
		meta.traceID = tid
	} else {
		meta.traceID = obs.NewTraceID()
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()

	results := make(chan attemptResult, rt.cfg.MaxAttempts)
	tried := make(map[*replica]int, len(cands))
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	launch := func(index int) bool {
		rep := nextCandidate(cands, tried, time.Now())
		if rep == nil {
			return false
		}
		tried[rep]++
		rep.attempts.Add(1)
		if index > 0 {
			rep.hedges.Add(1)
			rt.failovers.Add(1)
		}
		rt.attempts.Add(1)
		actx, acancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
		cancels = append(cancels, acancel)
		go rt.attempt(actx, rep, r, body, meta, index, results)
		return true
	}

	launched, done := 0, 0
	var last attemptResult
	timer := time.NewTimer(0) // first attempt fires immediately
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			rt.relayFailure(w, ctx, last, t0, meta)
			return
		case <-timer.C:
			if launched < rt.cfg.MaxAttempts && launch(launched) {
				launched++
				// The hedge timer: if this attempt hasn't resolved within
				// HedgeDelay, race the next replica against it.
				timer.Reset(jittered(rt.cfg.HedgeDelay))
			} else if done == launched {
				// Nothing in flight and nothing launchable.
				rt.relayFailure(w, ctx, last, t0, meta)
				return
			}
		case res := <-results:
			done++
			rt.record(res)
			if res.final() {
				cancel() // abandon any slower hedges
				if res.index > 0 {
					rt.hedgedWins.Add(1)
				}
				rt.relay(w, res, t0, meta)
				return
			}
			last = res
			if launched < rt.cfg.MaxAttempts {
				// A failed attempt accelerates the next one: back off
				// exponentially (with jitter) rather than waiting out the
				// full hedge delay.
				timer.Reset(rt.backoff(launched))
			} else if done == launched {
				rt.relayFailure(w, ctx, last, t0, meta)
				return
			}
		}
	}
}

// record applies one attempt outcome to its replica's breaker, cooldown
// and counters.
func (rt *Router) record(res attemptResult) {
	now := time.Now()
	switch {
	case res.err != nil && errors.Is(res.err, context.Canceled):
		// The client hung up (or the request was abandoned) while this
		// attempt was in flight: the replica did nothing wrong, so the
		// breaker must not hear about it — counting these as faults is how
		// a wave of impatient clients ejects a healthy replica.
	case res.err != nil:
		res.rep.failures.Add(1)
		res.rep.breaker.Record(false, now)
	case res.shed():
		// The replica is alive but shedding load (or draining): honor its
		// Retry-After and leave the breaker alone — overload is not a
		// fault, and ejecting a shedding replica would amplify the
		// overload on its peers.
		res.rep.shed.Add(1)
		rt.shedRetries.Add(1)
		res.rep.coolDown(now.Add(jittered(retryAfterHint(res.header, 250*time.Millisecond))))
		res.rep.breaker.Record(true, now)
	case res.status >= 500:
		res.rep.failures.Add(1)
		res.rep.breaker.Record(false, now)
	default:
		res.rep.breaker.Record(true, now)
	}
}

// attempt performs one backend round trip, buffering the response body so
// a mid-body failure is retryable.
func (rt *Router) attempt(ctx context.Context, rep *replica, r *http.Request, body []byte, meta fwdMeta, index int, out chan<- attemptResult) {
	url := rep.name + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, url, reader)
	if err != nil {
		out <- attemptResult{rep: rep, err: err, index: index}
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	// Every attempt carries the same trace and request ID (one client
	// request is one trace, however many replicas it touches) plus its
	// attempt index, so the serving replica's trace records whether it was
	// the shard owner or a retry/hedge successor. The span ID is fresh per
	// attempt: it is the parent of everything that replica records.
	obs.Inject(req.Header, meta.traceID, "")
	req.Header.Set(obs.RequestIDHeader, meta.reqID)
	req.Header.Set(obs.FleetAttemptHeader, fmt.Sprint(index))
	resp, err := rt.client.Do(req)
	if err != nil {
		out <- attemptResult{rep: rep, err: err, index: index}
		return
	}
	buf, over, err := readBounded(resp.Body)
	resp.Body.Close()
	if err != nil {
		// The replica died (or was chaos-truncated) mid-body: the client
		// saw nothing yet, so this is still retryable.
		out <- attemptResult{rep: rep, err: fmt.Errorf("reading response body: %w", err), index: index}
		return
	}
	if over {
		out <- attemptResult{rep: rep, tooLarge: true, index: index}
		return
	}
	out <- attemptResult{rep: rep, status: resp.StatusCode, header: resp.Header, body: buf, index: index}
}

// maxBackoff caps the exponential backoff between retry attempts.
const maxBackoff = time.Second

// backoff returns the jittered exponential delay before attempt n+1.
func (rt *Router) backoff(n int) time.Duration {
	d := rt.cfg.BaseBackoff
	for i := 1; i < n && d < maxBackoff; i++ {
		d *= 2
	}
	return jittered(min(d, maxBackoff))
}

// jittered spreads a nominal delay over [d/2, d) so synchronized retries
// (many clients, or many shards failing over at once) decorrelate.
func jittered(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)))
}

// nextCandidate picks the replica for the next attempt: first an untried
// eligible replica in ring order; failing that, an untried replica even
// if ineligible (availability beats a stale breaker verdict when there is
// nothing else to try); failing that, the least-retried replica (a
// one-replica fleet still gets its bounded retries).
func nextCandidate(cands []*replica, tried map[*replica]int, now time.Time) *replica {
	for _, c := range cands {
		if tried[c] == 0 && c.eligible(now) {
			return c
		}
	}
	for _, c := range cands {
		if tried[c] == 0 {
			return c
		}
	}
	var best *replica
	for _, c := range cands {
		if best == nil || tried[c] < tried[best] {
			best = c
		}
	}
	return best
}

// relay writes a buffered backend response to the client, stamping which
// replica served it (X-Fleet-Replica) so failover is observable end to
// end. A response too large to buffer answers 502 instead.
func (rt *Router) relay(w http.ResponseWriter, res attemptResult, t0 time.Time, meta fwdMeta) {
	// X-Trace-Id relays through so the client can fetch the serving
	// replica's trace for the request it just made.
	for _, h := range []string{"Content-Type", "Retry-After", "X-Retry-After-Ms", obs.TraceIDHeader} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Fleet-Replica", res.rep.name)
	if res.tooLarge {
		res.status = http.StatusBadGateway
		rt.writeError(w, res.status, api.CodeUpstreamError, fmt.Sprintf("replica response exceeds %d bytes", maxProxiedBody))
	} else {
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
	}
	if res.status >= 500 {
		rt.clientFivexx.Add(1)
	}
	d := time.Since(t0)
	rt.lat.Observe(d.Microseconds())
	rt.log.Info("request",
		"route", meta.path, "status", res.status, "replica", res.rep.name,
		"attempt", res.index, "duration_us", d.Microseconds(),
		"request_id", meta.reqID, "trace_id", meta.traceID)
}

// relayFailure answers a client whose attempts are exhausted. A request
// the *client* abandoned answers 499 and stays out of the exhausted and
// 5xx accounting — the fleet did not fail, the caller left. Otherwise:
// the last backend response verbatim when there was one (its Retry-After
// still means something), a 504 when the request deadline expired, a 502
// when every attempt faulted.
func (rt *Router) relayFailure(w http.ResponseWriter, ctx context.Context, last attemptResult, t0 time.Time, meta fwdMeta) {
	if errors.Is(ctx.Err(), context.Canceled) {
		rt.clientClosed.Add(1)
		status := api.StatusClientClosedRequest
		rt.writeError(w, status, api.CodeClientClosed, "client closed request")
		d := time.Since(t0)
		rt.lat.Observe(d.Microseconds())
		rt.log.Info("request abandoned by client",
			"route", meta.path, "status", status, "duration_us", d.Microseconds(),
			"request_id", meta.reqID, "trace_id", meta.traceID)
		return
	}
	rt.exhausted.Add(1)
	if last.err == nil && last.status != 0 {
		rt.relay(w, last, t0, meta)
		return
	}
	status, code := http.StatusBadGateway, api.CodeUpstreamError
	msg := "no replica answered"
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		status, code = http.StatusGatewayTimeout, api.CodeUpstreamTimeout
		msg = "no replica answered within the request deadline"
	}
	if last.err != nil {
		msg = fmt.Sprintf("%s: %v", msg, last.err)
	}
	rt.clientFivexx.Add(1)
	rt.writeError(w, status, code, msg)
	d := time.Since(t0)
	rt.lat.Observe(d.Microseconds())
	rt.log.Warn("request exhausted",
		"route", meta.path, "status", status, "duration_us", d.Microseconds(),
		"request_id", meta.reqID, "trace_id", meta.traceID, "error", msg)
}

func (rt *Router) writeError(w http.ResponseWriter, status int, code, msg string) {
	api.WriteError(w, status, code, msg)
}

// handleRoute is the shard-mapping debug endpoint: GET
// /v1/route?db=<db>&question=<q> returns the owner and failover order for
// that key. The CI failover smoke uses it to find a question owned by the
// replica it is about to kill.
func (rt *Router) handleRoute(w http.ResponseWriter, r *http.Request) {
	db := r.URL.Query().Get("db")
	q := r.URL.Query().Get("question")
	if db == "" || q == "" {
		rt.writeError(w, http.StatusBadRequest, api.CodeBadRequest, "db and question query parameters are required")
		return
	}
	names := rt.ring.Successors(ShardKey(db, q), len(rt.replicas))
	out := struct {
		DB         string   `json:"db"`
		Question   string   `json:"question"`
		Owner      string   `json:"owner"`
		Candidates []string `json:"candidates"`
	}{DB: db, Question: q, Candidates: names}
	if len(names) > 0 {
		out.Owner = names[0]
	}
	rt.writeJSON(w, out)
}

// handleHealthz reports the router's own health. With ?ready it answers
// 503 unless at least one replica is alive and ready — the same
// liveness/readiness split the replicas themselves expose, so routers can
// stack behind load balancers.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	statuses := rt.replicaStatuses(now)
	readyCount := 0
	for _, s := range statuses {
		if s.Alive && s.Ready {
			readyCount++
		}
	}
	if r.URL.Query().Has("ready") && readyCount == 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "no ready replicas", "replicas": statuses})
		return
	}
	rt.writeJSON(w, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(rt.start).Seconds(),
		"ready_replicas": readyCount,
		"replicas":       statuses,
	})
}

// Metrics is an in-process snapshot of the router counters; GET /metrics
// exports them as Prometheus text.
type Metrics struct {
	// Requests counts client requests; Attempts counts backend round
	// trips spent on them (attempts/requests > 1 means retries/hedges).
	Requests int64 `json:"requests"`
	Attempts int64 `json:"attempts"`
	// Failovers counts attempts sent anywhere but the first choice.
	Failovers int64 `json:"failovers"`
	// HedgedWins counts requests whose winning response came from a
	// retry or hedge rather than the first attempt.
	HedgedWins int64 `json:"hedged_wins"`
	// ShedRetries counts 429/503 admission rejections the router
	// absorbed by retrying another replica.
	ShedRetries int64 `json:"shed_retries"`
	// Exhausted counts requests that ran out of attempts.
	Exhausted int64 `json:"exhausted"`
	// ClientFivexx counts 5xx responses the router returned to clients —
	// the availability-loss number the chaos suite pins at zero.
	ClientFivexx int64           `json:"client_5xx"`
	ClientClosed int64           `json:"client_closed"`
	Replicas     []ReplicaStatus `json:"replicas"`
}

// Metrics snapshots the router counters.
func (rt *Router) Metrics() Metrics {
	return Metrics{
		Requests:     rt.requests.Load(),
		Attempts:     rt.attempts.Load(),
		Failovers:    rt.failovers.Load(),
		HedgedWins:   rt.hedgedWins.Load(),
		ShedRetries:  rt.shedRetries.Load(),
		Exhausted:    rt.exhausted.Load(),
		ClientFivexx: rt.clientFivexx.Load(),
		ClientClosed: rt.clientClosed.Load(),
		Replicas:     rt.replicaStatuses(time.Now()),
	}
}

func (rt *Router) replicaStatuses(now time.Time) []ReplicaStatus {
	names := rt.ring.Replicas()
	out := make([]ReplicaStatus, len(names))
	for i, n := range names {
		out[i] = rt.replicas[n].status(now)
	}
	return out
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.reg.WritePrometheus(w)
}

func (rt *Router) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
