package fleet

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// replica is the router's view of one seedd backend: its base URL, its
// circuit breaker, the latest health-probe verdicts, and an admission
// cooldown fed by Retry-After responses.
type replica struct {
	name    string // base URL, e.g. "http://127.0.0.1:8081"
	breaker *Breaker

	// alive is the liveness verdict (GET /healthz answers at all); ready
	// is the readiness verdict (GET /healthz?ready is 200 — a draining
	// replica flips this to 503 while it finishes in-flight work). Both
	// start true so the router serves before the first probe completes.
	alive atomic.Bool
	ready atomic.Bool

	// cooldownUntil is the unix-nano deadline before which the replica
	// asked not to be retried (a 429/503 Retry-After). Routing prefers
	// replicas outside their cooldown.
	cooldownUntil atomic.Int64

	attempts  atomic.Int64 // requests sent to this replica
	failures  atomic.Int64 // transport errors + 5xx outcomes
	shed      atomic.Int64 // 429/503 admission rejections observed
	hedges    atomic.Int64 // requests sent here as hedges/failovers (not first choice)
	probeErrs atomic.Int64 // health-probe round trips that failed
}

func newReplica(name string, threshold int, probation time.Duration) *replica {
	r := &replica{name: name, breaker: NewBreaker(threshold, probation)}
	r.alive.Store(true)
	r.ready.Store(true)
	return r
}

// eligible reports whether the routing path should consider this replica:
// alive, not draining, breaker admitting, and outside any Retry-After
// cooldown. now is passed in so selection within one request is
// consistent.
func (r *replica) eligible(now time.Time) bool {
	return r.alive.Load() && r.ready.Load() &&
		now.UnixNano() >= r.cooldownUntil.Load() &&
		r.breaker.Allow(now)
}

// coolDown records a replica-requested backoff (Retry-After). Later
// deadlines win; a shorter concurrent hint never truncates a longer one.
func (r *replica) coolDown(until time.Time) {
	for {
		cur := r.cooldownUntil.Load()
		if until.UnixNano() <= cur {
			return
		}
		if r.cooldownUntil.CompareAndSwap(cur, until.UnixNano()) {
			return
		}
	}
}

// retryAfterHint extracts the backoff a 429/503 response asked for.
// X-Retry-After-Ms (millisecond resolution, set by seedd's admission
// middleware) is preferred; the standard whole-seconds Retry-After is the
// fallback; absent both, fall back to def.
func retryAfterHint(h http.Header, def time.Duration) time.Duration {
	if v := h.Get("X-Retry-After-Ms"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms >= 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	if v := h.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return def
}

// probe runs one liveness + readiness round trip and updates the
// replica's verdicts. Liveness failure force-opens the breaker so the
// serving path stops trying a dead replica without burning requests on
// it; liveness recovery leaves re-admission to the breaker's half-open
// probe, which verifies the serving path end to end.
func (r *replica) probe(ctx context.Context, client *http.Client, timeout time.Duration) {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, r.name+"/healthz?ready", nil)
	if err != nil {
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		r.probeErrs.Add(1)
		if wasAlive := r.alive.Swap(false); wasAlive {
			r.breaker.ForceOpen(time.Now())
		}
		return
	}
	resp.Body.Close()
	r.alive.Store(true)
	// 200 = serving; 503 = draining (alive, finishing in-flight work, do
	// not route new requests). Anything else is indistinguishable from
	// not-ready.
	r.ready.Store(resp.StatusCode == http.StatusOK)
}

// ReplicaStatus is the /healthz + /metrics view of one backend.
type ReplicaStatus struct {
	Name  string `json:"name"`
	Alive bool   `json:"alive"`
	Ready bool   `json:"ready"`
	// Breaker is the circuit state: closed, open or half_open.
	Breaker string `json:"breaker"`
	// BreakerTrips counts closed->open ejections since start.
	BreakerTrips int64 `json:"breaker_trips"`
	// CooldownMs is the remaining Retry-After cooldown, 0 when none.
	CooldownMs int64 `json:"cooldown_ms,omitempty"`
	Attempts   int64 `json:"attempts"`
	Failures   int64 `json:"failures"`
	// Shed counts 429/503 admission rejections this replica returned.
	Shed int64 `json:"shed"`
	// Hedges counts requests routed here as a hedge or failover rather
	// than as the shard owner.
	Hedges    int64 `json:"hedges"`
	ProbeErrs int64 `json:"probe_errors"`
}

func (r *replica) status(now time.Time) ReplicaStatus {
	state, trips := r.breaker.State(now)
	st := ReplicaStatus{
		Name:         r.name,
		Alive:        r.alive.Load(),
		Ready:        r.ready.Load(),
		Breaker:      state,
		BreakerTrips: trips,
		Attempts:     r.attempts.Load(),
		Failures:     r.failures.Load(),
		Shed:         r.shed.Load(),
		Hedges:       r.hedges.Load(),
		ProbeErrs:    r.probeErrs.Load(),
	}
	if until := r.cooldownUntil.Load(); until > now.UnixNano() {
		st.CooldownMs = (until - now.UnixNano()) / int64(time.Millisecond)
	}
	return st
}
