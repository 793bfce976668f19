package fleet

import (
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// initObs registers the router's counters into an obs.Registry so the
// front tier speaks the same Prometheus exposition as the replicas. The
// existing atomics stay the source of truth (the JSON Metrics snapshot
// reads them directly); the registry wraps them in scrape-time gauges.
func (rt *Router) initObs() {
	rt.reg = obs.NewRegistry()
	rt.reg.GaugeFunc("fleet_uptime_seconds", "Router process uptime.",
		func() float64 { return time.Since(rt.start).Seconds() })

	counter := func(name, help string, v *atomic.Int64) {
		rt.reg.GaugeFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	counter("fleet_requests_total", "Client requests.", &rt.requests)
	counter("fleet_attempts_total", "Backend round trips spent on client requests.", &rt.attempts)
	counter("fleet_failovers_total", "Attempts sent anywhere but the first-choice replica.", &rt.failovers)
	counter("fleet_hedged_wins_total", "Requests won by a retry or hedge rather than the first attempt.", &rt.hedgedWins)
	counter("fleet_shed_retries_total", "429/503 sheds absorbed by retrying another replica.", &rt.shedRetries)
	counter("fleet_exhausted_total", "Requests that ran out of attempts.", &rt.exhausted)
	counter("fleet_client_5xx_total", "5xx responses returned to clients.", &rt.clientFivexx)

	quantile := func(name, help string, pick func(p50, p99, max float64) float64) {
		rt.reg.GaugeFunc(name, help, func() float64 {
			return pick(rt.lat.quantiles())
		})
	}
	quantile("fleet_request_p50_us", "Median end-to-end request latency in microseconds.",
		func(p50, _, _ float64) float64 { return p50 })
	quantile("fleet_request_p99_us", "P99 end-to-end request latency in microseconds.",
		func(_, p99, _ float64) float64 { return p99 })
	quantile("fleet_request_max_us", "Max end-to-end request latency in microseconds over the sample window.",
		func(_, _, max float64) float64 { return max })

	for name, rep := range rt.replicas {
		rep := rep
		l := obs.L("replica", name)
		bool01 := func(b *atomic.Bool) func() float64 {
			return func() float64 {
				if b.Load() {
					return 1
				}
				return 0
			}
		}
		rt.reg.GaugeFunc("fleet_replica_alive", "1 when the replica answers health probes.", bool01(&rep.alive), l)
		rt.reg.GaugeFunc("fleet_replica_ready", "1 when the replica reports ready (not draining).", bool01(&rep.ready), l)
		repCounter := func(mname, help string, v *atomic.Int64) {
			rt.reg.GaugeFunc(mname, help, func() float64 { return float64(v.Load()) }, l)
		}
		repCounter("fleet_replica_attempts_total", "Requests sent to this replica.", &rep.attempts)
		repCounter("fleet_replica_failures_total", "Transport errors and 5xx outcomes from this replica.", &rep.failures)
		repCounter("fleet_replica_shed_total", "429/503 admission rejections this replica returned.", &rep.shed)
		repCounter("fleet_replica_hedges_total", "Requests routed here as a hedge or failover.", &rep.hedges)
		repCounter("fleet_replica_probe_errors_total", "Health-probe round trips that failed.", &rep.probeErrs)
	}
}

// stamp is the router's outermost middleware: it resolves the request ID
// (propagating a client-supplied one, minting one otherwise), echoes it on
// the response before any outcome is decided — sheds, 502s and proxied
// responses all carry it — and writes it back into the request headers so
// the forwarding path propagates the same ID to the chosen replica.
func (rt *Router) stamp(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := obs.RequestID(r.Header)
		r.Header.Set(obs.RequestIDHeader, reqID)
		w.Header().Set(obs.RequestIDHeader, reqID)
		h(w, r)
	}
}

// isJSONFormat reports whether the /metrics request asked for the legacy
// JSON snapshot (?format=json).
func isJSONFormat(r *http.Request) bool {
	return strings.EqualFold(r.URL.Query().Get("format"), "json")
}
