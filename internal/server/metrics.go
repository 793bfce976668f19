package server

import (
	"time"

	"repro/internal/obs"
)

// routeMetrics aggregates one route's request counters, backed by the
// server's obs registry, which /metrics exports.
type routeMetrics struct {
	count   *obs.Counter
	errors  *obs.Counter // responses with status >= 400
	latency *obs.Histogram
}

func newRouteMetrics(reg *obs.Registry, route string) *routeMetrics {
	l := obs.L("route", route)
	return &routeMetrics{
		count:   reg.Counter("server_requests_total", "Completed requests, rejected ones included.", l),
		errors:  reg.Counter("server_request_errors_total", "Responses with status >= 400.", l),
		latency: reg.Histogram("server_request_latency_us", "End-to-end request latency in microseconds.", 0, l),
	}
}

func (rm *routeMetrics) observe(status int, d time.Duration) {
	rm.count.Inc()
	if status >= 400 {
		rm.errors.Inc()
	}
	rm.latency.Observe(d.Microseconds())
}
