package evserve

import "repro/internal/obs"

// RegisterMetrics publishes the service's counters into reg as callbacks
// evaluated at scrape time, labelled by variant. The existing Stats
// snapshot stays the JSON source; this is the Prometheus view.
func (s *Service) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	labels = append([]obs.Label{obs.L("variant", s.opts.Variant)}, labels...)
	counter := func(name, help string, get func(Stats) int64) {
		reg.CounterFunc(name, help, func() int64 { return get(s.Stats()) }, labels...)
	}
	counter("evserve_cache_hits_total", "Evidence cache hits.", func(st Stats) int64 { return st.Cache.Hits })
	counter("evserve_cache_misses_total", "Evidence cache misses.", func(st Stats) int64 { return st.Cache.Misses })
	reg.GaugeFunc("evserve_cache_entries", "Evidence cache entries.", func() float64 { return float64(s.Stats().Cache.Entries) }, labels...)
	counter("evserve_cache_evictions_total", "Evidence cache entries evicted to stay within capacity.", func(st Stats) int64 { return st.Cache.Evictions })
	reg.GaugeFunc("evserve_inflight", "Generations running now.", func() float64 { return float64(s.Stats().Inflight) }, labels...)
	counter("evserve_dedups_total", "Requests that shared an in-flight generation.", func(st Stats) int64 { return st.Dedups })
	counter("evserve_generations_total", "Pipeline invocations.", func(st Stats) int64 { return st.Generations })
	counter("evserve_failures_total", "Failed generations.", func(st Stats) int64 { return st.Failures })
	counter("evserve_store_appends_total", "Entries persisted write-through.", func(st Stats) int64 { return st.StoreAppends })
	counter("evserve_store_errors_total", "Failed store operations.", func(st Stats) int64 { return st.StoreErrors })
	counter("evserve_injected_total", "Entries injected by fleet replication.", func(st Stats) int64 { return st.Injected })
}
