package sqlengine

import "repro/internal/obs"

// RegisterPlanCacheMetrics publishes the plan-cache counters of a set of
// databases into reg as callbacks, aggregated at scrape time. stats
// is called per scrape so the exposition always reflects live counters;
// servers pass a closure over their corpus registry.
func RegisterPlanCacheMetrics(reg *obs.Registry, stats func() PlanCacheStats, labels ...obs.Label) {
	if reg == nil || stats == nil {
		return
	}
	reg.CounterFunc("sqlengine_plan_cache_hits_total", "Prepare calls served from the plan cache.",
		func() int64 { return stats().Hits }, labels...)
	reg.CounterFunc("sqlengine_plan_cache_misses_total", "Prepare calls parsed and planned from scratch.",
		func() int64 { return stats().Misses }, labels...)
	reg.CounterFunc("sqlengine_plan_cache_evictions_total", "Plans displaced by the LRU policy.",
		func() int64 { return stats().Evictions }, labels...)
	reg.GaugeFunc("sqlengine_plan_cache_entries", "Currently cached plans.",
		func() float64 { return float64(stats().Entries) }, labels...)
}
