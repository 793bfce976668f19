package sqlengine

import "repro/internal/obs"

// RegisterPlanCacheMetrics publishes the plan-cache counters of a set of
// databases into reg as gauge callbacks, aggregated at scrape time. stats
// is called per scrape so the exposition always reflects live counters;
// servers pass a closure over their corpus registry.
func RegisterPlanCacheMetrics(reg *obs.Registry, stats func() PlanCacheStats, labels ...obs.Label) {
	if reg == nil || stats == nil {
		return
	}
	reg.GaugeFunc("sqlengine_plan_cache_hits_total", "Prepare calls served from the plan cache.",
		func() float64 { return float64(stats().Hits) }, labels...)
	reg.GaugeFunc("sqlengine_plan_cache_misses_total", "Prepare calls parsed and planned from scratch.",
		func() float64 { return float64(stats().Misses) }, labels...)
	reg.GaugeFunc("sqlengine_plan_cache_evictions_total", "Plans displaced by the LRU policy.",
		func() float64 { return float64(stats().Evictions) }, labels...)
	reg.GaugeFunc("sqlengine_plan_cache_entries", "Currently cached plans.",
		func() float64 { return float64(stats().Entries) }, labels...)
}

// RegisterEngineExecMetrics publishes the process-wide batch-execution
// counter (parallel.go) into reg as a gauge callback. It is an engine
// global, not per-database, so one registration per process suffices.
func RegisterEngineExecMetrics(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("sqlengine_engine_batches_total", "Morsels processed by batch (vectorized) operators.",
		func() float64 { return float64(engineBatchesTotal.Load()) }, labels...)
}
