package qmemory

import "repro/internal/obs"

// RegisterMetrics publishes the memory's counters into reg as gauge
// functions, mirroring the evstore/evserve convention so the scrape
// surface stays uniform across subsystems. A durable memory also exports
// its store's log gauges as qmemory_store_*.
func (m *Memory) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	if m.opts.Store != nil {
		m.opts.Store.RegisterMetrics(reg, labels...)
	}
	reg.GaugeFunc("qmemory_patterns", "Patterns held in the query memory.",
		func() float64 { return float64(m.Stats().Patterns) }, labels...)
	reg.GaugeFunc("qmemory_phrasings", "Stored question phrasings across all patterns.",
		func() float64 { return float64(m.Stats().Phrasings) }, labels...)
	reg.GaugeFunc("qmemory_lookups_total", "Serve-path memory probes.",
		func() float64 { return float64(m.Stats().Lookups) }, labels...)
	reg.GaugeFunc("qmemory_hits_total", "Probes that returned a servable pattern.",
		func() float64 { return float64(m.Stats().Hits) }, labels...)
	reg.GaugeFunc("qmemory_exact_hits_total", "Hits whose question was a stored phrasing (repeat traffic).",
		func() float64 { return float64(m.Stats().ExactHits) }, labels...)
	reg.GaugeFunc("qmemory_misses_total", "Probes with no servable pattern.",
		func() float64 { return float64(m.Stats().Misses) }, labels...)
	reg.GaugeFunc("qmemory_hit_rate", "Hits over lookups.",
		func() float64 { return m.Stats().HitRate }, labels...)
	reg.GaugeFunc("qmemory_admitted_total", "New patterns admitted from verified generations.",
		func() float64 { return float64(m.Stats().Admitted) }, labels...)
	reg.GaugeFunc("qmemory_reinforced_total", "Verified successes recorded against existing patterns.",
		func() float64 { return float64(m.Stats().Reinforced) }, labels...)
	reg.GaugeFunc("qmemory_demotions_total", "Patterns whose confidence fell below the serve threshold.",
		func() float64 { return float64(m.Stats().Demotions) }, labels...)
	reg.GaugeFunc("qmemory_injected_total", "Patterns landed by fleet replication.",
		func() float64 { return float64(m.Stats().Injected) }, labels...)
	reg.GaugeFunc("qmemory_store_errors_total", "Write-through persistence failures.",
		func() float64 { return float64(m.Stats().StoreErrors) }, labels...)
}
