package qmemory

import "repro/internal/obs"

// RegisterMetrics publishes the memory's counters into reg as scrape-time
// callbacks, mirroring the evstore/evserve convention so the scrape
// surface stays uniform across subsystems. A durable memory also exports
// its store's log metrics as qmemory_store_*.
func (m *Memory) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	if m.opts.Store != nil {
		m.opts.Store.RegisterMetrics(reg, labels...)
	}
	counter := func(name, help string, get func(Stats) int64) {
		reg.CounterFunc(name, help, func() int64 { return get(m.Stats()) }, labels...)
	}
	reg.GaugeFunc("qmemory_patterns", "Patterns held in the query memory.",
		func() float64 { return float64(m.Stats().Patterns) }, labels...)
	reg.GaugeFunc("qmemory_phrasings", "Stored question phrasings across all patterns.",
		func() float64 { return float64(m.Stats().Phrasings) }, labels...)
	counter("qmemory_lookups_total", "Serve-path memory probes.", func(st Stats) int64 { return st.Lookups })
	counter("qmemory_hits_total", "Probes that returned a servable pattern.", func(st Stats) int64 { return st.Hits })
	counter("qmemory_exact_hits_total", "Hits whose question was a stored phrasing (repeat traffic).", func(st Stats) int64 { return st.ExactHits })
	counter("qmemory_misses_total", "Probes with no servable pattern.", func(st Stats) int64 { return st.Misses })
	reg.GaugeFunc("qmemory_hit_rate", "Hits over lookups.",
		func() float64 { return m.Stats().HitRate }, labels...)
	counter("qmemory_admitted_total", "New patterns admitted from verified generations.", func(st Stats) int64 { return st.Admitted })
	counter("qmemory_reinforced_total", "Verified successes recorded against existing patterns.", func(st Stats) int64 { return st.Reinforced })
	counter("qmemory_demotions_total", "Patterns whose confidence fell below the serve threshold.", func(st Stats) int64 { return st.Demotions })
	counter("qmemory_injected_total", "Patterns landed by fleet replication.", func(st Stats) int64 { return st.Injected })
	counter("qmemory_refused_total", "Records refused by admission or replication because their SQL is not a SELECT.", func(st Stats) int64 { return st.Refused })
	counter("qmemory_store_errors_total", "Write-through persistence failures.", func(st Stats) int64 { return st.StoreErrors })
}
