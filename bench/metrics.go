package main

import (
	"strings"
	"time"
)

// metric is one declared number: BENCHMARK.json lists exactly these, and
// bench_test.go holds the two in step.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a client of seedd/seedrouter, or someone re-running
// Table IV, pays. Every metric is reported on every workload. Bound is
// how far the metric may worsen, as a share of the parent's median,
// before a change counts as a regression.
var endToEnd = []metric{
	{"setup_s", "s", lower, 0.25},
	{"qps", "op/s", higher, 0.25},
	{"p50_ms", "ms", lower, 0.25},
	{"p95_ms", "ms", lower, 0.25},
	{"cpu_ms_per_op", "ms", lower, 0.25},
	{"alloc_kb_per_op", "KiB", lower, 0.02},
	{"allocs_per_op", "count", lower, 0.02},
	{"heap_mb", "MiB", lower, 0.05},
	{"ok_rate", "ratio", higher, 0.005},
	{"llm_calls_per_op", "count", lower, 0.01},
	{"llm_tokens_per_op", "count", lower, 0.01},
	{"ex", "ratio", higher, 0.005},
}

// perLayer is one entry per number a layer reports, in the order the
// README's table gives them. A layer that is not on a workload's path
// reports 0 there with a sample count of 0.
var perLayer = []metric{
	{Name: "harness.client_self_ms", Unit: "ms", Better: lower},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "fleet.forward_self_ms", Unit: "ms", Better: lower},
	{Name: "fleet.attempts_per_req", Unit: "count", Better: lower},
	{Name: "fleet.failovers", Unit: "count", Better: lower},
	{Name: "fleet.hedged_wins", Unit: "count", Better: lower},
	{Name: "fleet.shard_skew", Unit: "ratio", Better: lower},
	{Name: "server.handler_ms", Unit: "ms", Better: lower},
	{Name: "server.timing.memory_ms", Unit: "ms", Better: lower},
	{Name: "server.timing.evidence_ms", Unit: "ms", Better: lower},
	{Name: "server.timing.generate_ms", Unit: "ms", Better: lower},
	{Name: "server.timing.prepare_ms", Unit: "ms", Better: lower},
	{Name: "server.timing.execute_ms", Unit: "ms", Better: lower},
	{Name: "server.other_self_ms", Unit: "ms", Better: lower},
	{Name: "server.source_share.memory", Unit: "ratio", Better: higher},
	{Name: "server.source_share.cache", Unit: "ratio", Better: higher},
	{Name: "server.source_share.generated", Unit: "ratio", Better: lower},
	{Name: "server.batch_avg_fill", Unit: "count", Better: higher},
	{Name: "server.batch_window_flush_share", Unit: "ratio", Better: lower},
	{Name: "qmemory.lookup_ms", Unit: "ms", Better: lower},
	{Name: "qmemory.hit_rate", Unit: "ratio", Better: higher},
	{Name: "qmemory.demotions", Unit: "count", Better: lower},
	{Name: "qmemory.phrasings", Unit: "count", Better: lower},
	{Name: "embed.embed_ms", Unit: "ms", Better: lower},
	{Name: "bm25.topk_ms", Unit: "ms", Better: lower},
	{Name: "evserve.hit_ms", Unit: "ms", Better: lower},
	{Name: "evserve.miss_ms", Unit: "ms", Better: lower},
	{Name: "evserve.cache_hit_rate", Unit: "ratio", Better: higher},
	{Name: "evserve.dedups", Unit: "count", Better: higher},
	{Name: "seed.evidence_dag_ms", Unit: "ms", Better: lower},
	{Name: "seed.evidence_seq_ms", Unit: "ms", Better: lower},
	{Name: "pipeline.stage_ms.extract_keywords", Unit: "ms", Better: lower},
	{Name: "pipeline.stage_ms.sample_execution", Unit: "ms", Better: lower},
	{Name: "pipeline.stage_ms.select_few_shots", Unit: "ms", Better: lower},
	{Name: "pipeline.stage_ms.summarize_schema", Unit: "ms", Better: lower},
	{Name: "pipeline.stage_ms.generate", Unit: "ms", Better: lower},
	{Name: "pipeline.memo_hit_rate", Unit: "ratio", Better: higher},
	{Name: "llm.calls_per_evidence", Unit: "count", Better: lower},
	{Name: "llm.tokens_per_evidence", Unit: "count", Better: lower},
	{Name: "texttosql.generate_ms", Unit: "ms", Better: lower},
	{Name: "sqlengine.prepare_cold_ms", Unit: "ms", Better: lower},
	{Name: "sqlengine.prepare_cached_ms", Unit: "ms", Better: lower},
	{Name: "sqlengine.plan_cache_hit_rate", Unit: "ratio", Better: higher},
	{Name: "sqlengine.exec_ms", Unit: "ms", Better: lower},
	{Name: "sqlengine.exec_ms.count_eq", Unit: "ms", Better: lower},
	{Name: "sqlengine.exec_ms.sum_where", Unit: "ms", Better: lower},
	{Name: "sqlengine.exec_ms.avg", Unit: "ms", Better: lower},
	{Name: "sqlengine.exec_ms.range_count", Unit: "ms", Better: lower},
	{Name: "sqlengine.exec_ms.join_count", Unit: "ms", Better: lower},
	{Name: "sqlengine.exec_ms.topk", Unit: "ms", Better: lower},
	{Name: "sqlengine.alloc_kb_per_exec", Unit: "KiB", Better: lower},
	{Name: "sqlengine.batches_per_exec", Unit: "count", Better: lower},
	{Name: "sqlengine.parallel_workers", Unit: "count", Better: higher},
	{Name: "eval.score_ms", Unit: "ms", Better: lower},
	{Name: "api.encode_ms", Unit: "ms", Better: lower},
	{Name: "api.response_kb", Unit: "KiB", Better: lower},
	{Name: "evstore.append_ms", Unit: "ms", Better: lower},
	{Name: "evstore.bytes_per_record", Unit: "B", Better: lower},
	{Name: "evstore.replay_ms", Unit: "ms", Better: lower},
	{Name: "synth.generate_rows_per_s", Unit: "1/s", Better: higher},
}

// driverPerLayer is perLayer without the layers none of the driver
// workloads has on its path (fleet3_warm is not one of them): what
// BENCHMARK.json declares and a --trace 1 driver run prints.
func driverPerLayer() []metric {
	var out []metric
	for _, m := range perLayer {
		if !strings.HasPrefix(m.Name, "fleet.") {
			out = append(out, m)
		}
	}
	return out
}

// value is a reported number with the sample count it rests on.
type value struct {
	v float64
	n int
}

// layerMetrics collects one workload's per-layer numbers.
type layerMetrics struct{ vals map[string]value }

func newLayerMetrics() *layerMetrics { return &layerMetrics{vals: make(map[string]value)} }

func (lm *layerMetrics) set(name string, v float64, n int) { lm.vals[name] = value{v, n} }

// setMs reports the median of durs in milliseconds.
func (lm *layerMetrics) setMs(name string, durs []time.Duration) {
	lm.set(name, medianMs(durs), len(durs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func medianMs(durs []time.Duration) float64 {
	xs := make([]float64, len(durs))
	for i, d := range durs {
		xs[i] = ms(d)
	}
	return median(xs)
}
