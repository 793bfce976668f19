package server

import (
	"net/http"
	"strconv"
	"strings"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/sqlengine"
)

// initObs wires the server's observability: the shared metrics registry
// every subsystem registers into, the bounded trace store, the slow-query
// log, and the panic counter. Called from New before routes are built so
// route metrics land in the same registry.
func (s *Server) initObs() {
	s.obsReg = obs.NewRegistry()
	s.panicsTotal = s.obsReg.Counter("server_panics_total", "Requests that panicked in a handler.")
	if s.cfg.TraceCapacity >= 0 {
		capacity := s.cfg.TraceCapacity
		if capacity == 0 {
			capacity = 256
		}
		s.traces = obs.NewTraceStore(capacity, s.cfg.SlowQueryThreshold)
	}
	s.slowlog = obs.NewSlowLog(s.log, s.cfg.SlowQueryThreshold)

	s.obsReg.GaugeFunc("server_uptime_seconds", "Process uptime.", func() float64 {
		return s.Metrics().UptimeSeconds
	})
	s.obsReg.GaugeFunc("server_admission_admitted_total", "Requests that passed admission.",
		func() float64 { return float64(s.adm.stats().Admitted) })
	s.obsReg.GaugeFunc("server_admission_rate_limited_total", "429 rejections from the token bucket.",
		func() float64 { return float64(s.adm.stats().RateLimited) })
	s.obsReg.GaugeFunc("server_admission_overloaded_total", "503 rejections from the in-flight semaphore.",
		func() float64 { return float64(s.adm.stats().Overloaded) })
	s.obsReg.GaugeFunc("server_admission_inflight", "Admitted requests currently executing.",
		func() float64 { return float64(s.adm.stats().Inflight) })

	for name, svc := range s.services {
		svc.RegisterMetrics(s.obsReg, obs.L("corpus", name))
	}
	for name, st := range s.stores {
		st.RegisterMetrics(s.obsReg, obs.L("corpus", name))
	}
	for _, rs := range s.tailers {
		rs.tailer.RegisterMetrics(s.obsReg, obs.L("corpus", rs.corpus))
	}
	for name, mem := range s.memories {
		mem.RegisterMetrics(s.obsReg, obs.L("corpus", name))
	}
	for _, ms := range s.memTailers {
		ms.tailer.RegisterMetrics(s.obsReg, obs.L("corpus", ms.corpus), obs.L("peer", ms.peer))
	}
	for name, corpus := range s.corpora {
		corpus := corpus
		sqlengine.RegisterPlanCacheMetrics(s.obsReg, func() sqlengine.PlanCacheStats {
			var agg sqlengine.PlanCacheStats
			for _, db := range corpus.DBs {
				agg.Add(db.Engine.PlanCacheStats())
			}
			return agg
		}, obs.L("corpus", name))
	}
	// Batch/parallel execution counters are engine-process globals, not
	// per-corpus: register once.
	sqlengine.RegisterEngineExecMetrics(s.obsReg)
}

// Traces exposes the server's trace store; nil when tracing is disabled.
func (s *Server) Traces() *obs.TraceStore { return s.traces }

// handleTraces serves GET /v1/traces — newest-first summaries of the
// retained traces (?limit=N bounds the list).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "tracing disabled (trace capacity < 0)")
		return
	}
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.traces.List(limit)})
}

// handleTraceByID serves GET /v1/traces/{id} — the full span tree of one
// retained trace.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "tracing disabled (trace capacity < 0)")
		return
	}
	id := r.PathValue("id")
	rec := s.traces.Get(id)
	if rec == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "no retained trace with id "+id)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// sqlOfTrace pulls the SQL text out of a finished trace's span attributes
// for the slow-query log.
func sqlOfTrace(rec *obs.TraceRecord) string {
	if rec == nil {
		return ""
	}
	for i := range rec.Spans {
		if v, ok := rec.Spans[i].Attrs["sql"].(string); ok {
			return v
		}
	}
	return ""
}

// isJSONFormat reports whether the /metrics request asked for the legacy
// JSON snapshot (?format=json).
func isJSONFormat(r *http.Request) bool {
	return strings.EqualFold(r.URL.Query().Get("format"), "json")
}
