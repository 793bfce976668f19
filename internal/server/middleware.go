package server

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// statusRecorder captures the response status for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// wrap layers the server's cross-cutting middleware around a handler, from
// the outside in: request-id echo + trace collection, panic recovery,
// structured request logging + latency metrics, then (for admitted routes)
// admission control, then the per-request deadline. Health and metrics
// routes skip admission so the server stays observable under overload.
//
// X-Request-Id is stamped on the response before any outcome is decided,
// so sheds (429/503) and panic 500s carry it too; traced requests also
// echo X-Trace-Id, which is how a client (or the failover smoke) fetches
// the trace it just produced from /v1/traces/{id}.
func (s *Server) wrap(route string, admit bool, h http.HandlerFunc) http.Handler {
	rm := s.routes[route]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		reqID := obs.RequestID(r.Header)
		rec.Header().Set(obs.RequestIDHeader, reqID)

		ctx := r.Context()
		var tr *obs.Trace
		var root *obs.Span
		// Traces are collected for the admitted (query-path) routes only:
		// health probes and replication polls would churn the ring without
		// telling anyone where a query spent its time.
		if admit && s.traces != nil {
			traceID, parent, _ := obs.Extract(r.Header)
			tr = obs.NewTrace(traceID, reqID)
			tr.SetHeader(rec.Header())
			if att := r.Header.Get(obs.FleetAttemptHeader); att != "" {
				// The router's hop becomes a span in this replica's trace
				// (the trace store lives here, not on the router): attempt>0
				// marks a retried/hedged forward, which is how a failover
				// trace shows the successor replica serving the request.
				fw := tr.StartRoot("router.forward", parent)
				if n, err := strconv.Atoi(att); err == nil {
					fw.SetInt("attempt", n)
					if n > 0 {
						fw.SetBool("retried", true)
					}
				}
				parent = fw.SpanID
			}
			root = tr.StartRoot("request", parent)
			ctx = obs.ContextWithSpan(ctx, root)
		}

		defer func() {
			if p := recover(); p != nil {
				// The request must not vanish from telemetry: count it, mark
				// the in-flight span errored with the panic value, and let
				// the histogram observe it below like any other 500.
				s.panicsTotal.Inc()
				root.Fail(p)
				s.log.Error("panic serving request",
					"route", route, "request_id", reqID, "trace_id", tr.ID(),
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				if rec.status == 0 {
					writeError(rec, http.StatusInternalServerError, api.CodeInternal, "internal error")
				}
			}
			d := time.Since(start)
			rm.observe(rec.status, d)
			if tr != nil {
				root.End()
				trec := tr.Finish(route, rec.status, "")
				s.traces.Add(trec)
				s.slowlog.Record(trec, sqlOfTrace(trec))
			}
			// The line's arguments are built only for a logger that keeps
			// it: boxing them costs allocations on every request.
			if s.log.Enabled(context.Background(), slog.LevelInfo) {
				s.log.Info("request",
					"method", r.Method, "route", route, "status", rec.status,
					"duration_us", d.Microseconds(), "remote", r.RemoteAddr,
					"request_id", reqID, "trace_id", tr.ID())
			}
		}()

		if admit {
			asp := obs.StartSpan(ctx, "admission")
			var tk ticket
			status, retryAfter := s.adm.admit(&tk)
			if status != 0 {
				asp.SetBool("shed", true)
				asp.SetInt("status", status)
				asp.End()
				// Retry-After is whole seconds per RFC 9110; round up so
				// the client never retries before a token exists.
				secs := int(math.Ceil(retryAfter.Seconds()))
				if secs < 1 {
					secs = 1
				}
				rec.Header().Set("Retry-After", fmt.Sprint(secs))
				// Whole seconds is far too coarse for an intra-fleet hop
				// whose real backoff is tens of milliseconds; the router
				// reads this millisecond-resolution twin instead.
				rec.Header().Set("X-Retry-After-Ms", fmt.Sprint(retryAfter.Milliseconds()))
				msg, code := "rate limit exceeded", api.CodeRateLimited
				if status == http.StatusServiceUnavailable {
					msg, code = "server at capacity", api.CodeOverCapacity
				}
				writeError(rec, status, code, msg)
				return
			}
			asp.End()
			defer tk.release()
		}

		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		h(rec, r.WithContext(ctx))
	})
}
