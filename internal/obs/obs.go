// Package obs is the fleet's observability layer: one place for the
// span/trace model, the metrics registry, the bounded in-memory trace
// store, the slow-query log and the debug (pprof) listener that seedd,
// seedrouter and the benchmark harnesses all share.
//
// The design splits into four independent pieces:
//
//   - Tracing: a request gets one Trace (collector) whose root span is
//     carried through context; code under it opens Spans (StartSpan /
//     Span.Child). The trace ID and parent span ID cross process
//     boundaries in a W3C-traceparent-style header (Inject/Extract), so a
//     query that enters at seedrouter and is served by a seedd replica is
//     one trace. With no span in the context every span operation is a
//     no-op on a nil *Span — instrumented code pays nothing when tracing
//     is off. With it on, a trace keeps its spans, span IDs and unboxed
//     attributes in its own storage and becomes its record in place, so
//     a traced /v1/query costs a few allocations over an untraced one: 5
//     (1.3 KB) on a memory hit, 8 (2.7 KB) on an evidence-cache hit (9,
//     3.8 KB, routed through fleet.Router), 11 (6.6 KB) on a generation,
//     and a retained record keeps 1.3 KB (memory hit) to 4.3 KB
//     (generation) (TestTraceAllocations, go1.24.0).
//
//   - Metrics: a Registry of counters, counter and gauge callbacks and
//     lock-free exact-quantile histograms, rendered in Prometheus text
//     exposition format. Every subsystem (server routes, admission,
//     evserve, evstore, sqlengine plan caches, the fleet router)
//     registers into one Registry per process, replacing the previous
//     per-subsystem ad-hoc /metrics structs as the exposition source.
//
//   - Trace retention: TraceStore keeps finished traces in a bounded ring
//     plus a second always-keep ring for slow and errored traces, behind
//     GET /v1/traces and GET /v1/traces/{id}.
//
//   - Debug: ServeDebug stands up net/http/pprof and runtime/trace
//     endpoints on a loopback-only listener, opt-in per daemon.
package obs

import (
	"encoding/hex"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
)

// Header names used for cross-process propagation. TraceparentHeader
// follows the W3C trace-context shape (version-traceid-spanid-flags);
// RequestIDHeader is the log-join key echoed on every response. Each is
// spelled in net/http's canonical form, so reading or setting it does not
// allocate a canonical copy of the name.
const (
	TraceparentHeader = "Traceparent"
	RequestIDHeader   = "X-Request-Id"
	// TraceIDHeader is stamped on responses by traced servers so a client
	// (or a CI smoke) can fetch the trace it just produced from
	// /v1/traces/{id} without parsing log output.
	TraceIDHeader = "X-Trace-Id"
	// FleetAttemptHeader carries the router's attempt index (0 = first
	// try, >0 = retry/hedge) to the replica, which records it on the
	// router.forward span — that is how a failed-over request's trace
	// shows the successor replica serving a retried attempt.
	FleetAttemptHeader = "X-Fleet-Attempt"
)

// idRand is a process-local seeded PCG behind a mutex: cheaper than
// crypto/rand per span, race-safe, and collision-resistant enough for
// trace IDs scoped to a bounded in-memory ring.
var (
	idMu   sync.Mutex
	idRand = rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64()))
)

// maxBlockIDs bounds the span IDs one randHexBlock draws, so its buffers
// stay on the stack.
const maxBlockIDs = 16

// randHexBlock draws lead random bytes and then spanIDs 8-byte span IDs,
// hex-encoded into one string: the lead's 2*lead chars, then 16 per span
// ID. A trace cuts its IDs from such blocks, one allocation per block.
func randHexBlock(lead, spanIDs int) string {
	var raw [16 + 8*maxBlockIDs]byte
	var dst [2 * len(raw)]byte
	n := lead + 8*spanIDs
	idMu.Lock()
	for i := 0; i < n; i += 8 {
		v := idRand.Uint64()
		for j := 0; j < 8 && i+j < n; j++ {
			raw[i+j] = byte(v >> (8 * j))
		}
	}
	idMu.Unlock()
	hex.Encode(dst[:], raw[:n])
	return string(dst[:2*n])
}

func randHex(nBytes int) string { return randHexBlock(nBytes, 0) }

// NewTraceID returns a fresh 16-byte trace ID in lowercase hex.
func NewTraceID() string { return randHex(16) }

// NewSpanID returns a fresh 8-byte span ID in lowercase hex.
func NewSpanID() string { return randHex(8) }

// NewRequestID returns a fresh request ID (8 bytes of hex). Request IDs
// are the log-join key between router and replica logs; they are
// propagated verbatim when a client already supplied one.
func NewRequestID() string { return randHex(8) }

// Inject writes the traceparent header for (traceID, spanID) into h.
// spanID becomes the parent of whatever span the receiving process opens.
func Inject(h http.Header, traceID, spanID string) {
	if traceID == "" {
		return
	}
	if spanID == "" {
		spanID = NewSpanID()
	}
	h.Set(TraceparentHeader, "00-"+traceID+"-"+spanID+"-01")
}

// Extract parses the traceparent header from h. It returns the trace ID
// and parent span ID, and reports whether a well-formed header was
// present. Malformed headers are ignored (ok=false) rather than erroring:
// a bad client header should never fail a request.
func Extract(h http.Header) (traceID, parentSpanID string, ok bool) {
	v := h.Get(TraceparentHeader)
	if v == "" {
		return "", "", false
	}
	// Four dash-separated fields, cut in place.
	_, rest, _ := strings.Cut(v, "-")
	traceID, rest, _ = strings.Cut(rest, "-")
	parentSpanID, flags, four := strings.Cut(rest, "-")
	if !four || strings.Contains(flags, "-") || len(traceID) != 32 || len(parentSpanID) != 16 {
		return "", "", false
	}
	if !isHex(traceID) || !isHex(parentSpanID) || allZero(traceID) || allZero(parentSpanID) {
		return "", "", false
	}
	return traceID, parentSpanID, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// RequestID returns the request ID from h, generating a fresh one when
// the header is absent or empty.
func RequestID(h http.Header) string {
	if id := h.Get(RequestIDHeader); id != "" {
		return id
	}
	return NewRequestID()
}
