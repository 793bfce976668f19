package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
)

// Error codes: machine-readable classifications of every non-2xx answer
// the serving surface emits. Clients branch on Code; Error stays
// human-shaped and free to change.
const (
	// CodeBadRequest covers malformed bodies and missing parameters.
	CodeBadRequest = "bad_request"
	// CodeNotFound covers unknown databases, questions and trace IDs.
	CodeNotFound = "not_found"
	// CodeRateLimited is a token-bucket admission shed (429); honor
	// RetryAfterMs before retrying.
	CodeRateLimited = "rate_limited"
	// CodeOverCapacity is an in-flight-limit admission shed or a draining
	// replica (503); honor RetryAfterMs before retrying.
	CodeOverCapacity = "over_capacity"
	// CodeUnprocessable marks served SQL that failed to parse or execute.
	CodeUnprocessable = "unprocessable"
	// CodeReadOnly marks generated SQL that is not a SELECT (422): a
	// served database is only ever read.
	CodeReadOnly = "read_only"
	// CodeInternal covers handler panics and generation failures.
	CodeInternal = "internal"
	// CodeUpstreamTimeout is an evidence-path deadline expiry (504).
	CodeUpstreamTimeout = "upstream_timeout"
	// CodeUpstreamError is an evidence-path failure that was not a
	// timeout (502), including a router whose replicas all failed.
	CodeUpstreamError = "upstream_error"
	// CodeUnavailable is a shutting-down server (503, not retryable on
	// this replica).
	CodeUnavailable = "unavailable"
	// CodeClientClosed marks a request whose client went away before the
	// answer existed (499-style accounting: not a server fault).
	CodeClientClosed = "client_closed"
)

// StatusClientClosedRequest is the non-standard 499 status (nginx
// convention) for requests canceled by the client. It keeps client
// disappearances out of the 5xx accounting that breakers and alerting
// key on.
const StatusClientClosedRequest = 499

// Error is the one JSON envelope every non-2xx response on seedd and
// seedrouter carries. RetryAfterMs mirrors the Retry-After /
// X-Retry-After-Ms headers (kept for compatibility); RequestID mirrors
// X-Request-Id so the failing request is log-joinable from the body
// alone.
type Error struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
	RequestID    string `json:"request_id,omitempty"`
}

// WriteError emits the envelope. It reads X-Request-Id and
// X-Retry-After-Ms (falling back to Retry-After seconds) from the
// response headers already set by the middleware, so the body and the
// headers cannot disagree.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	e := Error{
		Error:     msg,
		Code:      code,
		RequestID: w.Header().Get("X-Request-Id"),
	}
	if v := w.Header().Get("X-Retry-After-Ms"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
			e.RetryAfterMs = ms
		}
	} else if v := w.Header().Get("Retry-After"); v != "" {
		if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
			e.RetryAfterMs = secs * 1000
		}
	}
	WriteJSON(w, status, e)
}

// WriteJSON writes v as a JSON response body with the given status. The
// body is encoded before the status goes out, so a value encoding/json
// rejects (a NaN, say) answers 500 CodeInternal, not the status with an
// empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}
