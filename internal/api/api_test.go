package api

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWriteErrorEnvelope pins the one error shape every non-2xx response
// carries, across the header combinations the middlewares produce.
func TestWriteErrorEnvelope(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		code       string
		msg        string
		headers    map[string]string
		wantRetry  int64
		wantReqID  string
		wantFields map[string]bool // keys that must be present in the JSON
	}{
		{
			name:   "bad request, no headers",
			status: 400, code: CodeBadRequest, msg: "malformed request body",
			wantFields: map[string]bool{"error": true, "code": true},
		},
		{
			name:   "rate limited with millisecond retry hint",
			status: 429, code: CodeRateLimited, msg: "rate limit exceeded",
			headers: map[string]string{
				"Retry-After":      "1",
				"X-Retry-After-Ms": "37",
				"X-Request-Id":     "req-123",
			},
			wantRetry: 37,
			wantReqID: "req-123",
		},
		{
			name:   "over capacity with only whole-second retry",
			status: 503, code: CodeOverCapacity, msg: "server at capacity",
			headers:   map[string]string{"Retry-After": "2"},
			wantRetry: 2000,
		},
		{
			name:   "panic path keeps request id",
			status: 500, code: CodeInternal, msg: "internal error",
			headers:   map[string]string{"X-Request-Id": "req-panic"},
			wantReqID: "req-panic",
		},
		{
			name:   "client closed request",
			status: StatusClientClosedRequest, code: CodeClientClosed, msg: "client canceled request",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			for k, v := range tc.headers {
				rec.Header().Set(k, v)
			}
			WriteError(rec, tc.status, tc.code, tc.msg)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d", rec.Code, tc.status)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q", ct)
			}
			var e Error
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("body is not valid JSON: %v\n%s", err, rec.Body.String())
			}
			if e.Error != tc.msg {
				t.Errorf("error = %q, want %q", e.Error, tc.msg)
			}
			if e.Code != tc.code {
				t.Errorf("code = %q, want %q", e.Code, tc.code)
			}
			if e.RetryAfterMs != tc.wantRetry {
				t.Errorf("retry_after_ms = %d, want %d", e.RetryAfterMs, tc.wantRetry)
			}
			if e.RequestID != tc.wantReqID {
				t.Errorf("request_id = %q, want %q", e.RequestID, tc.wantReqID)
			}
			// The wire keys are part of the contract (CI smokes jq them).
			var raw map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
				t.Fatal(err)
			}
			for k := range tc.wantFields {
				if _, ok := raw[k]; !ok {
					t.Errorf("envelope is missing key %q: %s", k, rec.Body.String())
				}
			}
		})
	}
}

// TestQueryResponseWireKeys pins the JSON keys the smokes, benches and
// dashboards consume — especially the new source provenance field, which
// must be present (not omitempty) so clients can always branch on it.
func TestQueryResponseWireKeys(t *testing.T) {
	b, err := json.Marshal(QueryResponse{Source: SourceGenerated})
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"db", "example_id", "question", "source", "evidence", "evidence_cache_hit", "sql", "row_count", "cost", "timing"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("QueryResponse is missing wire key %q", key)
		}
	}
	if raw["source"] != SourceGenerated {
		t.Errorf("source = %v, want %q", raw["source"], SourceGenerated)
	}
	if _, ok := raw["memory_confidence"]; ok {
		t.Errorf("memory_confidence should be omitted when zero")
	}
	b, _ = json.Marshal(QueryResponse{Source: SourceMemory, MemoryConfidence: 0.93})
	_ = json.Unmarshal(b, &raw)
	if raw["memory_confidence"] != 0.93 {
		t.Errorf("memory_confidence = %v, want 0.93", raw["memory_confidence"])
	}
}

// TestWriteJSONEncodeError: a value encoding/json rejects answers 500 with
// the error envelope, not the requested status over an empty body.
func TestWriteJSONEncodeError(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := httptest.NewRecorder()
		rec.Header().Set("X-Request-Id", "req-9")
		WriteJSON(rec, http.StatusOK, QueryResponse{MemoryConfidence: f})
		var e Error
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%v: body %q: %v", f, rec.Body, err)
		}
		if rec.Code != http.StatusInternalServerError || e.Code != CodeInternal || e.Error == "" || e.RequestID != "req-9" {
			t.Errorf("%v: status %d, envelope %+v; want 500 %q with a message", f, rec.Code, e, CodeInternal)
		}
	}
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusCreated, QueryResponse{MemoryConfidence: 0.5})
	if rec.Code != http.StatusCreated || rec.Header().Get("Content-Type") != "application/json" || !json.Valid(rec.Body.Bytes()) {
		t.Errorf("finite value: status %d, content type %q, body %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
}
