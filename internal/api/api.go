// Package api holds the typed request/response shapes of the serving
// HTTP surface — the one definition that seedd (internal/server), the
// fleet router (internal/fleet, cmd/seedrouter), the load generators and
// the bench harnesses all marshal through. Before this package each of
// those re-declared the wire structs ad hoc; a field added in one place
// silently vanished everywhere else.
//
// The package is deliberately leaf-shaped: it imports only the pipeline
// trace type (part of the evidence provenance contract) so every layer of
// the stack can depend on it without cycles.
package api

import "repro/internal/pipeline"

// Source values for QueryResponse.Source: where the served SQL came from.
const (
	// SourceMemory marks a confidence-gated query-memory hit: the SQL was
	// adapted from a past successful pattern with zero pipeline/LLM calls.
	SourceMemory = "memory"
	// SourceCache marks a full generation ride on an evidence-cache hit.
	SourceCache = "cache"
	// SourceGenerated marks a cold full-pipeline generation.
	SourceGenerated = "generated"
)

// QueryRequest is the POST /v1/query (and /v1/evidence) request body.
type QueryRequest struct {
	// DB is the target database name.
	DB string `json:"db"`
	// Question is the natural-language question. Lookup is
	// case-insensitive and whitespace-tolerant.
	Question string `json:"question"`
	// ID optionally names the corpus example directly instead of (or as
	// well as) the question text.
	ID string `json:"id,omitempty"`
	// MaxRows truncates the returned rows when > 0. Execution and cost
	// accounting always cover the full result.
	MaxRows int `json:"max_rows,omitempty"`
}

// QueryTiming breaks a /v1/query response down by serving phase, in
// microseconds.
type QueryTiming struct {
	// MemoryMicros is the query-memory lookup (and, on a hit, verify)
	// time; zero when the server runs without memory.
	MemoryMicros   int64 `json:"memory_us,omitempty"`
	EvidenceMicros int64 `json:"evidence_us"`
	GenerateMicros int64 `json:"generate_us"`
	PrepareMicros  int64 `json:"prepare_us"`
	ExecuteMicros  int64 `json:"execute_us"`
}

// QueryResponse is the /v1/query response body.
type QueryResponse struct {
	DB        string `json:"db"`
	ExampleID string `json:"example_id"`
	Question  string `json:"question"`
	// Source is the serving provenance: SourceMemory (query-memory hit,
	// no pipeline/LLM work), SourceCache (generation over an
	// evidence-cache hit) or SourceGenerated (cold full pipeline).
	Source string `json:"source"`
	// MemoryConfidence is the serving pattern's confidence score when
	// Source is SourceMemory; omitted otherwise.
	MemoryConfidence float64 `json:"memory_confidence,omitempty"`
	// Evidence is the SEED-generated evidence the generator consumed (on
	// a memory hit: the evidence stored with the pattern).
	Evidence string `json:"evidence"`
	// EvidenceTrace is the per-stage provenance of the evidence: one
	// entry per pipeline stage with memo-hit flag, wall time and token
	// spend. On an evidence-cache hit it describes the original
	// generation; memory hits carry none (no pipeline ran).
	EvidenceTrace *pipeline.Trace `json:"evidence_trace,omitempty"`
	// EvidenceCacheHit reports the evidence came from the evidence cache
	// rather than a fresh pipeline run.
	EvidenceCacheHit bool `json:"evidence_cache_hit"`
	// SQL is the served query.
	SQL string `json:"sql"`
	// Columns and Rows are the execution result; NULLs are JSON nulls,
	// every other cell its text. Rows is the shape a client decodes into:
	// seedd never fills it, but appends the rows to the body straight from
	// the engine's, byte for byte what encoding/json would write here.
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
	// RowCount is the full result size, even when Rows is truncated.
	RowCount int `json:"row_count"`
	// Truncated reports MaxRows truncation.
	Truncated bool `json:"truncated,omitempty"`
	// Cost is the rows the engine's chosen plan touched executing SQL
	// (sqlengine.Result.Cost) — a hash join's tested pairs, not the naive
	// nested loop's |L|·|R|.
	Cost   int64       `json:"cost"`
	Timing QueryTiming `json:"timing"`
}

// EvidenceResponse is the /v1/evidence response body.
type EvidenceResponse struct {
	DB       string `json:"db"`
	Question string `json:"question"`
	Variant  string `json:"variant"`
	Evidence string `json:"evidence"`
	// Trace is the per-stage provenance of the evidence (see
	// QueryResponse.EvidenceTrace).
	Trace    *pipeline.Trace `json:"evidence_trace,omitempty"`
	CacheHit bool            `json:"evidence_cache_hit"`
	Micros   int64           `json:"duration_us"`
}

// DBInfo is one entry of the /v1/dbs listing.
type DBInfo struct {
	Name     string `json:"name"`
	Corpus   string `json:"corpus"`
	Tables   int    `json:"tables"`
	Examples int    `json:"examples"`
}

// DBsResponse is the GET /v1/dbs response body.
type DBsResponse struct {
	DBs []DBInfo `json:"dbs"`
}

// ExampleInfo is one entry of the /v1/examples listing.
type ExampleInfo struct {
	ID       string `json:"id"`
	Question string `json:"question"`
}

// ExamplesResponse is the GET /v1/examples response body.
type ExamplesResponse struct {
	DB       string        `json:"db"`
	Total    int           `json:"total"`
	Examples []ExampleInfo `json:"examples"`
}
