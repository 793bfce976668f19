package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/api"
	"repro/internal/pipeline"
	"repro/internal/sqlengine"
)

// The /v1/query body is appended straight from the engine's result, each
// cell read in place from its typed column: no row is built, no cell is
// boxed into an any and nothing walks the response by reflection. The
// bytes are exactly those api.WriteJSON writes for the api.QueryResponse
// the rows would fill (TestWriteQueryResponseMatchesEncodingJSON and
// FuzzWriteRows hold the two to it): the same field order and omitempty
// rules, encoding/json's string escaping without HTML escaping, its float
// formatting, and a trailing newline.

// A pooled body buffer starts at 4 KiB, enough for an answer of a few
// rows. A longer answer grows it once, straight to 64 KiB, and an answer
// longer than that is written out through it in pieces of at most 64 KiB
// (makeRoom), so the pool never pins more.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// writeQueryResponse answers 200 with resp as the body, its columns, rows,
// row_count and truncated taken from rows: at most maxRows rows when
// maxRows is positive (row_count stays the full count and truncated is
// set), nothing when rows is nil (a statement with no result set). resp's
// own Columns, Rows, RowCount and Truncated are not read. A body that
// cannot be encoded — a non-finite memory_confidence — answers 500, decided
// before any byte is written.
func writeQueryResponse(w http.ResponseWriter, resp *api.QueryResponse, rows *sqlengine.Rows, maxRows int) {
	if c := resp.MemoryConfidence; math.IsNaN(c) || math.IsInf(c, 0) {
		err := &json.UnsupportedValueError{Str: strconv.FormatFloat(c, 'g', -1, 64)}
		writeError(w, http.StatusInternalServerError, api.CodeInternal, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bp := bodyPool.Get().(*[]byte)
	b := appendQueryResponse(w, (*bp)[:0], resp, rows, maxRows)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBody {
		*bp = b
	}
	bodyPool.Put(bp)
}

// appendQueryResponse appends the body writeQueryResponse sends to b, and
// returns what is left of it once its pieces have been written to w
// (makeRoom). Its memory_confidence is finite. The head — db to sql — is
// given its room before it is appended (headRoom), so a long one grows b
// once rather than in append's steps and then again.
func appendQueryResponse(w io.Writer, b []byte, resp *api.QueryResponse, rows *sqlengine.Rows, maxRows int) []byte {
	b = grow(b, headRoom(resp)+rowRoom)
	b = append(b, `{"db":`...)
	b = appendString(b, resp.DB)
	b = append(b, `,"example_id":`...)
	b = appendString(b, resp.ExampleID)
	b = append(b, `,"question":`...)
	b = appendString(b, resp.Question)
	b = append(b, `,"source":`...)
	b = appendString(b, resp.Source)
	if c := resp.MemoryConfidence; c != 0 {
		b = append(b, `,"memory_confidence":`...)
		b = appendFloat(b, c)
	}
	b = append(b, `,"evidence":`...)
	b = appendString(b, resp.Evidence)
	if resp.EvidenceTrace != nil {
		b = append(b, `,"evidence_trace":`...)
		b = appendTrace(b, resp.EvidenceTrace)
	}
	b = append(b, `,"evidence_cache_hit":`...)
	b = strconv.AppendBool(b, resp.EvidenceCacheHit)
	b = append(b, `,"sql":`...)
	b = appendString(b, resp.SQL)

	var (
		columns []string
		n       int
	)
	if rows != nil {
		columns, n = rows.Columns, rows.Len()
	}
	shown := n
	truncated := maxRows > 0 && maxRows < n
	if truncated {
		shown = maxRows
	}
	b = append(b, `,"columns":`...)
	b = appendStrings(b, columns)
	b = append(b, `,"rows":`...)
	if rows == nil {
		b = append(b, "null"...)
	} else {
		b = appendRows(w, b, rows, shown)
	}
	b = makeRoom(w, b) // the tail never regrows b
	b = append(b, `,"row_count":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	if truncated {
		b = append(b, `,"truncated":true`...)
	}
	b = append(b, `,"cost":`...)
	b = strconv.AppendInt(b, resp.Cost, 10)

	t := &resp.Timing
	b = append(b, `,"timing":{`...)
	if t.MemoryMicros != 0 {
		b = append(b, `"memory_us":`...)
		b = strconv.AppendInt(b, t.MemoryMicros, 10)
		b = append(b, ',')
	}
	b = append(b, `"evidence_us":`...)
	b = strconv.AppendInt(b, t.EvidenceMicros, 10)
	b = append(b, `,"generate_us":`...)
	b = strconv.AppendInt(b, t.GenerateMicros, 10)
	b = append(b, `,"prepare_us":`...)
	b = strconv.AppendInt(b, t.PrepareMicros, 10)
	b = append(b, `,"execute_us":`...)
	b = strconv.AppendInt(b, t.ExecuteMicros, 10)
	return append(b, "}}\n"...)
}

// rowRoom is the room b is given (makeRoom) before each row and before the
// tail: the tail (row_count to timing, at most 320 bytes) and an ordinary
// row. A fresh 4 KiB buffer holds a body of up to 3.5 KiB without growing.
const rowRoom = 512

// makeRoom returns b with at least rowRoom bytes free within maxPooledBody:
// written to w and emptied once it holds more than that leaves, and grown,
// once and straight to maxPooledBody, when its capacity runs short.
func makeRoom(w io.Writer, b []byte) []byte {
	if len(b) > maxPooledBody-rowRoom {
		_, _ = w.Write(b)
		b = b[:0]
	}
	return grow(b, rowRoom)
}

// grow returns b with at least n bytes free: b itself when it has them,
// else b copied once into a buffer of maxPooledBody, or of just enough
// when n needs more.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) < n {
		b = append(make([]byte, 0, max(maxPooledBody, len(b)+n)), b...)
	}
	return b
}

// stageRoom is a trace stage's bytes besides its strings: its keys, three
// numbers and the cache_hit flag.
const stageRoom = 160

// headRoom is the head's length when none of its strings needs escaping,
// less its keys, its memory_confidence and a trace's own numbers, which
// the rowRoom given with it covers. A string that needs escaping can still
// make append grow b.
func headRoom(resp *api.QueryResponse) int {
	n := len(resp.DB) + len(resp.ExampleID) + len(resp.Question) + len(resp.Source) + len(resp.Evidence) + len(resp.SQL)
	if tr := resp.EvidenceTrace; tr != nil {
		n += len(tr.Graph)
		for i := range tr.Stages {
			st := &tr.Stages[i]
			n += stageRoom + len(st.Stage) + len(st.Err)
			for _, d := range st.Deps {
				n += len(d) + len(`"",`)
			}
		}
	}
	return n
}

// appendRows appends the first n rows of a result as a JSON array of
// arrays, each cell read in place from its column: NULL as null, every
// other cell as its text (Value.AppendText) in a string. No row is
// measured: before each one b is given rowRoom (makeRoom), so w is sent the
// body in pieces of at most maxPooledBody and b does not outgrow the pool;
// a row wider than rowRoom may overrun both by less than its own length.
func appendRows(w io.Writer, b []byte, rows *sqlengine.Rows, n int) []byte {
	b = append(b, '[')
	for i := 0; i < n; i++ {
		b = makeRoom(w, b)
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for k := range rows.Columns {
			if k > 0 {
				b = append(b, ',')
			}
			switch v := rows.Cell(i, k); v.Kind {
			case sqlengine.KindNull:
				b = append(b, "null"...)
			case sqlengine.KindText:
				b = appendString(b, v.S)
			default:
				// Numbers' text needs no escaping.
				b = append(b, '"')
				b = v.AppendText(b)
				b = append(b, '"')
			}
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// appendTrace appends an evidence trace as encoding/json writes
// pipeline.Trace.
func appendTrace(b []byte, tr *pipeline.Trace) []byte {
	b = append(b, `{"graph":`...)
	b = appendString(b, tr.Graph)
	b = append(b, `,"stages":`...)
	if tr.Stages == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range tr.Stages {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendStage(b, &tr.Stages[i])
		}
		b = append(b, ']')
	}
	b = append(b, `,"wall_us":`...)
	b = strconv.AppendInt(b, tr.WallMicros, 10)
	b = append(b, `,"serial_us":`...)
	b = strconv.AppendInt(b, tr.SerialMicros, 10)
	return append(b, '}')
}

func appendStage(b []byte, st *pipeline.StageTrace) []byte {
	b = append(b, `{"stage":`...)
	b = appendString(b, st.Stage)
	if len(st.Deps) > 0 {
		b = append(b, `,"deps":`...)
		b = appendStrings(b, st.Deps)
	}
	if st.CacheHit {
		b = append(b, `,"cache_hit":true`...)
	}
	if st.StartMicros != 0 {
		b = append(b, `,"start_us":`...)
		b = strconv.AppendInt(b, st.StartMicros, 10)
	}
	b = append(b, `,"wall_us":`...)
	b = strconv.AppendInt(b, st.WallMicros, 10)
	if st.Tokens != 0 {
		b = append(b, `,"tokens":`...)
		b = strconv.AppendInt(b, int64(st.Tokens), 10)
	}
	if st.Err != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, st.Err)
	}
	return append(b, '}')
}

// appendStrings appends a string slice, nil as null.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendFloat appends a finite float as encoding/json does: the shortest
// representation, in exponent form (e-7, not e-07) below 1e-6 and from
// 1e21 up.
func appendFloat(b []byte, f float64) []byte {
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string under encoding/json's rules with
// HTML escaping off: '"' and '\\' backslashed, \b \f \n \r \t by their short
// escapes, other bytes below 0x20 as \u00XX, each byte of invalid UTF-8 as
// \ufffd, U+2028 and U+2029 escaped, everything else (<, > and & too)
// written as it is.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
