package server

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"net/http"
	"slices"
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
// rows, and keeps at most 64 KiB: a larger answer is written out through it
// in pieces of at most that, so the pool never pins more.
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
// returns what is left of it once the rows have written their pieces to w
// (appendRows). Its memory_confidence is finite.
func appendQueryResponse(w io.Writer, b []byte, resp *api.QueryResponse, rows *sqlengine.Rows, maxRows int) []byte {
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
		// One allocation for a large answer, not a chain of regrowths, and
		// none past what the pool keeps.
		room := max(maxPooledBody-len(b), 0)
		b = slices.Grow(b, min(rowsLen(rows, shown, room)+maxTailLen, room))
		b = appendRows(w, b, rows, shown)
	}
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

// maxTailLen bounds what follows the rows: row_count, truncated, cost and
// timing at their widest.
const maxTailLen = 320

// rowsLen is the length appendRows writes for the first n rows when no
// text needs escaping (a REAL counted at its widest), counted only until it
// passes limit.
func rowsLen(rows *sqlengine.Rows, n, limit int) int {
	l := 2
	for i := 0; i < n && l <= limit; i++ {
		l += rowLen(rows, i)
	}
	return l
}

// rowBound is an upper bound of rowLen for a result's rows, read without
// measuring a row: fixed bounds the brackets, commas and the cells of the
// typed columns of any class but TEXT, an INTEGER at its widest; the cells
// of the other columns, TEXT or mixed, are read (cellBound). read marks
// those among the first 64 columns; every later column is read.
type rowBound struct {
	fixed int
	read  uint64
}

func boundRows(rows *sqlengine.Rows) rowBound {
	rb := rowBound{fixed: 3 + len(rows.Columns)}
	for k := range min(len(rows.Columns), 64) {
		if kind, typed := rows.ColumnKind(k); typed && kind != sqlengine.KindText {
			// Its cells are of kind, or NULL.
			rb.fixed += max(cellBound(sqlengine.Value{Kind: kind}), cellBound(sqlengine.Null()))
		} else {
			rb.read |= 1 << k
		}
	}
	return rb
}

// row is the bound of row i.
func (rb rowBound) row(rows *sqlengine.Rows, i int) int {
	n := rb.fixed
	for m := rb.read; m != 0; m &= m - 1 {
		n += cellBound(rows.Cell(i, bits.TrailingZeros64(m)))
	}
	for k := 64; k < len(rows.Columns); k++ {
		n += cellBound(rows.Cell(i, k))
	}
	return n
}

// cellBound is rowLen's share of cell v with an INTEGER counted at its
// widest: null for NULL, and any other cell in quotes, a REAL at its widest
// and TEXT unescaped.
func cellBound(v sqlengine.Value) int {
	switch v.Kind {
	case sqlengine.KindNull:
		return 4
	case sqlengine.KindInt:
		return 2 + maxIntLen
	case sqlengine.KindFloat:
		return 2 + 24
	}
	return 2 + len(v.S)
}

// maxIntLen is the length of the widest INTEGER in decimal.
const maxIntLen = len("-9223372036854775808")

// rowLen is rowsLen's share of row i, its comma included.
func rowLen(rows *sqlengine.Rows, i int) int {
	n := 3 + len(rows.Columns) // brackets and commas
	for k := range rows.Columns {
		if v := rows.Cell(i, k); v.Kind == sqlengine.KindInt {
			n += 2 + intLen(v.I)
		} else {
			n += cellBound(v)
		}
	}
	return n
}

// intLen is the length of i in decimal.
func intLen(i int64) int {
	n, u := 1, uint64(i)
	if i < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// appendRows appends the first n rows of a result as a JSON array of
// arrays, each cell read in place from its column: NULL as null, every
// other cell as its text (Value.AppendText) in a string. b is written to w
// and emptied before a row that would leave it no room for the body's tail
// within maxPooledBody, so w is sent the body in pieces of at most that (a
// row whose text needs escaping may overrun it) and b does not outgrow the
// pool. A row is measured (rowLen) only when its bound says it may cross
// that room: a result of typed numeric columns is measured only near the
// end of each piece.
func appendRows(w io.Writer, b []byte, rows *sqlengine.Rows, n int) []byte {
	b = append(b, '[')
	rb := boundRows(rows)
	for i := 0; i < n; i++ {
		if len(b) > 0 && len(b)+rb.row(rows, i)+maxTailLen > maxPooledBody && len(b)+rowLen(rows, i)+maxTailLen > maxPooledBody {
			_, _ = w.Write(b)
			b = b[:0]
		}
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
