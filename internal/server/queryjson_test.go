package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/pipeline"
	"repro/internal/sqlengine"
)

// renderRows is the renderer writeQueryResponse replaced, kept as its
// reference: the first n rows of a result to JSON-shaped values, NULL as nil
// and every other cell its text, for encoding/json to write. The rows share
// one backing array, one full-capacity sub-slice per row.
func renderRows(rows *sqlengine.Rows, n int) [][]any {
	w := len(rows.Columns)
	backing := make([]any, n*w)
	out := make([][]any, n)
	for i := range out {
		row := backing[i*w : (i+1)*w : (i+1)*w]
		for k := range row {
			if v := rows.Cell(i, k); !v.IsNull() { // NULL stays the nil the backing holds
				row[k] = v.AsText()
			}
		}
		out[i] = row
	}
	return out
}

// referenceWrite answers as /v1/query did before writeQueryResponse: the
// result rows put on resp (at most maxRows of them when maxRows is
// positive), then api.WriteJSON of the struct.
func referenceWrite(w http.ResponseWriter, resp api.QueryResponse, rows *sqlengine.Rows, maxRows int) {
	if rows != nil {
		resp.Columns = rows.Columns
		resp.RowCount = rows.Len()
		n := resp.RowCount
		if maxRows > 0 && maxRows < n {
			n = maxRows
			resp.Truncated = true
		}
		resp.Rows = renderRows(rows, n)
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// checkWriter fails t unless writeQueryResponse answers exactly what
// referenceWrite does: status, content type and body bytes. It holds the
// pieces the body is written in, too: none is longer than maxPooledBody (or
// the head before the first row, when that is longer) plus the widest row,
// and when the head fits a fresh pooled buffer and every row fits rowRoom,
// no piece is written from a buffer larger than the pool keeps.
func checkWriter(t *testing.T, label string, resp api.QueryResponse, rows *sqlengine.Rows, maxRows int) {
	t.Helper()
	want, got := httptest.NewRecorder(), &pieceRecorder{ResponseRecorder: httptest.NewRecorder()}
	referenceWrite(want, resp, rows, maxRows)
	writeQueryResponse(got, &resp, rows, maxRows)
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("%s: status %d %q, want %d %q", label, got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
	}
	g, w := got.Body.Bytes(), want.Body.Bytes()
	if !bytes.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-40, 0)
		t.Fatalf("%s: bodies differ at byte %d\n  writer:        %q\n  encoding/json: %q",
			label, i, g[lo:min(i+40, len(g))], w[lo:min(i+40, len(w))])
	}
	if got.Code != http.StatusOK {
		return
	}
	// The head: what precedes the first row, or the tail, at its longest.
	head := bytes.Index(w, []byte(`,"rows":`)) + len(`,"rows":null`)
	widest := widestRow(rows)
	for i, p := range got.pieces {
		if p.len > max(maxPooledBody, head)+widest {
			t.Fatalf("%s: piece %d of %d is %d B, over %d B and a row of %d B", label, i, len(got.pieces), p.len, maxPooledBody, widest)
		}
		if head <= 4<<10 && widest < rowRoom && p.cap > maxPooledBody {
			t.Fatalf("%s: piece %d of %d is written from a %d B buffer, which the pool drops", label, i, len(got.pieces), p.cap)
		}
	}
}

// pieceRecorder is a ResponseRecorder that also records the length and
// capacity of each slice written to it.
type pieceRecorder struct {
	*httptest.ResponseRecorder
	pieces []struct{ len, cap int }
}

func (r *pieceRecorder) Write(p []byte) (int, error) {
	r.pieces = append(r.pieces, struct{ len, cap int }{len(p), cap(p)})
	return r.ResponseRecorder.Write(p)
}

// widestRow is the length of the widest row of a result in the body, its
// comma included: 0 for no result set.
func widestRow(rows *sqlengine.Rows) int {
	if rows == nil {
		return 0
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	widest := 0
	for _, row := range renderRows(rows, rows.Len()) {
		buf.Reset()
		if err := enc.Encode(row); err != nil {
			panic(err)
		}
		widest = max(widest, buf.Len()) // the newline's byte is the comma's
	}
	return widest
}

// TestWriteQueryResponseMatchesEncodingJSON is the writer's gate: its body
// is byte for byte what encoding/json writes for the struct the old
// renderer filled — over random cells and envelopes, over the results of
// BIRD dev's gold SQL, and over what the server answers for the statements
// it serves on TestServedSynthPaths' synth corpus.
func TestWriteQueryResponseMatchesEncodingJSON(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(28, 11))
		for i := range 3000 {
			rows := randRows(rng)
			n := 0
			if rows != nil {
				n = rows.Len()
			}
			maxRows := []int{0, 1, n, n + 1, -1, rng.IntN(8)}[rng.IntN(6)]
			checkWriter(t, fmt.Sprintf("response %d", i), randEnvelope(rng), rows, maxRows)
		}
	})

	t.Run("large", func(t *testing.T) {
		// Written out through the pooled buffer in pieces.
		data := wideData(20_000)
		data[7][1] = sqlengine.Text("quote\" and \u2028 \x00")
		rows := sqlengine.NewRows(wideColumns, data)
		resp := api.QueryResponse{DB: "financial", Source: api.SourceCache, MemoryConfidence: 0.5, SQL: "SELECT account_id, frequency FROM account"}
		for _, maxRows := range []int{0, 1, 19_999} {
			checkWriter(t, fmt.Sprintf("20,000 rows max_rows %d", maxRows), resp, rows, maxRows)
		}
	})

	t.Run("bird_gold", func(t *testing.T) {
		corpus := testCorpus(t)
		checked := 0
		for i, e := range corpus.Dev {
			db, _ := corpus.DB(e.DB)
			res, err := db.Engine.Exec(e.GoldSQL)
			if err != nil {
				t.Fatalf("%s: gold SQL: %v", e.ID, err)
			}
			n := 0
			if res.Rows != nil {
				n = res.Rows.Len()
			}
			resp := api.QueryResponse{DB: e.DB, ExampleID: e.ID, Question: e.Question, Source: api.SourceGenerated, SQL: e.GoldSQL, Cost: res.Cost}
			if i%2 == 1 {
				resp.Source, resp.MemoryConfidence, resp.Timing.MemoryMicros = api.SourceMemory, 0.8125, 417
				resp.EvidenceTrace = &pipeline.Trace{Graph: "seed", Stages: []pipeline.StageTrace{
					{Stage: "extract_keywords", WallMicros: 12, Tokens: 40},
					{Stage: "summarize_schema", Deps: []string{"extract_keywords"}, StartMicros: 12, WallMicros: 30},
				}, WallMicros: 42, SerialMicros: 42}
			}
			for _, maxRows := range []int{0, 1, n, n + 1} {
				checkWriter(t, fmt.Sprintf("%s max_rows %d", e.ID, maxRows), resp, res.Rows, maxRows)
			}
			checked++
		}
		if checked < 100 {
			t.Fatalf("only %d gold results checked", checked)
		}
	})

	t.Run("synth_served", func(t *testing.T) {
		db, dev, ts := newSynthServer(t)
		for _, e := range dev {
			httpResp, body := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
			if httpResp.StatusCode != http.StatusOK {
				t.Fatalf("%q answered %d: %s", e.Question, httpResp.StatusCode, body)
			}
			var served api.QueryResponse
			if err := json.Unmarshal(body, &served); err != nil {
				t.Fatal(err)
			}
			res, err := db.Engine.Exec(served.SQL)
			if err != nil {
				t.Fatalf("%s: %v", served.SQL, err)
			}
			// The served envelope with the rows the statement gives offline:
			// the reference must write the very bytes the server sent.
			env := served
			env.Columns, env.Rows, env.RowCount, env.Truncated = nil, nil, 0, false
			want := httptest.NewRecorder()
			referenceWrite(want, env, res.Rows, 0)
			if !bytes.Equal(body, want.Body.Bytes()) {
				t.Fatalf("%s: served body differs from encoding/json's\n  served:    %.300q\n  reference: %.300q", served.SQL, body, want.Body.Bytes())
			}
			checkWriter(t, served.SQL+" max_rows 1", env, res.Rows, 1)
		}
	})
}

// TestWriteQueryResponseNonFiniteConfidence: encoding/json cannot write a
// non-finite memory_confidence, so neither does the writer — it answers 500
// with the error envelope, as api.WriteJSON now does too.
func TestWriteQueryResponseNonFiniteConfidence(t *testing.T) {
	rows := sqlengine.NewRows([]string{"n"}, [][]sqlengine.Value{{sqlengine.Int(1)}})
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := api.QueryResponse{DB: "d", Source: api.SourceMemory, MemoryConfidence: f}
		rec := httptest.NewRecorder()
		writeQueryResponse(rec, &resp, rows, 0)
		var e api.Error
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%v: body %q: %v", f, rec.Body, err)
		}
		if rec.Code != http.StatusInternalServerError || e.Code != api.CodeInternal {
			t.Errorf("%v: status %d, envelope %+v; want 500 %q", f, rec.Code, e, api.CodeInternal)
		}
		checkWriter(t, fmt.Sprint(f), resp, rows, 0)
	}
}

// TestWriteQueryResponseLargeAllocations pins the streamed body: a
// 100k-row answer (~3 MB) is written out through the pooled buffer, so
// writing it allocates less than two pooled buffers' worth, not a buffer
// the size of the body.
func TestWriteQueryResponseLargeAllocations(t *testing.T) {
	rows := wideRows(100_000)
	resp := api.QueryResponse{DB: "financial", Source: api.SourceCache, SQL: "SELECT account_id, frequency FROM account"}
	w := discardWriter{h: http.Header{}}
	writeQueryResponse(w, &resp, rows, 0) // the pool's buffer grows once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for range runs {
		writeQueryResponse(w, &resp, rows, 0)
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b >= 2*maxPooledBody {
		t.Errorf("writing a 100k-row answer allocates %d B, want under %d", b, 2*maxPooledBody)
	}
}

// TestAppendQueryResponseGrowsOnce: a fresh 4 KiB pooled buffer holds a
// body of up to 4 KiB less rowRoom as it is, and a longer body whose head
// fits it grows it once, straight to maxPooledBody — neither a row nor the
// tail regrows it, for a nil, an empty and a non-empty result alike.
func TestAppendQueryResponseGrowsOnce(t *testing.T) {
	const fresh = 4 << 10
	for _, n := range []int{-1, 0, 1, 100, 2_000} { // -1: no result set
		var rows *sqlengine.Rows
		if n >= 0 {
			rows = wideRows(n)
		}
		for pad := 2_800; pad < 3_940; pad += 7 {
			resp := api.QueryResponse{DB: "financial", Source: api.SourceCache, Evidence: strings.Repeat("e", pad)}
			var w countWriter
			b := appendQueryResponse(&w, make([]byte, 0, fresh), &resp, rows, 0)
			body := w.n + len(b)
			if c := cap(b); c != fresh && c != maxPooledBody || c != fresh && body <= fresh-rowRoom {
				t.Fatalf("%d-byte body over %d rows: buffer capacity %d", body, n, c)
			}
		}
	}
}

// wideRows is n rows of an INTEGER and a TEXT column, as the served ORDER
// BY statements answer them: wideData's cells under wideColumns.
func wideRows(n int) *sqlengine.Rows { return sqlengine.NewRows(wideColumns, wideData(n)) }

var wideColumns = []string{"account_id", "frequency"}

func wideData(n int) [][]sqlengine.Value {
	freqs := []string{"POPLATEK MESICNE", "POPLATEK TYDNE", "POPLATEK PO OBRATU"}
	data := make([][]sqlengine.Value, n)
	for i := range data {
		data[i] = []sqlengine.Value{sqlengine.Int(int64(i * 7)), sqlengine.Text(freqs[i%3])}
	}
	return data
}

// TestAppendRowsReals pins the body text of the REALs whose every reading
// sqlengine's TestRealReadings pins (both zeros, NaN, both infinities, the
// float64 extremes and two inexact values), recorded when a REAL still had
// a float64 field of its own.
func TestAppendRowsReals(t *testing.T) {
	var row []sqlengine.Value
	for _, f := range []float64{
		math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1<<53 + 1, 0.1,
	} {
		row = append(row, sqlengine.Float(f))
	}
	rows := sqlengine.NewRows(make([]string, len(row)), [][]sqlengine.Value{row})
	const want = `[["-0.0","0.0","NaN","Inf","-Inf","1.7976931348623157e+308","5e-324","9.007199254740992e+15","0.1"]]`
	if got := appendRows(io.Discard, nil, rows, 1); string(got) != want {
		t.Errorf("appendRows = %s, want %s", got, want)
	}
}

// FuzzWriteRows holds the writer to encoding/json over engine rows read
// from fuzzer bytes (fuzzRows: every cell kind, arbitrary text bytes and
// float bits, nil and ragged rows), with the same bytes as the evidence
// string and the fuzzer's max_rows. The seeds cover each escape rule.
func FuzzWriteRows(f *testing.F) {
	for _, seed := range [][]byte{
		nil,
		{0},
		fuzzText("plain"),
		fuzzText("\b\f\n\r\t"),
		fuzzText("\x00\x01\x1f\x7f"),
		fuzzText("bad \xff\xfe \xe2\x80 utf8"),
		fuzzText("\u2028 and \u2029"),
		fuzzText(`<a href="x">&amp;</a> \ `),
		append(append([]byte{3}, fuzzNum(1, math.MaxInt64)...), fuzzNum(1, 1<<63)...),
		append(append(append([]byte{3}, fuzzNum(2, math.Float64bits(math.NaN()))...), fuzzNum(2, math.Float64bits(math.Inf(-1)))...), fuzzNum(2, 1<<63)...),
		append(append([]byte{2}, fuzzNum(2, 1)...), fuzzNum(2, math.Float64bits(1e15))...),
		{1, 0, 4, 4, 6, 0, 14, 4},
	} {
		for _, maxRows := range []int{0, 1, 2} {
			f.Add(seed, maxRows)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, maxRows int) {
		resp := api.QueryResponse{DB: "d", Source: api.SourceCache, Evidence: string(data)}
		checkWriter(t, fmt.Sprintf("%q max_rows %d", data, maxRows), resp, fuzzRows(data), maxRows)
	})
}

// fuzzRows reads a result from bytes. The first byte is the column count
// (its low two bits; none when its top bit is set, so columns are nil).
// Then each op byte's low three bits say what comes next: 0 NULL, 1 an
// INTEGER from the next 8 bytes, 2 a REAL from the next 8 bytes' bits, 3
// TEXT of the next op>>3 bytes, 4 the end of a row (its cells not given
// NULL; a row of no column), 5 a row of NULLs, 6 the REAL op>>3, 7 the
// INTEGER op>>3. The cells fill the rows a column at a time, each row
// ending when it has a cell per column, and cells past a result of no
// column are dropped; so any column may come out of one class, of NULLs or
// of several classes. No bytes: no result set.
func fuzzRows(data []byte) *sqlengine.Rows {
	if len(data) == 0 {
		return nil
	}
	var cols []string
	if data[0]&0x80 == 0 {
		cols = []string{}
		for c := range int(data[0] & 3) {
			cols = append(cols, fmt.Sprintf("c%d", c))
		}
	}
	data = data[1:]
	take := func(n int) []byte {
		n = min(n, len(data))
		out := data[:n]
		data = data[n:]
		return out
	}
	word := func() uint64 {
		var b [8]byte
		copy(b[:], take(8))
		return binary.LittleEndian.Uint64(b[:])
	}
	var rows [][]sqlengine.Value
	var row []sqlengine.Value
	end := func() {
		rows = append(rows, append(row, make([]sqlengine.Value, len(cols)-len(row))...))
		row = nil
	}
	for len(data) > 0 {
		var v sqlengine.Value
		switch op := take(1)[0]; op & 7 {
		case 0:
		case 1:
			v = sqlengine.Int(int64(word()))
		case 2:
			v = sqlengine.Float(math.Float64frombits(word()))
		case 3:
			v = sqlengine.Text(string(take(int(op >> 3))))
		case 4:
			end()
			continue
		case 5:
			if row != nil {
				end()
			}
			end()
			continue
		case 6:
			v = sqlengine.Float(float64(op >> 3))
		case 7:
			v = sqlengine.Int(int64(op >> 3))
		}
		if len(cols) > 0 {
			if row = append(row, v); len(row) == len(cols) {
				end()
			}
		}
	}
	if row != nil {
		end()
	}
	return sqlengine.NewRows(cols, rows)
}

// fuzzText is fuzzRows' bytes for one row of one TEXT cell (s under 32 bytes).
func fuzzText(s string) []byte { return append([]byte{1, byte(3 | len(s)<<3)}, s...) }

// fuzzNum is fuzzRows' op bytes for a number cell: op 1 (INTEGER) or 2 (REAL)
// and the word.
func fuzzNum(op byte, w uint64) []byte { return binary.LittleEndian.AppendUint64([]byte{op}, w) }

// jsonTexts are strings that exercise every escape rule.
var jsonTexts = []string{
	"", "plain", "<a href=\"x\">&amp;</a>", "quote\" back\\slash",
	"\b\f\n\r\t", "\x00\x01\x1f\x7f", "bad \xff\xfe utf8", "cut \xe2\x80", "\xed\xa0\x80 surrogate",
	"line\u2028para\u2029", "héllo wörld ✓ 𝄞", "\ufffd",
}

func randText(rng *rand.Rand) string {
	if rng.IntN(2) == 0 {
		return jsonTexts[rng.IntN(len(jsonTexts))]
	}
	// Bytes drawn mostly from the interesting ones.
	const alphabet = "ab \"\\<>&\x00\x08\x0c\n\r\t\x1f\x7f\x80\xbf\xc3\xa9\xe2\x80\xa8\xa9\xf0\x9d\x84\x9e\xff"
	b := make([]byte, rng.IntN(12))
	for i := range b {
		b[i] = alphabet[rng.IntN(len(alphabet))]
	}
	return string(b)
}

var (
	specialInts   = []int64{0, 1, -1, 99, 100, math.MaxInt64, math.MinInt64, 1e15}
	specialFloats = []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, 1e-7, 0.1, 1.5,
		1e15, 1e15 - 1, -1e15, 999999999999999.9, 1e21, 1e300, math.MaxFloat64, -123.456,
	}
)

// randValue draws a cell of the storage class class: 0 NULL, 1 INTEGER, 2
// REAL, 3 TEXT, 4 a kind the engine has no name for; any other class is
// any of them.
func randValue(rng *rand.Rand, class int) sqlengine.Value {
	if class > 4 {
		class = [...]int{0, 1, 1, 2, 2, 2, 4, 3, 3}[rng.IntN(9)]
	}
	switch class {
	case 0:
		return sqlengine.Null()
	case 1:
		if rng.IntN(2) == 0 {
			return sqlengine.Int(specialInts[rng.IntN(len(specialInts))])
		}
		return sqlengine.Int(rng.Int64() - rng.Int64())
	case 2:
		switch rng.IntN(3) {
		case 0:
			return sqlengine.Float(specialFloats[rng.IntN(len(specialFloats))])
		case 1:
			return sqlengine.Float(rng.NormFloat64() * math.Pow(10, float64(rng.IntN(40)-20)))
		}
		return sqlengine.Float(math.Float64frombits(rng.Uint64()))
	case 4:
		return sqlengine.Value{Kind: sqlengine.Kind(4 + rng.IntN(3)), I: 7, S: "x"}
	}
	return sqlengine.Text(randText(rng))
}

// randRows draws a result of up to three columns and six rows, each column
// of one storage class, NULL-bearing or not, or of several classes.
func randRows(rng *rand.Rand) *sqlengine.Rows {
	if rng.IntN(10) == 0 {
		return nil
	}
	var cols []string // nil: a result of no column with a null columns list
	if rng.IntN(8) > 0 {
		cols = make([]string, rng.IntN(4))
		for i := range cols {
			cols[i] = randText(rng)
		}
	}
	data := make([][]sqlengine.Value, rng.IntN(7))
	for i := range data {
		data[i] = make([]sqlengine.Value, len(cols))
	}
	for k := range cols {
		class, nulls := rng.IntN(7), rng.IntN(3) == 0
		for i := range data {
			if nulls && rng.IntN(2) == 0 {
				continue
			}
			data[i][k] = randValue(rng, class)
		}
	}
	return sqlengine.NewRows(cols, data)
}

func randEnvelope(rng *rand.Rand) api.QueryResponse {
	resp := api.QueryResponse{
		DB: randText(rng), ExampleID: randText(rng), Question: randText(rng),
		Source:   []string{api.SourceMemory, api.SourceCache, api.SourceGenerated}[rng.IntN(3)],
		Evidence: randText(rng), EvidenceCacheHit: rng.IntN(2) == 0, SQL: randText(rng),
		Cost: rng.Int64() - rng.Int64(),
		Timing: api.QueryTiming{
			EvidenceMicros: rng.Int64N(1e6), GenerateMicros: rng.Int64N(1e6),
			PrepareMicros: rng.Int64N(1e6), ExecuteMicros: -rng.Int64N(10),
		},
	}
	if rng.IntN(2) == 0 {
		resp.Timing.MemoryMicros = rng.Int64N(1e6) + 1
	}
	switch rng.IntN(4) {
	case 0:
		resp.MemoryConfidence = []float64{
			0.5, 1, 0.123456789, 1e-6, 1e-7, 123e-9, 1e20, 1e21, 1.5e300, 5e-324, -2.5, math.Copysign(0, -1), math.NaN(),
		}[rng.IntN(13)]
	case 1:
		resp.MemoryConfidence = rng.Float64()
	}
	if rng.IntN(2) == 0 {
		resp.EvidenceTrace = randTrace(rng)
	}
	return resp
}

func randTrace(rng *rand.Rand) *pipeline.Trace {
	tr := &pipeline.Trace{Graph: randText(rng), WallMicros: rng.Int64N(1e6), SerialMicros: rng.Int64N(1e6)}
	if n := rng.IntN(5) - 1; n >= 0 {
		tr.Stages = make([]pipeline.StageTrace, n)
	}
	for i := range tr.Stages {
		st := &tr.Stages[i]
		st.Stage, st.WallMicros = randText(rng), rng.Int64N(1e6)-10
		switch rng.IntN(3) {
		case 0:
			st.Deps = []string{}
		case 1:
			st.Deps = []string{randText(rng), randText(rng)}
		}
		st.CacheHit = rng.IntN(2) == 0
		if rng.IntN(2) == 0 {
			st.StartMicros = rng.Int64N(1e6) - 10
		}
		if rng.IntN(2) == 0 {
			st.Tokens = rng.IntN(1e4) - 10
		}
		if rng.IntN(3) == 0 {
			st.Err = randText(rng)
		}
	}
	return tr
}

// discardWriter is a ResponseWriter that keeps nothing, so the benchmark
// counts only what encoding costs.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d discardWriter) WriteHeader(int)             {}

// BenchmarkWriteQueryResponse is the writer's layer number: the appender
// against the encoding/json reference it replaced, at 0, 5, 2,000 and 20k
// rows of an INTEGER and a TEXT column (2,000 rows is a ~57 KB body, one
// piece; the ORDER BY statements that lost their LIMIT on scan100k_warm
// answer 18-24k rows).
func BenchmarkWriteQueryResponse(b *testing.B) {
	resp := api.QueryResponse{
		DB: "financial", ExampleID: "synth-0007", Question: "List the accounts of the district with the most clients.",
		Source: api.SourceCache, Evidence: "district refers to district.A2", EvidenceCacheHit: true,
		SQL: "SELECT account_id, frequency FROM account ORDER BY date DESC", Cost: 100_000,
		Timing: api.QueryTiming{EvidenceMicros: 3, GenerateMicros: 40, PrepareMicros: 2, ExecuteMicros: 9000},
	}
	for _, n := range []int{0, 5, 2_000, 20_000} {
		rows := wideRows(n)
		w := discardWriter{h: http.Header{}}
		b.Run(fmt.Sprintf("rows=%d/append", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				writeQueryResponse(w, &resp, rows, 0)
			}
		})
		b.Run(fmt.Sprintf("rows=%d/encoding_json", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				referenceWrite(w, resp, rows, 0)
			}
		})
	}
}
