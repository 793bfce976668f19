package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/pipeline"
	"repro/internal/sqlengine"
)

// renderRows is the renderer writeQueryResponse replaced, kept as its
// reference: engine rows to JSON-shaped values, NULL as nil and every other
// cell its text, for encoding/json to write. The rows share one backing
// array sized to their total cell count (rows of different widths
// included), one full-capacity sub-slice per row.
func renderRows(rows *sqlengine.Rows, n int) [][]any {
	cells := 0
	for _, r := range rows.Data[:n] {
		cells += len(r)
	}
	backing := make([]any, cells)
	out := make([][]any, n)
	for i, r := range rows.Data[:n] {
		row := backing[:len(r):len(r)]
		backing = backing[len(r):]
		for j, v := range r {
			if !v.IsNull() { // NULL stays the nil the backing holds
				row[j] = v.AsText()
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
		resp.RowCount = len(rows.Data)
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
// referenceWrite does: status, content type and body bytes.
func checkWriter(t *testing.T, label string, resp api.QueryResponse, rows *sqlengine.Rows, maxRows int) {
	t.Helper()
	want, got := httptest.NewRecorder(), httptest.NewRecorder()
	referenceWrite(want, resp, rows, maxRows)
	writeQueryResponse(got, &resp, rows, maxRows)
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("%s: status %d %q, want %d %q", label, got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
	}
	if g, w := got.Body.Bytes(), want.Body.Bytes(); !bytes.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-40, 0)
		t.Fatalf("%s: bodies differ at byte %d\n  writer:        %q\n  encoding/json: %q",
			label, i, g[lo:min(i+40, len(g))], w[lo:min(i+40, len(w))])
	}
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
				n = len(rows.Data)
			}
			maxRows := []int{0, 1, n, n + 1, -1, rng.IntN(8)}[rng.IntN(6)]
			checkWriter(t, fmt.Sprintf("response %d", i), randEnvelope(rng), rows, maxRows)
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
				n = len(res.Rows.Data)
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
	rows := &sqlengine.Rows{Columns: []string{"n"}, Data: [][]sqlengine.Value{{sqlengine.Int(1)}}}
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

// FuzzWriteRows holds the writer to encoding/json over engine rows read
// from fuzzer bytes (fuzzRows: every cell kind, arbitrary text bytes and
// float bits, nil and ragged rows), with the same bytes as the evidence
// string and the fuzzer's max_rows. The seeds cover each escape rule.
// TestAppendRowsReals pins the body text of the REALs whose every reading
// sqlengine's TestRealReadings pins (both zeros, NaN, both infinities, the
// float64 extremes and two inexact values), recorded when a REAL still had
// a float64 field of its own, and that rowsLen bounds it.
func TestAppendRowsReals(t *testing.T) {
	var row []sqlengine.Value
	for _, f := range []float64{
		math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1<<53 + 1, 0.1,
	} {
		row = append(row, sqlengine.Float(f))
	}
	data := [][]sqlengine.Value{row}
	const want = `[["-0.0","0.0","NaN","Inf","-Inf","1.7976931348623157e+308","5e-324","9.007199254740992e+15","0.1"]]`
	if got := appendRows(nil, data); string(got) != want {
		t.Errorf("appendRows = %s, want %s", got, want)
	}
	if n := rowsLen(data); n < len(want) {
		t.Errorf("rowsLen = %d, below the body's %d bytes", n, len(want))
	}
}

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

// fuzzRows reads engine rows from bytes. The first byte is the column
// count (its low two bits; none when its top bit is set, so columns are
// nil). Then each op byte's low three bits say what comes next: 0 NULL, 1
// an INTEGER from the next 8 bytes, 2 a REAL from the next 8 bytes' bits,
// 3 TEXT of the next op>>3 bytes, 4 the end of a row (a nil row when it
// has no cell), 5 an empty non-nil row, 6 a cell of a kind the engine has
// no name for, 7 the INTEGER op>>3. No bytes: no result set.
func fuzzRows(data []byte) *sqlengine.Rows {
	if len(data) == 0 {
		return nil
	}
	rows := &sqlengine.Rows{}
	if data[0]&0x80 == 0 {
		rows.Columns = []string{}
		for c := range int(data[0] & 3) {
			rows.Columns = append(rows.Columns, fmt.Sprintf("c%d", c))
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
	var row []sqlengine.Value
	for len(data) > 0 {
		op := take(1)[0]
		switch op & 7 {
		case 0:
			row = append(row, sqlengine.Null())
		case 1:
			row = append(row, sqlengine.Int(int64(word())))
		case 2:
			row = append(row, sqlengine.Float(math.Float64frombits(word())))
		case 3:
			row = append(row, sqlengine.Text(string(take(int(op>>3)))))
		case 4:
			rows.Data = append(rows.Data, row)
			row = nil
		case 5:
			rows.Data = append(rows.Data, []sqlengine.Value{})
		case 6:
			row = append(row, sqlengine.Value{Kind: sqlengine.Kind(4 + op>>3), I: 1, S: "?"})
		case 7:
			row = append(row, sqlengine.Int(int64(op>>3)))
		}
	}
	if row != nil {
		rows.Data = append(rows.Data, row)
	}
	return rows
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

func randValue(rng *rand.Rand) sqlengine.Value {
	switch rng.IntN(9) {
	case 0:
		return sqlengine.Null()
	case 1:
		return sqlengine.Int(specialInts[rng.IntN(len(specialInts))])
	case 2:
		return sqlengine.Int(rng.Int64() - rng.Int64())
	case 3:
		return sqlengine.Float(specialFloats[rng.IntN(len(specialFloats))])
	case 4:
		return sqlengine.Float(rng.NormFloat64() * math.Pow(10, float64(rng.IntN(40)-20)))
	case 5:
		return sqlengine.Float(math.Float64frombits(rng.Uint64()))
	case 6:
		return sqlengine.Value{Kind: sqlengine.Kind(4 + rng.IntN(3)), I: 7, S: "x"}
	default:
		return sqlengine.Text(randText(rng))
	}
}

func randRows(rng *rand.Rand) *sqlengine.Rows {
	if rng.IntN(10) == 0 {
		return nil
	}
	rows := &sqlengine.Rows{}
	width := rng.IntN(4)
	if rng.IntN(8) > 0 {
		rows.Columns = make([]string, width)
		for i := range rows.Columns {
			rows.Columns[i] = randText(rng)
		}
	}
	n := rng.IntN(7)
	if n == 0 && rng.IntN(2) == 0 {
		return rows // Data nil
	}
	rows.Data = make([][]sqlengine.Value, n)
	for i := range rows.Data {
		w := width
		switch rng.IntN(10) {
		case 0:
			continue // a nil row
		case 1:
			w = 0 // an empty one
		case 2:
			w = rng.IntN(5) // a ragged one
		}
		rows.Data[i] = make([]sqlengine.Value, w)
		for j := range w {
			rows.Data[i][j] = randValue(rng)
		}
	}
	return rows
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
// against the encoding/json reference it replaced, at 0, 5 and 20k rows of
// an INTEGER and a TEXT column (the ORDER BY statements that lost their
// LIMIT on scan100k_warm answer 18-24k rows).
func BenchmarkWriteQueryResponse(b *testing.B) {
	resp := api.QueryResponse{
		DB: "financial", ExampleID: "synth-0007", Question: "List the accounts of the district with the most clients.",
		Source: api.SourceCache, Evidence: "district refers to district.A2", EvidenceCacheHit: true,
		SQL: "SELECT account_id, frequency FROM account ORDER BY date DESC", Cost: 100_000,
		Timing: api.QueryTiming{EvidenceMicros: 3, GenerateMicros: 40, PrepareMicros: 2, ExecuteMicros: 9000},
	}
	freqs := []string{"POPLATEK MESICNE", "POPLATEK TYDNE", "POPLATEK PO OBRATU"}
	for _, n := range []int{0, 5, 20_000} {
		rows := &sqlengine.Rows{Columns: []string{"account_id", "frequency"}, Data: make([][]sqlengine.Value, n)}
		for i := range rows.Data {
			rows.Data[i] = []sqlengine.Value{sqlengine.Int(int64(i * 7)), sqlengine.Text(freqs[i%3])}
		}
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
