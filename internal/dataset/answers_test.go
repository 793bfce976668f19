package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sqlengine"
)

// recordAnswers re-records testdata/answers.golden from the engine under
// test: go test -run TestCorpusAnswersGolden ./internal/dataset/ -record-answers
var recordAnswers = flag.Bool("record-answers", false, "re-record testdata/answers.golden")

// rowsDigest renders a result's rows as their count and a digest of the
// column names and every cell with its storage class, in order. A result
// with no rows digests as the engine's nil Data did.
func rowsDigest(rows *sqlengine.Rows) string {
	h := sha256.New()
	for _, c := range rows.Columns {
		fmt.Fprintf(h, "%q,", c)
	}
	fmt.Fprintf(h, "|nil=%v|", rows.Len() == 0)
	var buf []byte
	for i := 0; i < rows.Len(); i++ {
		buf = binary.AppendUvarint(buf[:0], uint64(len(rows.Columns)))
		for k := range rows.Columns {
			v := rows.Cell(i, k)
			buf = append(buf, byte(v.Kind))
			switch v.Kind {
			case sqlengine.KindInt, sqlengine.KindFloat:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
			case sqlengine.KindText:
				buf = binary.AppendUvarint(buf, uint64(len(v.S)))
				buf = append(buf, v.S...)
			}
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%d rows %s", rows.Len(), hex.EncodeToString(h.Sum(nil))[:16])
}

// answer renders one execution: its rows' digest and Cost, or its error.
func answer(res *sqlengine.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%s cost %d", rowsDigest(res.Rows), res.Cost)
}

// corpusAnswers runs the gold and the corrupt SQL of every example of c, in
// split order, on the planned engine and on the naive reference.
func corpusAnswers(c *Corpus) []string {
	var lines []string
	for _, split := range []struct {
		name string
		ex   []Example
	}{{"train", c.Train}, {"dev", c.Dev}, {"test", c.Test}} {
		for _, e := range split.ex {
			for _, q := range []struct{ kind, sql string }{{"gold", e.GoldSQL}, {"corrupt", e.CorruptSQL}} {
				key := fmt.Sprintf("%s/%s/%s/%s", c.Name, split.name, e.ID, q.kind)
				st, err := c.DBs[e.DB].Engine.Prepare(q.sql)
				if err != nil {
					lines = append(lines, key+"\tprepare "+answer(nil, err))
					continue
				}
				lines = append(lines, key+"\tplanned "+answer(st.Exec())+"\tnaive "+answer(st.ExecReference()))
			}
		}
	}
	return lines
}

// TestCorpusAnswersGolden pins what the engine answers for every gold and
// corrupt SQL of BIRD and Spider at seed 7: rows with their storage classes
// and order (as a digest), or the error text, and the Cost of both
// Stmt.Exec and Stmt.ExecReference. Both executors share the evaluator, so
// their agreement alone cannot catch a change of semantics; this file can.
// Re-record it with -record-answers (see recordAnswers) only for a change
// of semantics, and name every statement whose line moved, with SQLite's
// answer for it.
func TestCorpusAnswersGolden(t *testing.T) {
	lines := append(corpusAnswers(BuildBIRD(BIRDOptions{Seed: 7})), corpusAnswers(BuildSpider(7))...)
	path := filepath.Join("testdata", "answers.golden")
	got := strings.Join(lines, "\n") + "\n"
	if *recordAnswers {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s holds %d statements, the corpora have %d", path, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("line %d moved:\n got  %s\n want %s", i+1, lines[i], want[i])
		}
	}
}
