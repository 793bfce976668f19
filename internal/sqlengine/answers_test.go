package sqlengine

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
)

// recordAnswers re-records testdata/answers.golden from the engine under
// test: go test -run TestEngineAnswersGolden ./internal/sqlengine/ -record-answers
var recordAnswers = flag.Bool("record-answers", false, "re-record testdata/answers.golden")

var goldenAnswers = filepath.Join("testdata", "answers.golden")

// rowsDigest renders a result's rows as their count and a digest of the
// column names and every cell with its storage class, in order: two results
// share a digest iff rowsIdentical holds between them. A result with no
// rows digests as the engine's nil Data did; one whose rows a LIMIT or
// OFFSET window cut away digested apart from it then (see CHANGES.md).
func rowsDigest(rows *Rows) string {
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
			case KindInt, KindFloat:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
			case KindText:
				buf = binary.AppendUvarint(buf, uint64(len(v.S)))
				buf = append(buf, v.S...)
			}
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%d rows %s", rows.Len(), hex.EncodeToString(h.Sum(nil))[:16])
}

// answer renders one execution: its rows' digest or the rows it changed,
// and its Cost; or its error text.
func answer(res *Result, err error) string {
	switch {
	case err != nil:
		return "error: " + err.Error()
	case res.Rows == nil:
		return fmt.Sprintf("affected %d cost %d", res.RowsAffected, res.Cost)
	}
	return fmt.Sprintf("%s cost %d", rowsDigest(res.Rows), res.Cost)
}

// answerLine is a statement's golden line: what the planned engine and the
// naive reference answered it, or the error that failed its Prepare.
func answerLine(key string, db *Database, sql string) string {
	st, err := db.Prepare(sql)
	if err != nil {
		return key + "\tprepare " + answer(nil, err)
	}
	return key + "\tplanned " + answer(st.Exec()) + "\tnaive " + answer(st.ExecReference())
}

// engineAnswers runs every statement of the engine's batteries on its
// fixture: crossCheckQueries and tailCheckQueries on the 60-row planner
// fixture at three seeds, engineQueries on a 9,000-row database (several
// morsels) and the physical path of the COUNT(*) battery's there, each
// TestNameResolutionPin case on a fresh name fixture per executor, with the
// check query of a DML case after it, and every step of the DML-on-storage
// battery (storage_test.go).
func engineAnswers(t *testing.T) []string {
	var lines []string
	for _, seed := range []int64{1, 7, 42} {
		db := buildMultiDB(seed, 60)
		for _, q := range append(append([]string{}, crossCheckQueries...), tailCheckQueries...) {
			lines = append(lines, answerLine(fmt.Sprintf("multi%d\t%s", seed, q), db, q))
		}
	}
	db := buildEngineDB(5, 9000)
	for _, q := range engineQueries {
		lines = append(lines, answerLine("engine9000\t"+q, db, q))
	}
	lines = append(lines, countPathLines(db)...)
	for _, c := range nameResolutionCases {
		// Each executor on a fresh fixture, which a DML case changes.
		line := "names\t" + c.sql
		for _, run := range []struct {
			name string
			exec func(*Stmt) (*Result, error)
		}{{"planned", (*Stmt).Exec}, {"naive", (*Stmt).ExecReference}} {
			db := nameFixture(t)
			st, err := db.Prepare(c.sql)
			if err != nil {
				line += "\tprepare " + answer(nil, err)
				break
			}
			line += "\t" + run.name + " " + answer(run.exec(st))
			if c.check != "" {
				line += " then " + answer(db.Exec(c.check))
			}
		}
		lines = append(lines, line)
	}
	return append(lines, storageAnswers()...)
}

// TestEngineAnswersGolden pins what the engine answers for every statement
// of its batteries: rows with their storage classes and order (as a
// digest), or the error text, and the Cost of both Stmt.Exec and
// Stmt.ExecReference. The planned-vs-naive matrix cannot see a change both
// executors share; this file can. Re-record it with -record-answers (see
// recordAnswers) only for a change of semantics, and name every statement
// whose line moved, with SQLite's answer for it.
func TestEngineAnswersGolden(t *testing.T) {
	checkGolden(t, goldenAnswers, engineAnswers(t))
}

// checkGolden compares lines with the golden file at path, or re-records
// the file under -record-answers.
func checkGolden(t *testing.T, path string, lines []string) {
	t.Helper()
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
		t.Fatalf("%s holds %d statements, the batteries have %d", path, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("line %d moved:\n got  %s\n want %s", i+1, lines[i], want[i])
		}
	}
}
