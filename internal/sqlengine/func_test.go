package sqlengine

import (
	"testing"
	"testing/quick"
)

// Function-level coverage beyond the end-to-end execution tests.

func TestStrftimeSubset(t *testing.T) {
	db := NewDatabase("f")
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT STRFTIME('%Y', '2014-06-11')", "2014"},
		{"SELECT STRFTIME('%m', '2014-06-11')", "06"},
		{"SELECT STRFTIME('%d', '2014-06-11')", "11"},
		{"SELECT STRFTIME('%Y-%m', '2014-06-11')", "2014-06"},
	}
	for _, c := range cases {
		rows, err := db.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := rows.Cell(0, 0).AsText(); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
	// Unsupported format verbs error; malformed dates yield NULL.
	if _, err := db.Query("SELECT STRFTIME('%H', '2014-06-11')"); err == nil {
		t.Error("unsupported STRFTIME verb should error")
	}
	rows, err := db.Query("SELECT STRFTIME('%Y', 'not-a-date')")
	if err != nil || !rows.Cell(0, 0).IsNull() {
		t.Errorf("malformed date should yield NULL: %v %v", rows, err)
	}
}

func TestSubstrEdgeCases(t *testing.T) {
	db := NewDatabase("f")
	cases := []struct {
		sql, want string
	}{
		{"SELECT SUBSTR('hello', 2)", "ello"},
		{"SELECT SUBSTR('hello', 2, 2)", "el"},
		{"SELECT SUBSTR('hello', -2)", "lo"},
		{"SELECT SUBSTR('hello', 99)", ""},
		{"SELECT SUBSTR('hello', 1, 0)", ""},
	}
	for _, c := range cases {
		rows, err := db.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := rows.Cell(0, 0).AsText(); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	db := NewDatabase("f")
	for _, sql := range []string{"SELECT 1 / 0", "SELECT 1.5 / 0", "SELECT 5 % 0"} {
		rows, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !rows.Cell(0, 0).IsNull() {
			t.Errorf("%s should be NULL (SQLite semantics), got %v", sql, rows.Cell(0, 0))
		}
	}
}

func TestRenderedSelectRoundTripsThroughEngine(t *testing.T) {
	db := NewDatabase("r")
	db.MustExec("CREATE TABLE t (a INTEGER, b TEXT)")
	db.MustExec("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')")
	queries := []string{
		"SELECT COUNT(*) FROM t WHERE b = 'x'",
		"SELECT b, SUM(a) FROM t GROUP BY b HAVING COUNT(*) > 1 ORDER BY b",
		"SELECT a FROM t WHERE a IN (SELECT a FROM t WHERE b = 'x') ORDER BY a DESC LIMIT 2",
		"SELECT a FROM t WHERE EXISTS (SELECT 1 FROM t WHERE b = 'y') ORDER BY a",
		"SELECT DISTINCT b FROM t ORDER BY b",
	}
	for _, q := range queries {
		sel, err := ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %s: %v", q, err)
		}
		rendered := sel.SQL()
		r1, err := db.Query(q)
		if err != nil {
			t.Fatalf("exec original %s: %v", q, err)
		}
		r2, err := db.Query(rendered)
		if err != nil {
			t.Fatalf("exec rendered %s: %v", rendered, err)
		}
		if r1.Len() != r2.Len() {
			t.Errorf("render changed results for %s -> %s", q, rendered)
		}
	}
}

// Property: tokenize never panics and always terminates on arbitrary
// input (it either errors or yields tokens).
func TestTokenizeTotal(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 200 {
			s = s[:200]
		}
		toks, err := tokenize(s)
		return err != nil || toks != nil || s == "" || allSpaceOrComment(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func allSpaceOrComment(s string) bool {
	toks, err := tokenize(s)
	return err == nil && len(toks) == 0
}
