// The result-reader battery. Every producer of a result runs here — a
// position gather, top-k through the heap, a full sort through packed words
// and through the comparator, typed aggregates, the interpreter's tail,
// UNION, INTERSECT and EXCEPT, DISTINCT, scalar, IN and EXISTS subqueries,
// a FROM sub-select and a join's pairs — over a fixture whose columns hold
// every storage class: a mixed-kind column, an all-NULL one, REALs that are
// -0.0, integral or 1e21, and results with no rows. Each answer is pinned
// as literals: the path that built it, every cell with its storage class,
// and qmemory.Fingerprint of it, so a stored pattern still verifies. The
// naive reference must answer the same cells, and eval.ResultsEqual's rules
// (empty results of any width are equal, ordered against multiset
// comparison) are pinned over pairs of the answers. The external test
// package lets the battery reach qmemory and eval, which import the engine.
package sqlengine_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/qmemory"
	"repro/internal/sqlengine"
)

// resultFixture is the battery's database: t holds six rows over every
// storage class, u four rows keyed into t.
func resultFixture(t *testing.T) *sqlengine.Database {
	t.Helper()
	db := sqlengine.NewDatabase("results")
	db.MustExec("CREATE TABLE t (id INTEGER, r REAL, s TEXT, m INTEGER, g TEXT, z INTEGER)")
	db.MustExec("CREATE TABLE u (k INTEGER, label TEXT)")
	I, R, T, N := sqlengine.Int, sqlengine.Float, sqlengine.Text, sqlengine.Null()
	rows := [][]sqlengine.Value{
		{I(1), R(math.Copysign(0, -1)), T("a"), I(1), T("x"), N},
		{I(2), R(2), T("b"), T("one"), T("y"), N},
		{I(3), R(1e21), N, R(2.5), T("x"), N},
		{I(4), N, T(`c"q`), N, N, N},
		{I(5), R(0.5), T("a"), I(3), T("y"), N},
		{I(6), R(-7.25), T("é\n"), T("two"), T("x"), N},
	}
	if _, err := db.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO u VALUES (2, 'two'), (4, 'four'), (4, 'four again'), (9, 'nine')")
	return db
}

// cellText renders one cell with its storage class: N, I:<int>,
// R:<shortest float, -0 kept> or T:<quoted text>.
func cellText(v sqlengine.Value) string {
	switch v.Kind {
	case sqlengine.KindNull:
		return "N"
	case sqlengine.KindInt:
		return "I:" + strconv.FormatInt(v.I, 10)
	case sqlengine.KindFloat:
		return "R:" + strconv.FormatFloat(v.Real(), 'g', -1, 64)
	}
	return "T:" + strconv.Quote(v.S)
}

// resultText renders a result: its width, then each row's cells, rows
// separated by " | ".
func resultText(rows *sqlengine.Rows) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(len(rows.Columns)))
	b.WriteString(" cols:")
	for i, r := range rowsOf(rows) {
		if i > 0 {
			b.WriteString(" |")
		}
		for _, v := range r {
			b.WriteString(" ")
			b.WriteString(cellText(v))
		}
	}
	return b.String()
}

// resultCase is one statement of the battery and what it answered when the
// battery was recorded: the path of its top-level SELECT, its cells and
// its fingerprint.
type resultCase struct {
	sql, path, rows, fp string
}

var resultCases = []resultCase{
	// A position gather, a literal column, a join's pairs, a nested loop, and
	// three tables, whose first join's pairs are materialised for the second.
	{"SELECT id, r, s, m FROM t WHERE id <= 3", "positions/gather", `4 cols: I:1 R:-0 T:"a" I:1 | I:2 R:2 T:"b" T:"one" | I:3 R:1e+21 N R:2.5`, "9ad1bed39c577a50"},
	{"SELECT 1, id, 'k' FROM t LIMIT 2", "positions/gather", `3 cols: I:1 I:1 T:"k" | I:1 I:2 T:"k"`, "f5d784a065073b28"},
	{"SELECT t.id, u.label FROM t JOIN u ON t.id = u.k", "pairs/gather", `2 cols: I:2 T:"two" | I:4 T:"four" | I:4 T:"four again"`, "6a6f5ad325878600"},
	{"SELECT t.id, u.label FROM t LEFT JOIN u ON t.id = u.k ORDER BY t.id DESC LIMIT 4", "pairs/topk", `2 cols: I:6 N | I:5 N | I:4 T:"four" | I:4 T:"four again"`, "cd5f810183dc3b7f"},
	{"SELECT t.id, u.k FROM t JOIN u ON t.id > u.k", "positions/gather", `2 cols: I:3 I:2 | I:4 I:2 | I:5 I:2 | I:5 I:4 | I:5 I:4 | I:6 I:2 | I:6 I:4 | I:6 I:4`, "dcd4d3b2a339a129"},
	{"SELECT a.id, b.label, c.s FROM t AS a JOIN u AS b ON a.id = b.k JOIN t AS c ON c.id = b.k - 1", "positions/gather", `3 cols: I:2 T:"two" T:"a" | I:4 T:"four" N | I:4 T:"four again" N`, "c782129c6e613c63"},
	// Top-k through the heap, and full sorts through words and the
	// comparator.
	{"SELECT id, r FROM t ORDER BY r DESC, id LIMIT 3", "positions/topk", `2 cols: I:3 R:1e+21 | I:2 R:2 | I:5 R:0.5`, "c41dd3420087be46"},
	{"SELECT s, id FROM t ORDER BY id DESC", "positions/topk", `2 cols: T:"é\n" I:6 | T:"a" I:5 | T:"c\"q" I:4 | N I:3 | T:"b" I:2 | T:"a" I:1`, "860148dfa24a865a"},
	{"SELECT r FROM t WHERE r IS NOT NULL ORDER BY r", "positions/topk", `1 cols: R:-7.25 | R:-0 | R:0.5 | R:2 | R:1e+21`, "c046093e47f1d5a2"},
	{"SELECT m, id FROM t ORDER BY m, id", "positions/topk", `2 cols: N I:4 | I:1 I:1 | R:2.5 I:3 | I:3 I:5 | T:"one" I:2 | T:"two" I:6`, "1eb8d1e5df4513b2"},
	// Typed aggregates, ungrouped and grouped.
	{"SELECT COUNT(*), COUNT(r), SUM(id), TOTAL(r), AVG(id), MIN(s), MAX(m), MIN(z) FROM t", "positions/agg", `8 cols: I:6 I:5 I:21 R:1e+21 R:3.5 T:"a" T:"two" N`, "424ef3877290294f"},
	{"SELECT g, COUNT(*), SUM(r) FROM t GROUP BY g ORDER BY 1", "positions/agg", `3 cols: N I:1 N | T:"x" I:3 R:1e+21 | T:"y" I:2 R:2.5`, "2075bdea74bc6969"},
	{"SELECT SUM(id) FROM t WHERE id > 100", "positions/agg", `1 cols: N`, "02ae5cfd3f95d5b8"},
	// DISTINCT aggregates, HAVING over an aggregate that is and one that is
	// not in the select list, aggregates over expressions, and ORDER BY an
	// aggregate over groups.
	{"SELECT COUNT(DISTINCT g) FROM t", "positions/agg", `1 cols: I:2`, "4dcb68ccf269912b"},
	{"SELECT g, SUM(id) FROM t GROUP BY g HAVING SUM(id) > 4", "positions/agg", `2 cols: T:"x" I:10 | T:"y" I:7`, "ccb21fbee1066fe0"},
	{"SELECT g FROM t GROUP BY g HAVING COUNT(*) > 1", "positions/agg", `1 cols: T:"x" | T:"y"`, "dc8d6a5d05140f22"},
	{"SELECT MAX(id / r), SUM(id * m) FROM t", "positions/agg", `2 cols: R:10 R:23.5`, "900846f70081e42a"},
	{"SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY COUNT(*) DESC, 1 LIMIT 1", "positions/agg", `2 cols: T:"x" I:3`, "b249c464b88878dd"},
	// The interpreter's tail.
	{"SELECT GROUP_CONCAT(s) FROM t", "rows(aggregate)", `1 cols: T:"a,b,c\"q,a,é\n"`, "f1e0ad3b746c9e75"},
	{"SELECT id FROM t ORDER BY id * -1 LIMIT 4", "rows(order-by)", `1 cols: I:6 | I:5 | I:4 | I:3`, "b62a994b31d8165b"},
	{"SELECT id + 0.5, upper(s), r * 0 FROM t WHERE id < 4", "rows(projection)", `3 cols: R:1.5 T:"A" R:-0 | R:2.5 T:"B" R:0 | R:3.5 N R:0`, "8f84d6dbcf31c727"},
	// Compounds.
	{"SELECT s FROM t UNION SELECT label FROM u", "rows", `1 cols: T:"a" | T:"b" | N | T:"c\"q" | T:"é\n" | T:"two" | T:"four" | T:"four again" | T:"nine"`, "3ed19395c8f08fd7"},
	{"SELECT id FROM t INTERSECT SELECT k FROM u", "rows", `1 cols: I:2 | I:4`, "5f5f3cf63f80f585"},
	{"SELECT id FROM t EXCEPT SELECT k FROM u ORDER BY 1 DESC", "rows", `1 cols: I:6 | I:5 | I:3 | I:1`, "6d3aaf6e3e841a5c"},
	{"SELECT m FROM t UNION ALL SELECT label FROM u LIMIT 8", "rows", `1 cols: I:1 | T:"one" | R:2.5 | N | I:3 | T:"two" | T:"two" | T:"four"`, "daa1a641b4262491"},
	// DISTINCT.
	{"SELECT DISTINCT g FROM t", "positions/gather", `1 cols: T:"x" | T:"y" | N`, "2c8e8b83492d6463"},
	{"SELECT DISTINCT m, z FROM t", "positions/gather", `2 cols: I:1 N | T:"one" N | R:2.5 N | N N | I:3 N | T:"two" N`, "1b99cd2c8dc1e5f6"},
	// Scalar, IN and EXISTS subqueries, and a FROM sub-select.
	{"SELECT id, (SELECT MAX(r) FROM t), (SELECT k FROM u WHERE k > 100) FROM t WHERE id < 3", "rows(projection)", `3 cols: I:1 R:1e+21 N | I:2 R:1e+21 N`, "aaa416b1def29f11"},
	{"SELECT id FROM t WHERE id IN (SELECT k FROM u)", "positions/gather", `1 cols: I:2 | I:4`, "5f5f3cf63f80f585"},
	{"SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.id)", "positions/gather", `1 cols: I:2 | I:4`, "5f5f3cf63f80f585"},
	{"SELECT id FROM t WHERE NOT EXISTS (SELECT 1 FROM u)", "positions/gather", `1 cols:`, "2b7df8192bb7d5f3"},
	{"SELECT x.s, x.id FROM (SELECT s, id FROM t WHERE id > 1) AS x WHERE x.id < 6 ORDER BY x.id DESC", "positions/topk", `2 cols: T:"a" I:5 | T:"c\"q" I:4 | N I:3 | T:"b" I:2`, "79682dd817248c5a"},
	{"SELECT w.id FROM (SELECT id FROM t UNION SELECT k FROM u) AS w WHERE w.id > 3", "positions/gather", `1 cols: I:4 | I:5 | I:6 | I:9`, "63e3ea7f31766921"},
	// Mixed, all-NULL and REAL columns.
	{"SELECT m FROM t", "positions/gather", `1 cols: I:1 | T:"one" | R:2.5 | N | I:3 | T:"two"`, "de71485869e90667"},
	{"SELECT z, NULL FROM t WHERE id < 3", "positions/gather", `2 cols: N N | N N`, "b1041f226d11d43e"},
	{"SELECT r FROM t", "positions/gather", `1 cols: R:-0 | R:2 | R:1e+21 | N | R:0.5 | R:-7.25`, "9cabcb7458af541f"},
	{"SELECT -0.0, 1e21, 2.0, 7", "rows(projection)", `4 cols: R:-0 R:1e+21 R:2 I:7`, "02144ee6c7fb7c2f"},
	// No rows: filtered away, cut by the window, or from an empty group.
	{"SELECT id FROM t WHERE id > 100", "positions/gather", `1 cols:`, "2b7df8192bb7d5f3"},
	{"SELECT id, s FROM t WHERE 0", "positions/gather", `2 cols:`, "59ee663badc1b333"},
	{"SELECT id FROM t LIMIT 0", "positions/gather", `1 cols:`, "2b7df8192bb7d5f3"},
	{"SELECT id FROM t ORDER BY id LIMIT 5 OFFSET 100", "positions/topk", `1 cols:`, "2b7df8192bb7d5f3"},
	{"SELECT COUNT(*) FROM t LIMIT 0", "positions/agg", `1 cols:`, "584389da2dec9e98"},
	{"SELECT g, COUNT(*) FROM t WHERE id > 100 GROUP BY g", "positions/agg", `2 cols:`, "81fe08cb309f5a38"},
}

// TestResultReaders runs the battery: each statement's path, cells and
// fingerprint against the recorded literals, and the naive reference's
// cells against the planned engine's.
func TestResultReaders(t *testing.T) {
	db := resultFixture(t)
	for _, c := range resultCases {
		st, err := db.Prepare(c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		res, err := st.Exec()
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		got := resultCase{c.sql, res.Path, resultText(res.Rows), qmemory.Fingerprint(res.Rows)}
		if got != c {
			t.Errorf("answer moved:\n got  %q\n want %q", got, c)
		}
		ref, err := st.ExecReference()
		if err != nil {
			t.Errorf("%s on the naive reference: %v", c.sql, err)
		} else if r := resultText(ref.Rows); r != got.rows {
			t.Errorf("%s: naive %s, planned %s", c.sql, r, got.rows)
		}
	}
}

// TestResultsEqualRules pins eval.ResultsEqual over pairs of the battery's
// statements, in both directions: results with no rows are equal whatever
// their widths; otherwise the widths, the row counts and every row's cells
// must match, in order when ordered is set and as multisets otherwise; a
// REAL with an integral value matches the INTEGER it equals.
func TestResultsEqualRules(t *testing.T) {
	db := resultFixture(t)
	cases := []struct {
		a, b               string
		ordered, unordered bool
	}{
		{"SELECT id FROM t WHERE id > 100", "SELECT id, s FROM t WHERE 0", true, true},
		{"SELECT id FROM t LIMIT 0", "SELECT COUNT(*), SUM(id) FROM t LIMIT 0", true, true},
		{"SELECT id FROM t ORDER BY id", "SELECT id FROM t ORDER BY id DESC", false, true},
		{"SELECT id FROM t", "SELECT id FROM t ORDER BY id", true, true},
		{"SELECT id FROM t", "SELECT id, id FROM t", false, false},
		{"SELECT id FROM t", "SELECT id FROM t WHERE id > 1", false, false},
		{"SELECT g FROM t", "SELECT DISTINCT g FROM t", false, false},
		{"SELECT g FROM t WHERE id < 3", "SELECT DISTINCT g FROM t WHERE g IS NOT NULL", true, true},
		{"SELECT 2", "SELECT 2.0", true, true},
		{"SELECT 2", "SELECT '2'", false, false},
		{"SELECT r FROM t WHERE id = 1", "SELECT 0.0", true, true},
		{"SELECT NULL", "SELECT z FROM t WHERE id = 1", true, true},
		{"SELECT m FROM t", "SELECT m FROM t ORDER BY m", false, true},
		{"SELECT t.id FROM t JOIN u ON t.id = u.k", "SELECT k FROM u WHERE k < 5", true, true},
	}
	query := func(sql string) *sqlengine.Rows {
		rows, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rows
	}
	for _, c := range cases {
		a, b := query(c.a), query(c.b)
		for _, ordered := range []bool{true, false} {
			want := c.unordered
			if ordered {
				want = c.ordered
			}
			if got := eval.ResultsEqual(a, b, ordered); got != want {
				t.Errorf("ResultsEqual(%q, %q, ordered %v) = %v, want %v", c.a, c.b, ordered, got, want)
			}
			if got := eval.ResultsEqual(b, a, ordered); got != want {
				t.Errorf("ResultsEqual(%q, %q, ordered %v) = %v, want %v", c.b, c.a, ordered, got, want)
			}
		}
	}
}

// rowsOf returns a result's rows, read through Len and Cell.
func rowsOf(rows *sqlengine.Rows) [][]sqlengine.Value {
	out := make([][]sqlengine.Value, rows.Len())
	for i := range out {
		for k := range rows.Columns {
			out[i] = append(out[i], rows.Cell(i, k))
		}
	}
	return out
}
