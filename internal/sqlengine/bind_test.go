package sqlengine

import (
	"fmt"
	"strings"
	"testing"
)

// nameFixture builds the tables of the name-resolution pin: t and u share
// the column a, u.a holds a value t.a does not, and e is empty.
func nameFixture(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("names")
	for _, s := range []string{
		"CREATE TABLE t (a INTEGER, b TEXT)",
		"CREATE TABLE u (a INTEGER, c INTEGER)",
		"CREATE TABLE e (a INTEGER)",
		"INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)",
		"INSERT INTO u VALUES (1, 10), (2, 20), (4, 40)",
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	return db
}

// preparedSelect prepares sql on db — parsed, bound and planned — and
// returns its SELECT.
func preparedSelect(t *testing.T, db *Database, sql string) *SelectStmt {
	t.Helper()
	st, err := db.Prepare(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return st.ast.(*SelectStmt)
}

// outcome renders what a statement answered: its columns and rows, the
// rows it changed, or its error.
func outcome(res *Result, err error) string {
	switch {
	case err != nil:
		return "error: " + err.Error()
	case res.Rows == nil:
		return fmt.Sprintf("affected %d", res.RowsAffected)
	}
	return strings.Join(res.Rows.Columns, ",") + ": " + strings.Join(flatten(res.Rows.rowData()), " / ")
}

// TestNameResolutionPin pins what every name in a statement means, on the
// planned engine and on the naive reference: qualified and unqualified
// columns, aliases, ambiguity, correlation at every depth, derived tables,
// stars, grouping, every ORDER BY rule, LIMIT and DML. A DML case's check
// query reads the table it changed, each case on a fresh fixture.
//
// Names are bound once, at Prepare, as in SQLite, so a name that does not
// bind fails the statement whether or not a row reaches it. The cases
// marked prepare are the ones where no row did: before binding, they
// answered what head records.
func TestNameResolutionPin(t *testing.T) {
	for _, c := range nameResolutionCases {
		var got [2]string
		for i, run := range []func(*Stmt) (*Result, error){(*Stmt).Exec, (*Stmt).ExecReference} {
			db := nameFixture(t)
			st, err := db.Prepare(c.sql)
			if err != nil {
				got[i] = outcome(nil, err)
				if !c.prepare && !strings.HasPrefix(c.want, "error: ") {
					t.Errorf("%s: Prepare: %v", c.name, err)
				}
				continue
			}
			if c.prepare {
				t.Errorf("%s: Prepare succeeded, want %q", c.name, c.want)
			}
			got[i] = outcome(run(st))
			if c.check != "" {
				got[i] += " | " + outcome(db.Exec(c.check))
			}
		}
		for i, executor := range []string{"planned", "naive"} {
			if got[i] != c.want {
				t.Errorf("%s: %s engine answered %q, want %q", c.name, executor, got[i], c.want)
			}
		}
	}
}

// nameResolutionCases are TestNameResolutionPin's statements, each run on a
// fresh nameFixture; a DML case's check query reads the table it changed.
var nameResolutionCases = []struct {
	name, sql, check string
	want             string
	prepare          bool   // want is a Prepare error
	head             string // what the statement answered when names were resolved per row
}{
	{name: "unqualified and qualified", sql: "SELECT a, t.b FROM t ORDER BY a DESC",
		want: "a,b: 3|NULL / 2|y / 1|x"},
	{name: "case-insensitive names", sql: "SELECT T.A, B FROM t WHERE A < 3",
		want: "A,B: 1|x / 2|y"},
	{name: "alias qualifies", sql: "SELECT x.a FROM t AS x WHERE x.b = 'y'",
		want: "a: 2"},
	{name: "alias hides its table name", sql: "SELECT t.a FROM t AS x",
		want: "error: sqlengine: no such column: t.a"},
	{name: "no such column", sql: "SELECT nosuch FROM t",
		want: "error: sqlengine: no such column: nosuch"},
	{name: "no such table", sql: "SELECT a FROM nosuch",
		want: "error: sqlengine: no such table: nosuch"},
	{name: "ambiguous across a join", sql: "SELECT a FROM t JOIN u ON t.a = u.a",
		want: `error: sqlengine: ambiguous column name "a"`},
	{name: "qualified across a join", sql: "SELECT t.a, c FROM t JOIN u ON t.a = u.a ORDER BY c DESC",
		want: "a,c: 2|20 / 1|10"},
	{name: "ambiguous in a self-join", sql: "SELECT t.a FROM t JOIN t ON t.a = t.a",
		want: `error: sqlengine: ambiguous column name "a"`},
	{name: "aliased self-join", sql: "SELECT x.a, y.b FROM t AS x JOIN t AS y ON x.a = y.a + 1",
		want: "a,b: 2|x / 3|y"},
	{name: "ambiguous in ON", sql: "SELECT t.b FROM t JOIN u ON a = 1",
		want: `error: sqlengine: ambiguous column name "a"`},
	{name: "ON sees only the items before it", sql: "SELECT t.a FROM t JOIN u ON t.a = v.a JOIN u AS v ON v.a = u.a",
		want: "error: sqlengine: no such column: v.a"},
	{name: "LEFT JOIN null extension", sql: "SELECT t.a, u.c FROM t LEFT JOIN u ON u.a = t.a ORDER BY 1",
		want: "a,c: 1|10 / 2|20 / 3|NULL"},
	{name: "correlated EXISTS, depth 1", sql: "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a)",
		want: "a: 1 / 2"},
	{name: "correlated NOT EXISTS, unqualified outer", sql: "SELECT b FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE c = 10 AND b = 'x')",
		want: "b: y / NULL"},
	{name: "correlated IN", sql: "SELECT a FROM t WHERE a IN (SELECT u.a FROM u WHERE u.c = t.a * 10)",
		want: "a: 1 / 2"},
	{name: "correlated scalar", sql: "SELECT a, (SELECT c FROM u WHERE u.a = t.a) FROM t",
		want: "a,(SELECT c FROM u WHERE (u.a = t.a)): 1|10 / 2|20 / 3|NULL"},
	{name: "inner level wins", sql: "SELECT a, (SELECT a FROM u WHERE c = 40) FROM t WHERE a = 1",
		want: "a,(SELECT a FROM u WHERE (c = 40)): 1|4"},
	{name: "correlated at depth 2", sql: "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE c > 5 AND EXISTS (SELECT 1 FROM u AS v WHERE v.a = t.a AND v.c = u.c))",
		want: "a: 1 / 2"},
	{name: "depth 2 in a scalar", sql: "SELECT a, (SELECT COUNT(*) FROM u WHERE c IN (SELECT c FROM u AS v WHERE v.a <= t.a)) FROM t",
		want: "a,(SELECT COUNT(*) FROM u WHERE c IN (SELECT c FROM u AS v WHERE (v.a <= t.a))): 1|1 / 2|2 / 3|2"},
	{name: "inner level wins over an ambiguous outer one", sql: "SELECT 1 FROM t JOIN u ON t.a = u.a WHERE EXISTS (SELECT 1 FROM e WHERE e.a = a)",
		want: "1: "},
	{name: "ambiguous one level out", sql: "SELECT t.b FROM t JOIN u ON t.a = u.a WHERE EXISTS (SELECT 1 FROM (SELECT c FROM u) AS x WHERE x.c = a)",
		want: `error: sqlengine: ambiguous column name "a"`},
	{name: "derived table", sql: "SELECT s.k, s.a FROM (SELECT a AS k, a FROM t WHERE a > 1) AS s ORDER BY 1 DESC",
		want: "k,a: 3|3 / 2|2"},
	{name: "derived table star", sql: "SELECT * FROM (SELECT * FROM u) AS s WHERE s.c > 15",
		want: "a,c: 2|20 / 4|40"},
	{name: "derived table hides inner names", sql: "SELECT u.a FROM (SELECT a FROM u) AS s",
		want: "error: sqlengine: no such column: u.a"},
	{name: "derived table duplicate name", sql: "SELECT a FROM (SELECT a, a FROM t) AS s",
		want: `error: sqlengine: ambiguous column name "a"`},
	{name: "derived compound", sql: "SELECT n FROM (SELECT a AS n FROM t UNION SELECT c FROM u) AS s WHERE n > 2",
		want: "n: 3 / 10 / 20 / 40"},
	{name: "derived table sees the outer row", sql: "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM (SELECT c FROM u WHERE u.a = t.a) AS s)",
		want: "a: 1 / 2"},
	{name: "qualified star", sql: "SELECT u.*, t.b FROM t JOIN u ON t.a = u.a",
		want: "a,c,b: 1|10|x / 2|20|y"},
	{name: "star over a join", sql: "SELECT * FROM t JOIN u ON t.a = u.a WHERE c = 20",
		want: "a,b,a,c: 2|y|2|20"},
	{name: "star of a self-join", sql: "SELECT t.* FROM t JOIN t ON 1 = 1 LIMIT 1",
		want: "a,b,a,b: 1|x|1|x"},
	{name: "ambiguous in a self-join's WHERE", sql: "SELECT t.* FROM t JOIN t ON 1 = 1 WHERE t.a = 9",
		want: `error: sqlengine: ambiguous column name "a"`},
	{name: "star of no table", sql: "SELECT x.* FROM t",
		want: "error: sqlengine: no such table: x"},
	{name: "GROUP BY over a non-grouped column", sql: "SELECT b, COUNT(*) FROM t GROUP BY a > 1",
		want: "b,COUNT(*): x|1 / y|2"},
	{name: "HAVING over a non-grouped column", sql: "SELECT a > 1, MAX(b) FROM t GROUP BY a > 1 HAVING a < 3",
		want: "(a > 1),MAX(b): 0|x / 1|y"},
	{name: "GROUP BY does not see aliases", sql: "SELECT a AS k FROM t GROUP BY k",
		want: "error: sqlengine: no such column: k"},
	{name: "aggregate over a join", sql: "SELECT t.b, SUM(u.c) FROM t JOIN u ON t.a <= u.a GROUP BY t.b ORDER BY 2",
		want: "b,SUM(u.c): NULL|40 / y|60 / x|70"},
	{name: "ORDER BY ordinal", sql: "SELECT b, a FROM t ORDER BY 2 DESC",
		want: "b,a: NULL|3 / y|2 / x|1"},
	{name: "ORDER BY ordinal out of range", sql: "SELECT a FROM t ORDER BY 2",
		want: "error: sqlengine: ORDER BY ordinal 2 out of range"},
	{name: "ORDER BY alias", sql: "SELECT a AS k, b FROM t ORDER BY k DESC",
		want: "k,b: 3|NULL / 2|y / 1|x"},
	{name: "ORDER BY alias shadows a source column", sql: "SELECT c AS a, a AS c FROM u ORDER BY a DESC",
		want: "a,c: 40|4 / 20|2 / 10|1"},
	{name: "ORDER BY output name before source", sql: "SELECT t.a FROM t JOIN u ON t.a = u.a ORDER BY a DESC",
		want: "a: 2 / 1"},
	{name: "ORDER BY source column", sql: "SELECT b FROM t ORDER BY a DESC",
		want: "b: NULL / y / x"},
	{name: "ORDER BY expression", sql: "SELECT a FROM u ORDER BY c % 3, a",
		want: "a: 1 / 4 / 2"},
	{name: "ORDER BY aggregate", sql: "SELECT a > 1 FROM t GROUP BY a > 1 ORDER BY COUNT(*) DESC",
		want: "(a > 1): 1 / 0"},
	{name: "ORDER BY qualified output name", sql: "SELECT a AS k FROM t ORDER BY t.k",
		want: "error: sqlengine: no such column: t.k"},
	{name: "compound ORDER BY ordinal", sql: "SELECT a FROM t UNION SELECT c FROM u ORDER BY 1 DESC LIMIT 3",
		want: "a: 40 / 20 / 10"},
	{name: "compound ORDER BY name", sql: "SELECT a FROM t UNION ALL SELECT a FROM u ORDER BY a",
		want: "a: 1 / 1 / 2 / 2 / 3 / 4"},
	{name: "compound ORDER BY expression", sql: "SELECT a FROM t UNION SELECT a FROM u ORDER BY a + 1",
		want: "error: sqlengine: ORDER BY expression (a + 1) must name an output column here"},
	{name: "compound arms bind alone", sql: "SELECT b FROM t EXCEPT SELECT c FROM u",
		want: "b: x / y / NULL"},
	{name: "compound arm name error", sql: "SELECT a FROM t UNION SELECT b FROM u",
		want: "error: sqlengine: no such column: b"},
	{name: "LIMIT with a column", sql: "SELECT a FROM t LIMIT a",
		want: "error: sqlengine: no such column: a"},
	{name: "LIMIT with an outer column", sql: "SELECT a, (SELECT COUNT(*) FROM (SELECT c FROM u ORDER BY c LIMIT t.a)) FROM t",
		want: "a,(SELECT COUNT(*) FROM (SELECT c FROM u ORDER BY c LIMIT t.a) AS subquery): 1|1 / 2|2 / 3|3"},
	{name: "UPDATE WHERE", sql: "UPDATE u SET c = c + a WHERE a > 1", check: "SELECT * FROM u",
		want: "affected 2 | a,c: 1|10 / 2|22 / 4|44"},
	{name: "UPDATE correlated subquery", sql: "UPDATE u SET c = (SELECT COUNT(*) FROM t WHERE t.a <= u.a)", check: "SELECT c FROM u",
		want: "affected 3 | c: 1 / 2 / 3"},
	{name: "UPDATE no such column", sql: "UPDATE u SET c = 0 WHERE nosuch = 1",
		want: "error: sqlengine: no such column: nosuch"},
	{name: "DELETE WHERE", sql: "DELETE FROM u WHERE u.c > 15", check: "SELECT * FROM u",
		want: "affected 2 | a,c: 1|10"},
	{name: "DELETE with a subquery", sql: "DELETE FROM t WHERE a IN (SELECT a FROM u)", check: "SELECT * FROM t",
		want: "affected 2 | a,b: 3|NULL"},
	{name: "DELETE no such column", sql: "DELETE FROM u WHERE b = 'x'",
		want: "error: sqlengine: no such column: b"},
	{name: "INSERT no such table", sql: "INSERT INTO nosuch VALUES (1)",
		want: "error: sqlengine: no such table: nosuch"},

	// Never reached by a row.
	{name: "EXISTS body behind a false conjunct", sql: "SELECT a FROM t WHERE a = 7 AND EXISTS (SELECT 1 FROM u WHERE nosuch = 1)",
		want: "error: sqlengine: no such column: nosuch", prepare: true, head: "a: "},
	{name: "behind a false conjunct", sql: "SELECT a FROM t WHERE a > 5 AND nosuch = 1",
		want: "error: sqlengine: no such column: nosuch", prepare: true, head: "a: "},
	{name: "subquery table behind a false conjunct", sql: "SELECT a FROM t WHERE a = 7 AND a IN (SELECT a FROM nosuch)",
		want: "error: sqlengine: no such table: nosuch", prepare: true, head: "a: "},
	{name: "projection over an empty table", sql: "SELECT nosuch FROM e",
		want: "error: sqlengine: no such column: nosuch", prepare: true, head: "nosuch: "},
	{name: "ambiguous over an empty join", sql: "SELECT a FROM t JOIN e ON t.a = e.a",
		want: `error: sqlengine: ambiguous column name "a"`, prepare: true, head: "a: "},
	{name: "ambiguous one level out over an empty body", sql: "SELECT t.b FROM t JOIN u ON t.a = u.a WHERE EXISTS (SELECT 1 FROM (SELECT c FROM u WHERE c > 100) AS x WHERE x.c = a)",
		want: `error: sqlengine: ambiguous column name "a"`, prepare: true, head: "b: "},
	{name: "ON over an empty side", sql: "SELECT t.a FROM t JOIN e ON e.nosuch = t.a",
		want: "error: sqlengine: no such column: e.nosuch", prepare: true, head: "a: "},
	{name: "star of no table over an empty table", sql: "SELECT x.* FROM e",
		want: "error: sqlengine: no such table: x", prepare: true, head: ": "},
	{name: "ORDER BY over an empty table", sql: "SELECT a FROM e ORDER BY nosuch",
		want: "error: sqlengine: no such column: nosuch", prepare: true, head: "a: "},
	{name: "UPDATE SET no column, no row", sql: "UPDATE u SET nosuch = 1 WHERE a = 99",
		want: "error: sqlengine: no such column: nosuch", prepare: true, head: "affected 0"},
	{name: "DELETE from an empty table", sql: "DELETE FROM e WHERE nosuch = 1",
		want: "error: sqlengine: no such column: nosuch", prepare: true, head: "affected 0"},
}
