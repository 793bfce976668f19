package sqlengine

import (
	"reflect"
	"strings"
	"testing"
)

// fixtureDB builds a small two-table database used across execution tests.
func fixtureDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("fixture")
	stmts := []string{
		`CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT, dept TEXT, salary REAL, manager_id INTEGER)`,
		`CREATE TABLE dept (code TEXT PRIMARY KEY, label TEXT, budget INTEGER)`,
		`INSERT INTO emp VALUES
			(1, 'Ann', 'ENG', 120.5, NULL),
			(2, 'Bob', 'ENG', 95.0, 1),
			(3, 'Cara', 'OPS', 88.0, 1),
			(4, 'Dan', 'OPS', 88.0, 3),
			(5, 'Eve', 'HR', 70.0, 1),
			(6, 'Fred', NULL, NULL, 2)`,
		`INSERT INTO dept VALUES ('ENG', 'Engineering', 1000), ('OPS', 'Operations', 500), ('FIN', 'Finance', 300)`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("fixture %q: %v", s, err)
		}
	}
	return db
}

func queryVals(t *testing.T, db *Database, sql string) [][]Value {
	t.Helper()
	rows, err := db.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rows.Data
}

func flatten(rows [][]Value) []string {
	var out []string
	for _, r := range rows {
		var parts []string
		for _, v := range r {
			if v.IsNull() {
				parts = append(parts, "NULL")
			} else {
				parts = append(parts, v.AsText())
			}
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func expectRows(t *testing.T, db *Database, sql string, want []string) {
	t.Helper()
	got := flatten(queryVals(t, db, sql))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Query(%q)\n got: %v\nwant: %v", sql, got, want)
	}
}

func TestSelectWhere(t *testing.T) {
	db := fixtureDB(t)
	expectRows(t, db, "SELECT name FROM emp WHERE dept = 'ENG' ORDER BY id", []string{"Ann", "Bob"})
	expectRows(t, db, "SELECT name FROM emp WHERE salary > 88 ORDER BY salary DESC", []string{"Ann", "Bob"})
	expectRows(t, db, "SELECT name FROM emp WHERE dept IS NULL", []string{"Fred"})
	expectRows(t, db, "SELECT name FROM emp WHERE salary BETWEEN 80 AND 100 ORDER BY id", []string{"Bob", "Cara", "Dan"})
	expectRows(t, db, "SELECT name FROM emp WHERE name LIKE '%a%' ORDER BY id", []string{"Ann", "Cara", "Dan"})
	expectRows(t, db, "SELECT name FROM emp WHERE dept IN ('OPS', 'HR') ORDER BY id", []string{"Cara", "Dan", "Eve"})
}

func TestCaseSensitivityOfEquals(t *testing.T) {
	db := fixtureDB(t)
	// '=' must be case-sensitive: this is what makes the paper's
	// case-sensitivity evidence defects actually produce wrong results.
	expectRows(t, db, "SELECT name FROM emp WHERE dept = 'eng'", nil)
	expectRows(t, db, "SELECT name FROM emp WHERE dept = 'ENG' ORDER BY id", []string{"Ann", "Bob"})
	// LIKE is case-insensitive (SQLite default).
	expectRows(t, db, "SELECT name FROM emp WHERE dept LIKE 'eng' ORDER BY id", []string{"Ann", "Bob"})
}

func TestProjectionAndAliases(t *testing.T) {
	db := fixtureDB(t)
	rows, err := db.Query("SELECT name AS who, salary * 2 AS double_pay FROM emp WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows.Columns, []string{"who", "double_pay"}) {
		t.Errorf("columns = %v", rows.Columns)
	}
	if rows.Data[0][1].AsFloat() != 241.0 {
		t.Errorf("double_pay = %v", rows.Data[0][1])
	}
}

func TestStarExpansion(t *testing.T) {
	db := fixtureDB(t)
	rows, err := db.Query("SELECT * FROM dept ORDER BY code")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 3 || len(rows.Data) != 3 {
		t.Fatalf("star expansion: %v, %d rows", rows.Columns, len(rows.Data))
	}
	rows, err = db.Query("SELECT e.* FROM emp e WHERE e.id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 5 {
		t.Fatalf("qualified star: %v", rows.Columns)
	}
}

func TestJoins(t *testing.T) {
	db := fixtureDB(t)
	expectRows(t, db,
		`SELECT e.name, d.label FROM emp e INNER JOIN dept d ON e.dept = d.code WHERE e.salary >= 95 ORDER BY e.id`,
		[]string{"Ann|Engineering", "Bob|Engineering"})
	// LEFT JOIN keeps Fred (NULL dept) with NULL label.
	expectRows(t, db,
		`SELECT e.name, d.label FROM emp e LEFT JOIN dept d ON e.dept = d.code WHERE e.id IN (1, 6) ORDER BY e.id`,
		[]string{"Ann|Engineering", "Fred|NULL"})
	// Self join via aliases.
	expectRows(t, db,
		`SELECT e.name, m.name FROM emp e JOIN emp m ON e.manager_id = m.id WHERE e.id = 4`,
		[]string{"Dan|Cara"})
}

func TestGroupByHaving(t *testing.T) {
	db := fixtureDB(t)
	expectRows(t, db,
		"SELECT dept, COUNT(*) FROM emp WHERE dept IS NOT NULL GROUP BY dept ORDER BY dept",
		[]string{"ENG|2", "HR|1", "OPS|2"})
	expectRows(t, db,
		"SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) >= 2 AND dept IS NOT NULL ORDER BY dept",
		[]string{"ENG", "OPS"})
	expectRows(t, db,
		"SELECT dept, AVG(salary) FROM emp WHERE dept = 'OPS' GROUP BY dept",
		[]string{"OPS|88.0"})
}

func TestAggregatesOverall(t *testing.T) {
	db := fixtureDB(t)
	expectRows(t, db, "SELECT COUNT(*) FROM emp", []string{"6"})
	expectRows(t, db, "SELECT COUNT(salary) FROM emp", []string{"5"}) // NULL not counted
	expectRows(t, db, "SELECT COUNT(DISTINCT dept) FROM emp", []string{"3"})
	expectRows(t, db, "SELECT SUM(budget) FROM dept", []string{"1800"})
	expectRows(t, db, "SELECT MIN(salary), MAX(salary) FROM emp", []string{"70.0|120.5"})
	expectRows(t, db, "SELECT COUNT(*) FROM emp WHERE dept = 'NOPE'", []string{"0"})
	// SUM over empty set is NULL; TOTAL is 0.0.
	expectRows(t, db, "SELECT SUM(salary) FROM emp WHERE id > 100", []string{"NULL"})
	expectRows(t, db, "SELECT TOTAL(salary) FROM emp WHERE id > 100", []string{"0.0"})
}

func TestDistinctOrderLimit(t *testing.T) {
	db := fixtureDB(t)
	expectRows(t, db, "SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL ORDER BY dept", []string{"ENG", "HR", "OPS"})
	expectRows(t, db, "SELECT name FROM emp ORDER BY salary DESC, name ASC LIMIT 3", []string{"Ann", "Bob", "Cara"})
	expectRows(t, db, "SELECT name FROM emp ORDER BY id LIMIT 2 OFFSET 2", []string{"Cara", "Dan"})
	// ORDER BY ordinal and alias.
	expectRows(t, db, "SELECT name, salary AS s FROM emp WHERE salary IS NOT NULL ORDER BY 2 DESC LIMIT 1", []string{"Ann|120.5"})
	expectRows(t, db, "SELECT name, salary AS s FROM emp WHERE salary IS NOT NULL ORDER BY s ASC LIMIT 1", []string{"Eve|70.0"})
}

func TestSubqueries(t *testing.T) {
	db := fixtureDB(t)
	expectRows(t, db,
		"SELECT name FROM emp WHERE salary > (SELECT AVG(salary) FROM emp) ORDER BY id",
		[]string{"Ann", "Bob"})
	expectRows(t, db,
		"SELECT label FROM dept WHERE code IN (SELECT dept FROM emp WHERE salary >= 88) ORDER BY code",
		[]string{"Engineering", "Operations"})
	expectRows(t, db,
		"SELECT label FROM dept d WHERE EXISTS (SELECT 1 FROM emp e WHERE e.dept = d.code) ORDER BY code",
		[]string{"Engineering", "Operations"})
	expectRows(t, db,
		"SELECT label FROM dept d WHERE NOT EXISTS (SELECT 1 FROM emp e WHERE e.dept = d.code)",
		[]string{"Finance"})
	// FROM subquery.
	expectRows(t, db,
		"SELECT q.d, q.n FROM (SELECT dept AS d, COUNT(*) AS n FROM emp WHERE dept IS NOT NULL GROUP BY dept) q WHERE q.n = 2 ORDER BY q.d",
		[]string{"ENG|2", "OPS|2"})
}

func TestCompoundSelects(t *testing.T) {
	db := fixtureDB(t)
	expectRows(t, db,
		"SELECT dept FROM emp WHERE dept IS NOT NULL UNION SELECT code FROM dept ORDER BY 1",
		[]string{"ENG", "FIN", "HR", "OPS"})
	expectRows(t, db,
		"SELECT code FROM dept EXCEPT SELECT dept FROM emp ORDER BY 1",
		[]string{"FIN"})
	expectRows(t, db,
		"SELECT code FROM dept INTERSECT SELECT dept FROM emp ORDER BY 1",
		[]string{"ENG", "OPS"})
	got := flatten(queryVals(t, db, "SELECT 1 UNION ALL SELECT 1"))
	if len(got) != 2 {
		t.Errorf("UNION ALL should keep duplicates, got %v", got)
	}
}

func TestExpressionsAndFunctions(t *testing.T) {
	db := fixtureDB(t)
	expectRows(t, db, "SELECT UPPER(name), LOWER(dept) FROM emp WHERE id = 1", []string{"ANN|eng"})
	expectRows(t, db, "SELECT LENGTH(name) FROM emp WHERE id = 3", []string{"4"})
	expectRows(t, db, "SELECT SUBSTR(name, 1, 2) FROM emp WHERE id = 1", []string{"An"})
	expectRows(t, db, "SELECT ABS(-5), ROUND(3.567, 1)", []string{"5|3.6"})
	expectRows(t, db, "SELECT COALESCE(NULL, NULL, 'x')", []string{"x"})
	expectRows(t, db, "SELECT IIF(1 > 0, 'yes', 'no')", []string{"yes"})
	expectRows(t, db, "SELECT CAST('12' AS INTEGER) + 1", []string{"13"})
	expectRows(t, db, "SELECT CASE WHEN salary > 100 THEN 'high' ELSE 'low' END FROM emp WHERE id = 1", []string{"high"})
	expectRows(t, db, "SELECT name || '-' || dept FROM emp WHERE id = 2", []string{"Bob-ENG"})
	expectRows(t, db, "SELECT REPLACE('a-b-c', '-', '+')", []string{"a+b+c"})
	expectRows(t, db, "SELECT INSTR('hello', 'll')", []string{"3"})
	expectRows(t, db, "SELECT STRFTIME('%Y', '2014-06-11')", []string{"2014"})
	expectRows(t, db, "SELECT MIN(3, 1, 2), MAX(3, 1, 2)", []string{"1|3"})
	expectRows(t, db, "SELECT NULLIF(1, 1), IFNULL(NULL, 7)", []string{"NULL|7"})
}

func TestNullSemantics(t *testing.T) {
	db := fixtureDB(t)
	// NULL comparisons exclude rows.
	expectRows(t, db, "SELECT name FROM emp WHERE salary > 0 OR salary <= 0 ORDER BY id LIMIT 1", []string{"Ann"})
	got := flatten(queryVals(t, db, "SELECT name FROM emp WHERE salary != 88"))
	for _, g := range got {
		if g == "Fred" {
			t.Errorf("NULL salary row must not pass != predicate")
		}
	}
	// Arithmetic with NULL is NULL.
	expectRows(t, db, "SELECT salary + 1 FROM emp WHERE id = 6", []string{"NULL"})
	// IN with NULL on the left is no match.
	expectRows(t, db, "SELECT name FROM emp WHERE dept IN ('ENG') AND id = 6", nil)
}

func TestInsertUpdateDeleteExec(t *testing.T) {
	db := fixtureDB(t)
	res, err := db.Exec("INSERT INTO dept VALUES ('SCI', 'Science', 250)")
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("insert: %v, affected %d", err, res.RowsAffected)
	}
	res, err = db.Exec("UPDATE dept SET budget = 300 WHERE code = 'SCI'")
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("update: %v, affected %d", err, res.RowsAffected)
	}
	expectRows(t, db, "SELECT budget FROM dept WHERE code = 'SCI'", []string{"300"})
	res, err = db.Exec("DELETE FROM dept WHERE code = 'SCI'")
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("delete: %v, affected %d", err, res.RowsAffected)
	}
	expectRows(t, db, "SELECT budget FROM dept WHERE code = 'SCI'", nil)
}

func TestTypeCoercionOnInsert(t *testing.T) {
	db := NewDatabase("c")
	db.MustExec("CREATE TABLE t (i INTEGER, r REAL, s TEXT)")
	db.MustExec("INSERT INTO t VALUES ('42', '3.5', 99)")
	rows := queryVals(t, db, "SELECT i, r, s FROM t")
	if rows[0][0].Kind != KindInt || rows[0][0].I != 42 {
		t.Errorf("INTEGER affinity failed: %v", rows[0][0])
	}
	if rows[0][1].Kind != KindFloat || rows[0][1].Real() != 3.5 {
		t.Errorf("REAL affinity failed: %v", rows[0][1])
	}
	if rows[0][2].Kind != KindText || rows[0][2].S != "99" {
		t.Errorf("TEXT affinity failed: %v", rows[0][2])
	}
}

// TestOutOfRangeIntegerConversions: integer text past int64's range keeps
// its value as a REAL in an INTEGER column, and CAST saturates at the int64
// bounds, as SQLite does — never the platform's out-of-range int64(f).
func TestOutOfRangeIntegerConversions(t *testing.T) {
	db := NewDatabase("c")
	db.MustExec("CREATE TABLE t (a INTEGER)")
	db.MustExec("INSERT INTO t VALUES ('99999999999999999999'), ('-99999999999999999999'), (1e20), ('9223372036854775807'), (-9223372036854775808.0)")
	expectRows(t, db, "SELECT a, typeof(a) FROM t", []string{
		"1e+20|real",
		"-1e+20|real",
		"1e+20|real",
		"9223372036854775807|integer",
		"-9223372036854775808|integer",
	})
	expectRows(t, db, "SELECT CAST(1e20 AS INTEGER), CAST(-1e20 AS INTEGER), CAST('99999999999999999999' AS INTEGER), CAST(2.9 AS INTEGER)",
		[]string{"9223372036854775807|-9223372036854775808|9223372036854775807|2"})
}

func TestNumericTextComparison(t *testing.T) {
	db := NewDatabase("c")
	db.MustExec("CREATE TABLE t (v TEXT)")
	db.MustExec("INSERT INTO t VALUES ('500'), ('1500')")
	// Comparing numeric-looking text against a number coerces.
	expectRows(t, db, "SELECT v FROM t WHERE v > 600", []string{"1500"})
}

func TestErrorsAtExecution(t *testing.T) {
	db := fixtureDB(t)
	bad := []string{
		"SELECT nosuch FROM emp",
		"SELECT * FROM nosuch",
		"SELECT emp.nosuch FROM emp",
		"SELECT name FROM emp WHERE NOSUCHFN(1) = 1",
		"INSERT INTO nosuch VALUES (1)",
		"INSERT INTO dept VALUES (1)", // arity
		"SELECT SUM(salary, 2) FROM emp",
	}
	for _, s := range bad {
		if _, err := db.Exec(s); err == nil {
			t.Errorf("Exec(%q) should fail", s)
		}
	}
	// Ambiguous unqualified column across joined tables.
	db2 := NewDatabase("amb")
	db2.MustExec("CREATE TABLE a (x INTEGER)")
	db2.MustExec("CREATE TABLE b (x INTEGER)")
	db2.MustExec("INSERT INTO a VALUES (1)")
	db2.MustExec("INSERT INTO b VALUES (1)")
	if _, err := db2.Exec("SELECT x FROM a JOIN b ON a.x = b.x"); err == nil {
		t.Errorf("ambiguous column should fail")
	}
}

// TestCostAccounting pins what Cost counts: the rows the plan touched. A
// scan charges the table (6 emp rows, 3 dept rows), an index lookup its
// bucket (2 ENG rows), a hash join the pairs it tests (4 of the 5 emp rows
// with a department find one candidate each; HR and NULL find none), a
// nested loop |L|·|R|, a subquery its body's. The naive reference charges
// full scans and nested loops throughout.
func TestCostAccounting(t *testing.T) {
	db := fixtureDB(t)
	for _, c := range []struct {
		sql            string
		planned, naive int64
	}{
		{"SELECT * FROM emp", 6, 6},
		{"SELECT name FROM emp WHERE salary > 90", 6, 6},
		{"SELECT name FROM emp WHERE dept = 'ENG'", 2, 6},
		{"SELECT name FROM emp WHERE dept = 'nope'", 0, 6},
		{"SELECT * FROM emp e JOIN dept d ON e.dept = d.code", 6 + 3 + 4, 6 + 3 + 18},
		{"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.code WHERE d.label = 'Operations'", 6 + 1 + 2, 6 + 3 + 18},
		{"SELECT * FROM emp e JOIN dept d ON e.salary > d.budget", 6 + 3 + 18, 6 + 3 + 18},
		{"SELECT name FROM emp WHERE id IN (SELECT manager_id FROM emp)", 6 + 6, 6 + 6},
	} {
		for i := 0; i < 2; i++ { // identical statements, identical costs
			pr, err := db.Exec(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			nr, err := refExec(db, c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if pr.Cost != c.planned || nr.Cost != c.naive {
				t.Errorf("%s: Cost %d planned, %d naive; want %d, %d", c.sql, pr.Cost, nr.Cost, c.planned, c.naive)
			}
		}
	}
	if res := db.MustExec("UPDATE emp SET salary = salary + 1 WHERE dept = 'HR'"); res.Cost != 6 || res.RowsAffected != 1 {
		t.Errorf("UPDATE: Cost %d, %d rows affected; want 6, 1", res.Cost, res.RowsAffected)
	}
}

func TestNotNullConstraint(t *testing.T) {
	db := NewDatabase("nn")
	db.MustExec("CREATE TABLE t (a INTEGER NOT NULL)")
	if _, err := db.Exec("INSERT INTO t VALUES (NULL)"); err == nil {
		t.Errorf("NOT NULL insert should fail")
	}
}

func TestGroupConcatAndAvgPrecision(t *testing.T) {
	db := fixtureDB(t)
	expectRows(t, db, "SELECT GROUP_CONCAT(name) FROM emp WHERE dept = 'ENG'", []string{"Ann,Bob"})
	rows := queryVals(t, db, "SELECT AVG(budget) FROM dept")
	if rows[0][0].AsFloat() != 600.0 {
		t.Errorf("AVG = %v, want 600", rows[0][0])
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := NewDatabase("x")
	expectRows(t, db, "SELECT 1 + 1, 'a' || 'b'", []string{"2|ab"})
}

func TestCorrelatedSubqueryAggregation(t *testing.T) {
	db := fixtureDB(t)
	// Employees earning the max salary within their department.
	expectRows(t, db,
		`SELECT name FROM emp e WHERE salary = (SELECT MAX(salary) FROM emp x WHERE x.dept = e.dept) ORDER BY id`,
		[]string{"Ann", "Cara", "Dan", "Eve"})
}

func TestMySQLStyleLimit(t *testing.T) {
	db := fixtureDB(t)
	expectRows(t, db, "SELECT name FROM emp ORDER BY id LIMIT 2, 2", []string{"Cara", "Dan"})
}

// TestLimitOffsetOverflow is the regression test for offset+limit wrapping
// negative: LIMIT MaxInt64 OFFSET 1 used to slice [1:MinInt64] and panic.
// It must return everything after the first row from both tails: the
// interpreter's (naive, and planned for `id + 0`) and the positions tail.
func TestLimitOffsetOverflow(t *testing.T) {
	db := fixtureDB(t)
	for _, c := range []struct {
		sql  string
		want []string
	}{
		{"SELECT id FROM emp LIMIT 9223372036854775807 OFFSET 1", []string{"2", "3", "4", "5", "6"}},
		{"SELECT id FROM emp ORDER BY id DESC LIMIT 9223372036854775807 OFFSET 1", []string{"5", "4", "3", "2", "1"}},
		{"SELECT id + 0 FROM emp ORDER BY 1 LIMIT 9223372036854775807 OFFSET 4", []string{"5", "6"}},
		{"SELECT id FROM emp LIMIT 9223372036854775807 OFFSET 9223372036854775807", nil},
	} {
		expectRows(t, db, c.sql, c.want)
		res, err := refExec(db, c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := flatten(res.Rows.Data); !reflect.DeepEqual(got, c.want) {
			t.Errorf("naive %q\n got: %v\nwant: %v", c.sql, got, c.want)
		}
	}
}
