package sqlengine

import (
	"fmt"
	"strings"
	"testing"
)

// subqueryFixture builds two tables big enough that re-executing an
// uncorrelated subquery per outer row would dominate the cost counter.
func subqueryFixture(t *testing.T, rows int) *Database {
	t.Helper()
	db := NewDatabase("subq")
	for _, s := range []string{
		`CREATE TABLE outer_t (id INTEGER PRIMARY KEY, grp INTEGER)`,
		`CREATE TABLE inner_t (id INTEGER PRIMARY KEY, grp INTEGER)`,
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, tab := range []string{"outer_t", "inner_t"} {
		var vals []string
		for i := 0; i < rows; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", i, i%7))
		}
		if _, err := db.Exec("INSERT INTO " + tab + " VALUES " + strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestUncorrelatedSubqueryMemoized pins the memoization win: an
// uncorrelated EXISTS must execute once per statement, not once per outer
// row. Without the memo this query charges ~rows² and blows past any
// reasonable budget.
func TestUncorrelatedSubqueryMemoized(t *testing.T) {
	const rows = 1000
	db := subqueryFixture(t, rows)
	res, err := db.Exec(`SELECT COUNT(*) FROM outer_t WHERE EXISTS (SELECT 1 FROM inner_t)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows.Cell(0, 0).I; got != rows {
		t.Fatalf("COUNT(*) = %d, want %d", got, rows)
	}
	// One outer scan + one inner scan + slack: far below the rows² a
	// per-row re-execution would charge.
	if res.Cost > 4*rows {
		t.Fatalf("uncorrelated EXISTS cost %d — subquery is being re-executed per row", res.Cost)
	}
}

// TestUncorrelatedMemoInBothExecutors checks that memoization is not the
// planner's: the naive reference, too, runs an uncorrelated subquery once
// per statement, so it charges one scan of each table (400), and the
// planned engine agrees with it. A derived table in the body is bound like
// any other source, so it does not make the body correlated.
func TestUncorrelatedMemoInBothExecutors(t *testing.T) {
	queries := []string{
		`SELECT COUNT(*) FROM outer_t WHERE EXISTS (SELECT 1 FROM inner_t)`,
		`SELECT COUNT(*) FROM outer_t WHERE grp IN (SELECT grp FROM inner_t WHERE id < 3)`,
		`SELECT COUNT(*) FROM outer_t WHERE id > (SELECT MIN(id) FROM inner_t)`,
		`SELECT COUNT(*) FROM outer_t WHERE grp IN (SELECT s.grp FROM (SELECT grp FROM inner_t WHERE id < 3) AS s)`,
	}
	db := subqueryFixture(t, 200)
	for _, q := range queries {
		pr, perr := db.Exec(q)
		nr, nerr := refExec(db, q)
		if msg := divergence(q, pr, perr, nr, nerr); msg != "" || perr != nil {
			t.Fatalf("%s (err %v) %s", q, perr, msg)
		}
		if nr.Cost != 400 {
			t.Fatalf("%s: naive Cost %d, want 400: one scan of each table", q, nr.Cost)
		}
	}
}

// TestCorrelatedSubqueryStillPerRow: correlated subqueries must keep their
// per-row semantics — the memo must never capture a result that depends on
// the outer row.
func TestCorrelatedSubqueryStillPerRow(t *testing.T) {
	db := subqueryFixture(t, 50)
	// Each outer row matches exactly the inner rows in its group; rows in
	// group 0 have ids 0,7,14,...,49 → 8 inner matches each, others 7.
	rows, err := db.Query(`SELECT COUNT(*) FROM outer_t WHERE EXISTS (SELECT 1 FROM inner_t WHERE inner_t.grp = outer_t.grp AND inner_t.id > outer_t.id)`)
	if err != nil {
		t.Fatal(err)
	}
	// The largest id in every group has no strictly greater partner: 7
	// groups, so 50-7 outer rows qualify.
	if got := rows.Cell(0, 0).I; got != 43 {
		t.Fatalf("correlated EXISTS count = %d, want 43", got)
	}

	// Unqualified reference to an outer column is correlation too.
	rows, err = db.Query(`SELECT COUNT(*) FROM outer_t WHERE grp = (SELECT grp FROM inner_t WHERE inner_t.id = outer_t.id)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Cell(0, 0).I; got != 50 {
		t.Fatalf("correlated scalar subquery count = %d, want 50", got)
	}
}

// TestSubqueryCorrelationCheck checks the bind pass's correlation verdict
// for a subquery evaluated on outer_t's rows: it is correlated iff a
// reference in it binds to outer_t's level. A name that binds nowhere, or a
// missing table, fails the statement at Prepare.
func TestSubqueryCorrelationCheck(t *testing.T) {
	db := subqueryFixture(t, 10)
	cases := []struct {
		sub     string
		want    bool
		wantErr string
	}{
		{sub: `SELECT 1 FROM inner_t`},
		{sub: `SELECT grp FROM inner_t WHERE id < 5`},
		{sub: `SELECT 1 FROM inner_t WHERE inner_t.grp = outer_t.grp`, want: true},
		// Unqualified names: the inner level wins, and one that only the
		// outer table supplies is correlation.
		{sub: `SELECT 1 FROM inner_t AS i WHERE i.id = grp`},
		{sub: `SELECT 1 FROM (SELECT id AS k FROM inner_t) AS s WHERE k = grp`, want: true},
		// Nested subquery referencing the middle level stays uncorrelated
		// as a whole; one that reaches the outer row does not.
		{sub: `SELECT 1 FROM inner_t WHERE grp IN (SELECT grp FROM inner_t WHERE id < 2)`},
		{sub: `SELECT 1 FROM inner_t WHERE grp IN (SELECT grp FROM inner_t AS i WHERE i.id < outer_t.id)`, want: true},
		// A derived table is bound like any other source.
		{sub: `SELECT 1 FROM (SELECT grp FROM inner_t) AS s WHERE s.grp = 1`},
		{sub: `SELECT 1 FROM (SELECT grp FROM inner_t WHERE id = outer_t.id) AS s`, want: true},
		// LIMIT is evaluated outside the subquery's own FROM.
		{sub: `SELECT 1 FROM inner_t LIMIT outer_t.id`, want: true},
		{sub: `SELECT 1 FROM inner_t WHERE missing_col = 1`, wantErr: "no such column: missing_col"},
		{sub: `SELECT 1 FROM no_such_table`, wantErr: "no such table: no_such_table"},
	}
	for _, c := range cases {
		st, err := db.Prepare(`SELECT id FROM outer_t WHERE EXISTS (` + c.sub + `)`)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%q: Prepare error %v, want one containing %q", c.sub, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%q: %v", c.sub, err)
		}
		sub := st.ast.(*SelectStmt).Where.(*ExistsExpr).Sub
		if got := sub.bound.correlated; got != c.want {
			t.Errorf("%q: correlated = %v, want %v", c.sub, got, c.want)
		}
	}
}

// existsFixture is buildMultiDB's tables (t 60 rows, g 5, acc 30, m 60)
// plus an empty table e and big, 8,000 rows: a cross join of big with
// itself charges 64M rows, over maxCost.
func existsFixture() *Database {
	db := buildMultiDB(1, 60)
	db.MustExec("CREATE TABLE e (x INTEGER)")
	db.MustExec("CREATE TABLE big (k INTEGER)")
	rows := make([][]Value, 8000)
	for i := range rows {
		rows[i] = []Value{Int(int64(i))}
	}
	if _, err := db.BulkInsert("big", rows); err != nil {
		panic(err)
	}
	return db
}

// TestExistsConjunctReach holds the planned engine to the naive one where
// an uncorrelated EXISTS conjunct is settled apart from the other
// conjuncts: the naive AND chain evaluates it — through the memo, once —
// on the first row where no earlier conjunct is FALSE, so its errors
// depend on the other conjuncts' truth on rows the planned filter never
// keeps. Every case must agree on rows, order and error text, at a planned
// Cost no greater than the naive one; the naive Cost each case names pins
// whether the reference evaluated the body (t 60, g 5, acc 30, m 60, e 0;
// a nested loop charges its pairs). kernels marks the cases that must
// report a batch filter in the planned engine (an index bucket that is
// empty needs none).
func TestExistsConjunctReach(t *testing.T) {
	const overBudget = "EXISTS (SELECT 1 FROM big AS a, big AS b)"
	cases := []struct {
		name, sql string
		cost      int64 // want; 0 with err
		err       string
		kernels   bool
	}{
		// The earlier conjunct is FALSE on every row (flag is 0 or 1, never
		// NULL): the body is never reached, not even an over-budget one.
		{"false everywhere", "SELECT id FROM t WHERE flag = 5 AND EXISTS (SELECT 1 FROM acc)", 60, "", false},
		{"false everywhere, over budget", "SELECT id FROM t WHERE num > 1000 AND " + overBudget, 60, "", true},
		// NULL on some rows (grp is NULL on some), TRUE on none: reached
		// and charged, and the result is empty.
		{"null somewhere", "SELECT id FROM t WHERE grp = 'nope' AND EXISTS (SELECT 1 FROM acc)", 90, "", false},
		{"null somewhere, over budget", "SELECT id FROM t WHERE grp = 'nope' AND " + overBudget, 0, "cost budget", false},
		{"null somewhere, kernel", "SELECT id FROM t WHERE grp > 'zzz' AND EXISTS (SELECT 1 FROM acc)", 90, "", true},
		// An empty table: no row reaches anything.
		{"empty table", "SELECT COUNT(*) FROM e WHERE EXISTS (SELECT 1 FROM t)", 0, "", false},
		{"empty table, filtered", "SELECT COUNT(*) FROM e WHERE x = 1 AND " + overBudget, 0, "", false},
		// Joins: no pushdown under an EXISTS, residuals over the pairs, the
		// reach proof over the pairs when the filtered ones are empty.
		{"join", "SELECT COUNT(*) FROM t JOIN g ON t.grp = g.grp WHERE g.label = 'L1' AND EXISTS (SELECT 1 FROM acc)", 395, "", true},
		{"join, empty, not reached", "SELECT COUNT(*) FROM t JOIN g ON t.grp = g.grp WHERE g.label = 'nope' AND " + overBudget, 365, "", false},
		{"join, empty, reached through a pushed NULL", "SELECT COUNT(*) FROM m JOIN t ON m.id = t.id WHERE m.a > 1000 AND EXISTS (SELECT 1 FROM acc)", 3750, "", true},
		{"join, empty, over budget", "SELECT COUNT(*) FROM m JOIN t ON m.id = t.id WHERE m.a > 1000 AND " + overBudget, 0, "cost budget", true},
		{"join, residual", "SELECT t.id, g.label FROM t JOIN g ON t.grp = g.grp WHERE t.num > g.weight AND EXISTS (SELECT 1 FROM acc) ORDER BY t.id", 395, "", true},
		{"left join", "SELECT t.id, g.label FROM t LEFT JOIN g ON t.grp = g.grp WHERE t.flag = 1 AND EXISTS (SELECT 1 FROM acc) ORDER BY t.id", 395, "", true},
		{"left join, empty, reached through a NULL extension", "SELECT COUNT(*) FROM t LEFT JOIN g ON t.grp = g.grp WHERE g.label = 'nope' AND EXISTS (SELECT 1 FROM acc)", 395, "", true},
		{"left join, empty, not reached", "SELECT COUNT(*) FROM t LEFT JOIN g ON t.grp = g.grp WHERE t.num > 1000 AND " + overBudget, 365, "", true},
		// Where the EXISTS stands in the chain.
		{"first", "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM acc) AND flag = 1 ORDER BY num, id", 90, "", true},
		{"first, over budget", "SELECT id FROM t WHERE " + overBudget + " AND flag = 5", 0, "cost budget", false},
		{"middle", "SELECT id FROM t WHERE flag = 1 AND EXISTS (SELECT 1 FROM acc) AND num > 50", 90, "", true},
		{"middle, null before, false after", "SELECT id FROM t WHERE grp = 'nope' AND EXISTS (SELECT 1 FROM acc) AND num > 1000", 90, "", false},
		{"middle, false before", "SELECT id FROM t WHERE num > 1000 AND " + overBudget + " AND grp = 'a'", 60, "", true},
		{"last", "SELECT id, grp FROM t WHERE flag = 0 AND num < 50 AND EXISTS (SELECT 1 FROM g)", 65, "", true},
		{"alone", "SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM acc)", 90, "", false},
		{"no FROM", "SELECT 1 WHERE EXISTS (SELECT 1 FROM acc)", 30, "", false},
		// Two EXISTS: the second is reached only past a true first.
		{"two, first false", "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM e) AND " + overBudget, 60, "", false},
		{"two, both true", "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM g) AND flag = 1 AND EXISTS (SELECT 1 FROM acc)", 95, "", true},
		{"two, false between", "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM g) AND flag = 5 AND " + overBudget, 65, "", false},
		{"two, second over budget", "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM g) AND flag = 1 AND " + overBudget, 0, "cost budget", true},
		// NOT EXISTS.
		{"not exists, empty body", "SELECT id FROM t WHERE flag = 1 AND NOT EXISTS (SELECT 1 FROM e)", 60, "", true},
		{"not exists, rows", "SELECT id FROM t WHERE flag = 1 AND NOT EXISTS (SELECT 1 FROM acc)", 90, "", true},
		// Empty bodies, and bodies whose tail is a consumer that returns at
		// most one row: top-k, grouped and ungrouped aggregates, a gather
		// window at and past the end, LIMIT 0, DISTINCT.
		{"empty body", "SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM acc WHERE kind = 'nope') AND flag = 1", 90, "", true},
		{"body top-k", "SELECT id FROM t WHERE flag = 1 AND EXISTS (SELECT id FROM acc ORDER BY kind DESC, id LIMIT 3 OFFSET 2)", 90, "", true},
		{"body grouped", "SELECT id FROM t WHERE flag = 1 AND EXISTS (SELECT kind, COUNT(*) FROM acc GROUP BY kind)", 90, "", true},
		{"body ungrouped over nothing", "SELECT id FROM t WHERE flag = 1 AND EXISTS (SELECT COUNT(*) FROM e)", 60, "", true},
		{"body aggregate, limit 0", "SELECT id FROM t WHERE flag = 1 AND EXISTS (SELECT COUNT(*) FROM acc LIMIT 0)", 90, "", true},
		{"body last row", "SELECT id FROM t WHERE flag = 1 AND EXISTS (SELECT id FROM acc LIMIT 5 OFFSET 29)", 90, "", true},
		{"body past the end", "SELECT id FROM t WHERE flag = 1 AND EXISTS (SELECT id FROM acc LIMIT 5 OFFSET 30)", 90, "", true},
		{"body distinct", "SELECT id FROM t WHERE flag = 1 AND EXISTS (SELECT DISTINCT kind FROM acc LIMIT 1 OFFSET 4)", 90, "", true},
		// A function nothing defines is raised where the AND chain reaches it:
		// never behind a false EXISTS, and before a later one is charged. (A
		// name that does not bind fails at Prepare, reached or not.)
		{"unknown function behind a false exists", "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM e) AND NOSUCH(id) = 1", 60, "", false},
		{"unknown function before", "SELECT id FROM t WHERE NOSUCH(id) = 1 AND " + overBudget, 0, "no such function", false},
		{"unknown function behind a NULL", "SELECT id FROM m WHERE a > 1000 AND NOSUCH(id) = 1", 0, "no such function", false},
		// A correlated EXISTS is still interpreted, every row in order.
		{"correlated", "SELECT id FROM t WHERE flag = 1 AND EXISTS (SELECT 1 FROM acc WHERE acc.t_id = t.id)", 0, "", true},
	}
	db := existsFixture()
	for _, c := range cases {
		pr, perr := db.Exec(c.sql)
		nr, nerr := refExec(db, c.sql)
		if msg := divergence(c.sql, pr, perr, nr, nerr); msg != "" {
			t.Errorf("%s: %s", c.name, msg)
			continue
		}
		if perr != nil {
			if perr.Error() != nerr.Error() || c.err == "" || !strings.Contains(perr.Error(), c.err) {
				t.Errorf("%s: planned error %q, naive %q, want one containing %q", c.name, perr, nerr, c.err)
			}
			continue
		}
		if c.err != "" {
			t.Errorf("%s: no error, want one containing %q", c.name, c.err)
			continue
		}
		if c.name == "correlated" {
			// No memo: the body is charged on every row that reaches it.
			c.cost = 60 + 30*db.MustExec("SELECT COUNT(*) FROM t WHERE flag = 1").Rows.Cell(0, 0).I
		}
		if nr.Cost != c.cost {
			t.Errorf("%s: naive Cost %d, want %d", c.name, nr.Cost, c.cost)
		}
		if c.kernels && pr.Batches < 1 {
			t.Errorf("%s: no batch filter ran", c.name)
		}
	}
}

// TestInSubqueryAllocations pins that `x IN (SELECT …)` compares against the
// memoised body in place: over 1,000 outer rows the interpreter's filter
// must not allocate per row (it used to copy the body's first column into
// a fresh slice on every evaluation).
func TestInSubqueryAllocations(t *testing.T) {
	db := subqueryFixture(t, 1000)
	st, err := db.Prepare(`SELECT COUNT(*) FROM outer_t WHERE grp IN (SELECT grp FROM inner_t WHERE id < 3)`)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		res, err := st.Exec()
		// grp is id % 7: 143 outer rows in each of groups 0, 1 and 2.
		if err != nil || res.Rows.Cell(0, 0).I != 3*143 {
			t.Fatalf("IN over 1,000 rows: %v, err %v", res, err)
		}
	})
	if allocs > 100 {
		t.Errorf("IN (SELECT …) over 1,000 outer rows allocates %.0f times, want <= 100: none per row", allocs)
	}
}
