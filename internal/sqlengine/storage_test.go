package sqlengine

import (
	"fmt"
	"strings"
	"testing"
)

// The DML-on-storage battery. Each case runs its steps — statements, and
// BulkInsert calls — in order on a fresh database, once per executor: the
// statements run planned (Stmt.Exec) on one database and on the naive
// reference (Stmt.ExecReference) on the other. The steps move cells
// between storage classes: a cell the column's affinity leaves of another
// kind ('abc' into an INTEGER column), an UPDATE that changes a cell's
// kind, a DELETE that empties a table before rows come back, NULLs in
// every kind of column and a column of nothing but NULLs, and a BulkInsert
// that fails part-way. After each change the checks read the column
// through every path a SELECT can take: the filters' compiled shapes over
// a whole-table scan and over an equality-index bucket, ORDER BY through
// sort words and through the heap, GROUP BY, the aggregates and a hash
// join on the column.

// bulkStep is a BulkInsert of rows into table.
type bulkStep struct {
	table string
	rows  [][]Value
}

// storageCase is one battery case: each step a statement or a bulkStep.
type storageCase struct {
	name  string
	steps []any
}

// storageChecks are the SELECTs that read column col of table tab after a
// change, each through another path.
func storageChecks(tab string, cols ...string) []any {
	var out []any
	for _, col := range cols {
		for _, q := range []string{
			"SELECT id FROM %[1]s WHERE %[2]s = 3",
			"SELECT id FROM %[1]s WHERE %[2]s = 'abc'",
			"SELECT id FROM %[1]s WHERE %[2]s < 4",
			"SELECT id FROM %[1]s WHERE %[2]s >= 'a'",
			"SELECT id FROM %[1]s WHERE %[2]s IN (3, 'abc', 2.5, NULL)",
			"SELECT id FROM %[1]s WHERE %[2]s LIKE 'a%%'",
			"SELECT id FROM %[1]s WHERE %[2]s IS NULL",
			"SELECT id FROM %[1]s WHERE NOT (%[2]s = 3) AND %[2]s BETWEEN 2 AND 60",
			"SELECT id, %[2]s FROM %[1]s ORDER BY %[2]s, id",
			"SELECT id FROM %[1]s ORDER BY %[2]s DESC, id LIMIT 3",
			"SELECT %[2]s, COUNT(*), SUM(id) FROM %[1]s GROUP BY %[2]s ORDER BY %[2]s",
			"SELECT COUNT(%[2]s), SUM(%[2]s), MIN(%[2]s), MAX(%[2]s), AVG(%[2]s) FROM %[1]s",
			"SELECT x.id, y.id FROM %[1]s AS x JOIN %[1]s AS y ON x.%[2]s = y.%[2]s",
			"SELECT DISTINCT %[2]s FROM %[1]s",
		} {
			out = append(out, fmt.Sprintf(q, tab, col))
		}
	}
	return append(out, "SELECT * FROM "+tab, "SELECT id FROM "+tab+" ORDER BY id DESC")
}

// steps flattens statements, bulkSteps and check lists into one step list.
func steps(parts ...any) []any {
	var out []any
	for _, p := range parts {
		if list, ok := p.([]any); ok {
			out = append(out, list...)
		} else {
			out = append(out, p)
		}
	}
	return out
}

var storageCases = []storageCase{
	{name: "insert of another kind", steps: steps(
		"CREATE TABLE m (id INTEGER PRIMARY KEY, v INTEGER, r REAL, s TEXT)",
		"INSERT INTO m VALUES (1, 5, 1.5, 'a'), (2, 3, 2.5, 'b'), (3, 7, NULL, 'abc'), (4, NULL, 0.5, 'a'), (5, 3, 4.0, NULL)",
		storageChecks("m", "v", "r", "s"),
		// 'abc' stays TEXT in an INTEGER column, 'xyz' in a REAL one; 12
		// becomes TEXT '12'.
		"INSERT INTO m VALUES (6, 'abc', 'xyz', 12)",
		storageChecks("m", "v", "r", "s"),
		// 2.5 stays REAL in an INTEGER column, '07' becomes 7, '1e3' is not
		// numeric-looking text and stays TEXT in a REAL column.
		"INSERT INTO m VALUES (7, 2.5, 3, 'b'), (8, '07', '1e3', 7.0), (9, '', '4.5', '')",
		storageChecks("m", "v", "r", "s"),
	)},
	{name: "update changes a cell's kind", steps: steps(
		"CREATE TABLE u (id INTEGER, v INTEGER, w TEXT, x REAL)",
		"INSERT INTO u VALUES (1, 10, 'p', 1.0), (2, 20, 'q', 2.0), (3, 30, 'abc', NULL), (4, 3, '3', 3.5)",
		storageChecks("u", "v"),
		"UPDATE u SET v = 'abc' WHERE id = 2",
		storageChecks("u", "v"),
		"UPDATE u SET v = 20 WHERE v = 'abc'",
		storageChecks("u", "v"),
		"UPDATE u SET x = 'n/a' WHERE x IS NULL",
		storageChecks("u", "x"),
		// Every SET is evaluated on the row as it was: the two swap.
		"UPDATE u SET v = w, w = v",
		storageChecks("u", "v", "w"),
		"UPDATE u SET v = NULL WHERE id > 1",
		storageChecks("u", "v"),
		"UPDATE u SET id = id + 10 WHERE nosuch = 1",
		"UPDATE u SET v = 1 / 0, w = NULL WHERE id = 1",
		storageChecks("u", "v", "w"),
	)},
	{name: "delete empties and re-inserts", steps: steps(
		"CREATE TABLE d (id INTEGER, v INTEGER, s TEXT)",
		"INSERT INTO d VALUES (1, 3, 'a'), (2, 'abc', 'b'), (3, 3, NULL), (4, 40, 'abc')",
		storageChecks("d", "v", "s"),
		"DELETE FROM d WHERE id = 2",
		storageChecks("d", "v", "s"),
		"DELETE FROM d",
		storageChecks("d", "v"),
		"INSERT INTO d VALUES (5, 2.5, 'x'), (6, 3, NULL), (7, NULL, 'abc')",
		storageChecks("d", "v", "s"),
		"DELETE FROM d WHERE v > 100",
		"DELETE FROM d WHERE s IS NULL",
		storageChecks("d", "v", "s"),
	)},
	{name: "nulls in every kind of column", steps: steps(
		"CREATE TABLE n (id INTEGER, i INTEGER, r REAL, s TEXT, z INTEGER)",
		"INSERT INTO n VALUES (1, NULL, 1.5, NULL, NULL), (2, 3, NULL, 'abc', NULL), (3, NULL, NULL, NULL, NULL), (4, 4, 2.5, 'd', NULL)",
		storageChecks("n", "i", "r", "s", "z"),
		"UPDATE n SET z = 3 WHERE id = 3",
		storageChecks("n", "z"),
		"INSERT INTO n (id) VALUES (5)",
		storageChecks("n", "i", "z"),
		"UPDATE n SET i = NULL, r = NULL, s = NULL, z = NULL",
		storageChecks("n", "i", "r", "s", "z"),
	)},
	{name: "bulk insert that fails", steps: steps(
		"CREATE TABLE b (id INTEGER PRIMARY KEY, name TEXT NOT NULL, qty INTEGER, price REAL)",
		bulkStep{"b", [][]Value{
			{Int(1), Text("abc"), Int(3), Float(1)},
			{Int(2), Text("b"), Null(), Float(2.5)},
			{Int(3), Text("c"), Text("abc"), Null()},
		}},
		storageChecks("b", "qty", "name", "price"),
		// Row 1 breaks NOT NULL, after a row that would turn price mixed.
		bulkStep{"b", [][]Value{
			{Int(4), Text("d"), Int(3), Text("abc")},
			{Int(5), Null(), Int(5), Float(5)},
		}},
		storageChecks("b", "qty", "name", "price"),
		// Row 2 is one cell short.
		bulkStep{"b", [][]Value{
			{Int(6), Text("f"), Int(6), Float(6)},
			{Int(7), Text("g"), Float(2.5), Float(7)},
			{Int(8), Text("h"), Int(8)},
		}},
		storageChecks("b", "qty", "name", "price"),
		bulkStep{"b", [][]Value{
			{Int(9), Text("abc"), Text("3"), Text("x")},
			{Int(10), Int(10), Float(3), Null()},
		}},
		storageChecks("b", "qty", "name", "price"),
	)},
}

// stepText names a step in the golden.
func stepText(step any) string {
	if s, ok := step.(string); ok {
		return s
	}
	b := step.(bulkStep)
	return fmt.Sprintf("BULK INTO %s %v", b.table, b.rows)
}

// storageRun is one executor's pass over a case: what each step answered.
type storageRun struct {
	res []*Result
	err []error
}

// runStorageCase runs c's steps on a fresh database, every statement
// through exec.
func runStorageCase(c storageCase, exec func(*Stmt) (*Result, error)) storageRun {
	db := NewDatabase("storage")
	var run storageRun
	for _, step := range c.steps {
		var res *Result
		var err error
		switch s := step.(type) {
		case string:
			var st *Stmt
			if st, err = db.Prepare(s); err == nil {
				res, err = exec(st)
			}
		case bulkStep:
			var n int
			if n, err = db.BulkInsert(s.table, s.rows); err == nil {
				res = &Result{RowsAffected: int64(n)}
			}
		}
		run.res, run.err = append(run.res, res), append(run.err, err)
	}
	return run
}

// storageAnswers runs every case on both executors and renders one golden
// line per step: what the planned engine and the naive reference answered.
func storageAnswers() []string {
	var lines []string
	for _, c := range storageCases {
		planned, naive := runStorageCase(c, (*Stmt).Exec), runStorageCase(c, (*Stmt).ExecReference)
		for i, step := range c.steps {
			lines = append(lines, fmt.Sprintf("storage\t%s\t%s\tplanned %s\tnaive %s", c.name, stepText(step),
				answer(planned.res[i], planned.err[i]), answer(naive.res[i], naive.err[i])))
		}
	}
	return lines
}

// TestStorageBattery holds the planned engine to the naive reference at
// every step of every case: the same rows in the same order, or the same
// error class, at a Cost no greater; and a change the same on both.
func TestStorageBattery(t *testing.T) {
	for _, c := range storageCases {
		planned, naive := runStorageCase(c, (*Stmt).Exec), runStorageCase(c, (*Stmt).ExecReference)
		for i, step := range c.steps {
			text := stepText(step)
			if d := divergence(text, planned.res[i], planned.err[i], naive.res[i], naive.err[i]); d != "" {
				t.Errorf("%s: %s", c.name, d)
			}
			if !strings.HasPrefix(text, "SELECT") && answer(planned.res[i], planned.err[i]) != answer(naive.res[i], naive.err[i]) {
				t.Errorf("%s: %s changed the table differently: planned %s, naive %s", c.name, text,
					answer(planned.res[i], planned.err[i]), answer(naive.res[i], naive.err[i]))
			}
		}
	}
}
