package sqlengine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// buildMultiDB constructs a deterministic three-table database with the
// shapes the planner must handle: equi-joinable keys, NULLs in join
// columns, a TEXT/INTEGER affinity mismatch between acc.num_text and
// t.id, and unmatched rows on both sides of every join.
func buildMultiDB(seed int64, nRows int) *Database {
	rng := rand.New(rand.NewSource(seed))
	db := NewDatabase("planner")
	db.MustExec("CREATE TABLE t (id INTEGER, grp TEXT, num REAL, flag INTEGER)")
	db.MustExec("CREATE TABLE g (grp TEXT, label TEXT, weight INTEGER)")
	db.MustExec("CREATE TABLE acc (id INTEGER, t_id INTEGER, num_text TEXT, kind TEXT)")
	groups := []string{"a", "b", "c", "d", "zz"}
	for i := 0; i < nRows; i++ {
		g := groups[rng.Intn(len(groups))]
		num := float64(rng.Intn(1000)) / 10
		flag := rng.Intn(2)
		if rng.Intn(8) == 0 {
			db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, NULL, %g, %d)", i, num, flag))
		} else {
			db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, '%s', %g, %d)", i, g, num, flag))
		}
	}
	for i, g := range groups[:4] {
		db.MustExec(fmt.Sprintf("INSERT INTO g VALUES ('%s', 'L%d', %d)", g, i, i*10))
	}
	db.MustExec("INSERT INTO g VALUES (NULL, 'null-group', 99)")
	for i := 0; i < nRows/2; i++ {
		tid := rng.Intn(nRows + 5) // some point past the end: unmatched
		kind := groups[rng.Intn(len(groups))]
		// num_text holds the id as numeric-looking TEXT: joining it to
		// t.id exercises the harmonise coercion inside the hash join.
		db.MustExec(fmt.Sprintf("INSERT INTO acc VALUES (%d, %d, '%d', '%s')", i, tid, tid, kind))
	}
	// m is the tail fixture (tailCheckQueries): a and b are small-range sort
	// keys with NULLs, so every key ties; mixed holds INTEGER, REAL and TEXT
	// cells (an INTEGER column keeps non-numeric text and fractional reals
	// as they are); nul is all NULL; v mixes INTEGER and REAL for SUM. It is
	// generated last so the tables above keep their contents.
	db.MustExec("CREATE TABLE m (id INTEGER, a INTEGER, b INTEGER, mixed INTEGER, nul INTEGER, v INTEGER)")
	orNull := func(oneIn int, lit string) string {
		if rng.Intn(oneIn) == 0 {
			return "NULL"
		}
		return lit
	}
	for i := 0; i < nRows; i++ {
		mixed := []string{
			fmt.Sprint(rng.Intn(5)), fmt.Sprintf("%d.5", rng.Intn(5)),
			fmt.Sprintf("'s%d'", rng.Intn(3)), "NULL", fmt.Sprint(-rng.Intn(3)),
		}[rng.Intn(5)]
		v := fmt.Sprint(rng.Intn(50))
		if rng.Intn(3) == 0 {
			v += ".25"
		}
		db.MustExec(fmt.Sprintf("INSERT INTO m VALUES (%d, %s, %s, %s, NULL, %s)", i,
			orNull(6, fmt.Sprint(rng.Intn(4))), orNull(8, fmt.Sprint(rng.Intn(3))), mixed, orNull(10, v)))
	}
	return db
}

// refExec runs sql on db's naive reference executor, the implementation
// the planned engine is held to.
func refExec(db *Database, sql string) (*Result, error) {
	st, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return st.ExecReference()
}

func rowsIdentical(a, b *Rows) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if !reflect.DeepEqual(a.Columns, b.Columns) {
		return false
	}
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		for k := range a.Columns {
			if a.Cell(i, k) != b.Cell(i, k) {
				return false
			}
		}
	}
	return true
}

// crossCheck runs sql on db's planned engine and on its naive reference and
// requires the contract between them to hold (divergence).
func crossCheck(t *testing.T, db *Database, sql string) {
	t.Helper()
	pr, perr := db.Exec(sql)
	nr, nerr := refExec(db, sql)
	if msg := divergence(sql, pr, perr, nr, nerr); msg != "" {
		t.Fatal(msg)
	}
}

// crossCheckConcurrent is crossCheck with sql run on the planned engine
// from g goroutines at once, each result held to the reference's.
func crossCheckConcurrent(t *testing.T, db *Database, sql string, g int) {
	t.Helper()
	nr, nerr := refExec(db, sql)
	var wg sync.WaitGroup
	for range g {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr, perr := db.Exec(sql)
			if msg := divergence(sql, pr, perr, nr, nerr); msg != "" {
				t.Error(msg)
			}
		}()
	}
	wg.Wait()
}

// errClass is the class of an execution error the planned engine must
// share with the reference: none, the cost budget's, or any other.
func errClass(err error) string {
	switch {
	case err == nil:
		return "none"
	case strings.Contains(err.Error(), "exceeded cost budget"):
		return "budget"
	}
	return "error"
}

// divergence describes how the planned outcome of sql breaks its contract
// with the naive reference (planner.go), or is empty when it keeps it: the
// same error class, and without an error the same rows in the same order
// at a Cost no greater than the reference's. Where the reference exceeds
// the cost budget, the plan may answer.
func divergence(sql string, pr *Result, perr error, nr *Result, nerr error) string {
	switch pc, nc := errClass(perr), errClass(nerr); {
	case nc == "budget":
		return ""
	case pc != nc:
		return fmt.Sprintf("planner/naive error class differs for %q: planner=%v naive=%v", sql, perr, nerr)
	case perr != nil:
		return ""
	case !rowsIdentical(pr.Rows, nr.Rows):
		return fmt.Sprintf("planner/naive rows differ for %q:\nplanner=%v\nnaive=%v", sql, pr.Rows, nr.Rows)
	case pr.Cost > nr.Cost:
		return fmt.Sprintf("planned Cost exceeds the reference's for %q: planner=%d naive=%d", sql, pr.Cost, nr.Cost)
	}
	return ""
}

// crossCheckQueries is the planner's acceptance battery: every optimisable
// shape (hash joins, pushdown targets, index lookups) plus every mandatory
// fallback (non-equi ON, subqueries, LEFT JOIN right-side predicates,
// ambiguous references) cross-checked against the naive executor.
var crossCheckQueries = []string{
	// Hash equi-joins, two and three tables, with LIMIT exercising raw
	// emission order.
	"SELECT t.id, g.label FROM t JOIN g ON t.grp = g.grp",
	"SELECT t.id, g.label FROM t JOIN g ON g.grp = t.grp LIMIT 7",
	"SELECT t.id, g.label, acc.kind FROM t JOIN g ON t.grp = g.grp JOIN acc ON acc.t_id = t.id",
	"SELECT COUNT(*) FROM t JOIN g ON t.grp = g.grp JOIN acc ON acc.t_id = t.id WHERE acc.kind = 'a'",
	// Affinity coercion across the join key: TEXT num_text vs INTEGER id.
	"SELECT t.id, acc.id FROM t JOIN acc ON t.id = acc.num_text",
	// LEFT JOIN null-extension through the hash path.
	"SELECT t.id, g.label FROM t LEFT JOIN g ON t.grp = g.grp ORDER BY t.id",
	"SELECT t.id, g.label FROM t LEFT JOIN g ON t.grp = g.grp WHERE t.num > 30",
	"SELECT t.id, g.label FROM t LEFT JOIN g ON t.grp = g.grp WHERE g.label IS NULL",
	// Equi + residual conjunction; same-side equality as residual.
	"SELECT t.id FROM t JOIN g ON t.grp = g.grp AND t.num > g.weight",
	"SELECT t.id FROM t JOIN g ON t.grp = g.grp AND g.label = g.label",
	"SELECT t.id FROM t JOIN acc ON t.id = acc.t_id AND acc.kind != 'zz' AND t.flag = 1",
	// Non-equi ON: nested-loop fallback.
	"SELECT t.id, g.weight FROM t JOIN g ON t.num > g.weight WHERE t.id < 12",
	// Cross join (no ON).
	"SELECT COUNT(*) FROM t CROSS JOIN g",
	// Pushdown: single table, point lookup, IN, BETWEEN, LIKE.
	"SELECT id FROM t WHERE grp = 'a'",
	"SELECT id FROM t WHERE grp = 'a' AND num > 20",
	"SELECT id FROM t WHERE t.grp = 'zz' OR flag = 1",
	"SELECT id FROM t WHERE grp IN ('a', 'b') AND num BETWEEN 10 AND 70",
	"SELECT id FROM t WHERE grp LIKE 'a%' AND flag = 1",
	"SELECT id FROM t WHERE grp = NULL",
	// Pushdown around one join: both sides, and WHERE mixing sides.
	"SELECT t.id, g.label FROM t JOIN g ON t.grp = g.grp WHERE t.flag = 1",
	"SELECT t.id, g.label FROM t JOIN g ON t.grp = g.grp WHERE g.weight > 5 AND t.num < 80",
	"SELECT t.id FROM t JOIN g ON t.grp = g.grp WHERE t.num > g.weight",
	"SELECT t.id FROM t LEFT JOIN g ON t.grp = g.grp WHERE t.flag = 0",
	// Two joins: only the last table's predicate may move.
	"SELECT t.id FROM t JOIN g ON t.grp = g.grp JOIN acc ON acc.t_id = t.id WHERE acc.kind = 'b' AND t.flag = 1",
	// Aggregation, grouping, ordering over planned joins.
	"SELECT g.label, COUNT(*), SUM(t.num) FROM t JOIN g ON t.grp = g.grp GROUP BY g.label ORDER BY g.label",
	"SELECT grp, COUNT(*) FROM t GROUP BY grp HAVING COUNT(*) > 2 ORDER BY 2 DESC, 1",
	"SELECT DISTINCT t.grp FROM t JOIN g ON t.grp = g.grp ORDER BY t.grp",
	// Subqueries: unsafe for pushdown, joins inside still planned.
	"SELECT id FROM t WHERE grp IN (SELECT grp FROM g WHERE weight > 5)",
	"SELECT id FROM t WHERE EXISTS (SELECT 1 FROM acc WHERE acc.t_id = t.id)",
	"SELECT (SELECT COUNT(*) FROM acc WHERE acc.t_id = t.id) FROM t WHERE flag = 1",
	"SELECT s.id FROM (SELECT id, grp FROM t WHERE flag = 1) AS s JOIN g ON s.grp = g.grp",
	// Compound selects over joins.
	"SELECT grp FROM t WHERE flag = 1 UNION SELECT grp FROM g WHERE weight > 0 ORDER BY 1",
	"SELECT t.id FROM t JOIN g ON t.grp = g.grp INTERSECT SELECT id FROM t WHERE flag = 1",
	// Aliases and qualified stars.
	"SELECT a.id, b.label FROM t AS a JOIN g AS b ON a.grp = b.grp WHERE a.flag = 1",
	"SELECT b.* FROM t AS a JOIN g AS b ON a.grp = b.grp LIMIT 5",
	// Error shapes must error identically: a function nothing defines, and
	// one called with the wrong number of arguments. (A name that does not
	// bind fails at Prepare, in both.)
	"SELECT id FROM t JOIN g ON t.grp = g.grp WHERE NOSUCH(t.id) = 1",
	"SELECT t.id FROM t JOIN acc ON t.id = acc.id WHERE SUBSTR(acc.kind) = 'a'",
	// Unsafe ON clauses must disable pushdown: an ON subquery runs per
	// evaluated pair, so the pairs must stay naive.
	"SELECT t.id FROM t JOIN g ON t.grp = g.grp AND (SELECT COUNT(*) FROM g) > 0 WHERE t.id = 2",
	// An ON clause that fails on every pair must error exactly when the
	// naive executor errors — even when a pushable WHERE would empty a scan
	// and the ON would never be evaluated.
	"SELECT t.id FROM t JOIN g ON t.grp = NOSUCH(g.grp) WHERE t.id = 2",
	"SELECT t.id FROM t JOIN g ON t.grp = NOSUCH(g.grp) WHERE t.id = 99999",
}

// tailCheckQueries cover what happens after the scan of one table — ORDER
// BY, LIMIT/OFFSET, DISTINCT, aggregates — on the fixture table m: every
// shape the positions path (positions.go) takes over, and next to each the
// nearest shape that must fall back to the row path; then the same tails
// over a hash join's pairs, and the filters the served SQL has.
var tailCheckQueries = []string{
	// Top-k: multi-key ASC/DESC with ties on every key, so the position
	// tie-break is what orders most of the output.
	"SELECT id FROM m ORDER BY a DESC, b, id LIMIT 5",
	"SELECT id FROM m ORDER BY a, b DESC LIMIT 7",
	"SELECT id FROM m ORDER BY b DESC, a LIMIT 9",
	// NULL keys sort first ascending, last descending.
	"SELECT id, a FROM m ORDER BY a LIMIT 4",
	"SELECT id, a FROM m ORDER BY a DESC LIMIT 50",
	// A sort column holding INTEGER, REAL, TEXT and NULL.
	"SELECT id, mixed FROM m ORDER BY mixed, id LIMIT 50",
	"SELECT id FROM m ORDER BY mixed DESC LIMIT 6",
	// Ordinal, alias (one shadowing a source column) and qualified terms.
	"SELECT b, id FROM m ORDER BY 1 DESC, 2 LIMIT 5",
	"SELECT a AS k, id FROM m ORDER BY k DESC, id LIMIT 5",
	"SELECT a AS b, id FROM m ORDER BY b, id LIMIT 5",
	"SELECT id FROM m ORDER BY m.a, m.id LIMIT 3",
	"SELECT * FROM m ORDER BY v DESC, id LIMIT 3",
	// OFFSET, k = 0, k >= n, no LIMIT, negative and MySQL-style forms.
	"SELECT id FROM m ORDER BY a DESC LIMIT 4 OFFSET 3",
	"SELECT id FROM m ORDER BY a LIMIT 0",
	"SELECT id FROM m LIMIT 0",
	"SELECT id FROM m ORDER BY a, id LIMIT 1000",
	"SELECT id FROM m ORDER BY a LIMIT 5 OFFSET 1000",
	"SELECT id FROM m ORDER BY b DESC, a",
	"SELECT id FROM m ORDER BY a LIMIT -1 OFFSET 2",
	"SELECT id FROM m ORDER BY a LIMIT 3 OFFSET -2",
	"SELECT id FROM m ORDER BY a LIMIT 2, 3",
	"SELECT id FROM m ORDER BY a LIMIT 9223372036854775807 OFFSET 1",
	"SELECT id FROM m LIMIT 9223372036854775807 OFFSET 1",
	// Plain gather windows.
	"SELECT id FROM m LIMIT 5 OFFSET 2",
	"SELECT * FROM m LIMIT 3",
	"SELECT v, id, v FROM m",
	// DISTINCT before ORDER BY and LIMIT, also ordered by a column that is
	// not projected (the first occurrence's value).
	"SELECT DISTINCT a FROM m ORDER BY a DESC LIMIT 3",
	"SELECT DISTINCT a, b FROM m LIMIT 4",
	"SELECT DISTINCT a FROM m ORDER BY b LIMIT 3",
	"SELECT DISTINCT mixed FROM m ORDER BY 1",
	// Index-narrowed and kernel-filtered selections feeding the tail.
	"SELECT id FROM m WHERE a = 2 ORDER BY b DESC, id LIMIT 3",
	"SELECT id FROM t WHERE grp = 'a' ORDER BY num DESC, id LIMIT 4",
	"SELECT id FROM m WHERE a = 12345 ORDER BY b LIMIT 3",
	"SELECT id FROM m WHERE a = NULL ORDER BY b LIMIT 3",
	"SELECT id FROM m WHERE b > 0 AND a = 1 ORDER BY v LIMIT 5 OFFSET 1",
	"SELECT id FROM m WHERE b > 1 ORDER BY a LIMIT 5 OFFSET 1",
	"SELECT id FROM m WHERE 1 = 1 ORDER BY a LIMIT 2",
	"SELECT id FROM m WHERE 1 = 0",
	// Row-tail fallbacks and errors.
	"SELECT id FROM m ORDER BY a + b, id LIMIT 3",
	"SELECT id + 1 FROM m ORDER BY a, id LIMIT 3",
	"SELECT id FROM m ORDER BY a, id LIMIT 1 + 2",
	"SELECT id FROM m ORDER BY a, id LIMIT 2 OFFSET (SELECT 1)",
	"SELECT id FROM m ORDER BY 9 LIMIT 2",
	"SELECT id FROM m ORDER BY NOSUCH(a) LIMIT 2",
	"SELECT id FROM m WHERE a > (SELECT 1) ORDER BY a, id LIMIT 2",
	"SELECT id FROM m WHERE a > 0 AND NOSUCH(a) = 1 ORDER BY a LIMIT 2",
	// Aggregates: every accumulator, over everything, over an empty
	// selection (index miss, kernel miss), over an all-NULL column, over
	// mixed INTEGER/REAL and mixed-kind cells.
	"SELECT COUNT(*), COUNT(a), SUM(a), TOTAL(a), AVG(a), MIN(a), MAX(a) FROM m",
	"SELECT COUNT(*), COUNT(a), SUM(a), TOTAL(a), AVG(a), MIN(a), MAX(a) FROM m WHERE a = 12345",
	"SELECT COUNT(*), SUM(v), TOTAL(v), MIN(v) FROM m WHERE a > 999",
	"SELECT id, COUNT(*) FROM m WHERE a > 999",
	"SELECT id, a, COUNT(*) FROM m",
	"SELECT COUNT(nul), SUM(nul), TOTAL(nul), AVG(nul), MIN(nul), MAX(nul) FROM m",
	"SELECT SUM(v), TOTAL(v), AVG(v) FROM m",
	"SELECT SUM(v) FROM m WHERE a = 1",
	"SELECT SUM(mixed), AVG(mixed), MIN(mixed), MAX(mixed), COUNT(mixed) FROM m",
	"SELECT COUNT(*) FROM m LIMIT 0",
	// GROUP BY: NULL keys, first-seen group order, several keys, a
	// mixed-kind key, a bare column read from the group's first row.
	"SELECT a, COUNT(*), SUM(v) FROM m GROUP BY a",
	"SELECT a, b, COUNT(*), MIN(id) FROM m GROUP BY a, b ORDER BY 3 DESC, 1, 2 LIMIT 5",
	"SELECT mixed, COUNT(*) FROM m GROUP BY mixed",
	"SELECT a, id, MAX(v) FROM m GROUP BY a",
	"SELECT a AS k, AVG(v) AS mean FROM m WHERE b = 1 GROUP BY a ORDER BY mean DESC, k",
	"SELECT DISTINCT COUNT(*) FROM m GROUP BY b",
	"SELECT a, COUNT(*) FROM m WHERE a = 12345 GROUP BY a",
	// Aggregate fallbacks.
	"SELECT COUNT(DISTINCT a) FROM m",
	"SELECT a, COUNT(*) FROM m GROUP BY a HAVING COUNT(*) > 1",
	"SELECT a, COUNT(*) FROM m GROUP BY a ORDER BY COUNT(*) DESC, a",
	"SELECT a FROM m GROUP BY a ORDER BY m.a",
	"SELECT SUM(a) / COUNT(*) FROM m",
	"SELECT GROUP_CONCAT(a) FROM m",
	"SELECT a + 1, COUNT(*) FROM m GROUP BY a + 1",
	"SELECT *, COUNT(*) FROM m",
	"SELECT MAX(*) FROM m",
	// The tail inside a correlated subquery and inside compound arms.
	"SELECT id, (SELECT COUNT(*) FROM m WHERE m.a = t.flag) FROM t WHERE id < 5",
	"SELECT id, (SELECT m.id FROM m WHERE m.a = t.flag ORDER BY m.b DESC, m.id LIMIT 1) FROM t WHERE id < 5",
	"SELECT a FROM m WHERE b = 1 UNION ALL SELECT b FROM m WHERE a = 1 ORDER BY 1 LIMIT 5",
	// Negation kernels: the complement of each comparison (NULL cells fail
	// both ways), NOT over the shapes that carry their own flag, a double
	// negation, a NULL literal, a negation with no kernel shape.
	"SELECT COUNT(*), SUM(v) FROM m WHERE NOT (a = 2)",
	"SELECT id FROM m WHERE NOT (mixed = 's1') AND NOT (b < 1)",
	"SELECT id FROM m WHERE NOT (mixed >= 2)",
	"SELECT id FROM m WHERE NOT (1 < a)",
	"SELECT id FROM m WHERE NOT (a BETWEEN 1 AND 2) AND NOT (b NOT BETWEEN 0 AND 1)",
	"SELECT id FROM m WHERE NOT (a IN (1, 3)) AND NOT (mixed NOT IN ('s0', 1, NULL))",
	"SELECT id FROM m WHERE NOT (mixed LIKE 's%') AND NOT (a IS NULL)",
	"SELECT id FROM m WHERE NOT (nul IS NOT NULL) AND NOT NOT (a = 1)",
	"SELECT id FROM m WHERE NOT (a = NULL)",
	"SELECT id FROM m WHERE NOT (a = b) AND NOT (a + 1 = 2)",
	"SELECT id FROM t WHERE NOT (grp = 'a') AND NOT (num > 50)",
	// Literal select items, the body of most EXISTS.
	"SELECT 1 FROM m WHERE a = 1",
	"SELECT 'x', id, 2.5, NULL FROM m ORDER BY 1, a DESC, id LIMIT 4",
	"SELECT DISTINCT 1 FROM m",
	"SELECT DISTINCT 1, b FROM m ORDER BY 2",
	"SELECT 1 FROM m WHERE a = 12345",
	"SELECT id FROM t WHERE id < 4 AND EXISTS (SELECT 1 FROM m WHERE m.a = t.flag)",
	// The served joins: COUNT(*) behind a pushed negation, behind an unsafe
	// EXISTS, on INTEGER keys (t.id, acc.t_id and flag/weight hold nothing
	// else) and on an INTEGER key against numeric TEXT.
	"SELECT COUNT(*) FROM t JOIN g ON (t.grp = g.grp) WHERE NOT (g.label = 'L1')",
	"SELECT COUNT(*) FROM t JOIN g ON (t.grp = g.grp) WHERE ((g.label = 'L1') AND EXISTS (SELECT 1 FROM t))",
	"SELECT COUNT(*) FROM t JOIN g ON t.grp = g.grp WHERE g.label = 'L2' AND EXISTS (SELECT 1 FROM acc WHERE acc.t_id = t.id)",
	"SELECT COUNT(*), SUM(acc.id) FROM t JOIN acc ON t.id = acc.t_id",
	"SELECT COUNT(*) FROM t JOIN g ON t.flag = g.weight",
	"SELECT COUNT(*), MIN(acc.num_text) FROM acc JOIN t ON acc.num_text = t.id WHERE NOT (acc.kind = 'zz')",
	// Every consumer over pairs: top-k on the right side's column with NULL
	// extensions among the keys, gather windows, DISTINCT, grouped
	// accumulators keyed by either side, a third table, compound arms.
	"SELECT t.id, g.label FROM t LEFT JOIN g ON t.grp = g.grp ORDER BY g.weight DESC, t.id LIMIT 6",
	"SELECT t.id, g.label FROM t LEFT JOIN g ON t.grp = g.grp ORDER BY 2, 1 DESC LIMIT 4 OFFSET 3",
	"SELECT g.*, t.id FROM t JOIN g ON t.grp = g.grp LIMIT 5 OFFSET 2",
	"SELECT 1, g.label FROM t LEFT JOIN g ON t.grp = g.grp WHERE g.label IS NULL",
	"SELECT DISTINCT g.label, t.flag FROM t LEFT JOIN g ON t.grp = g.grp ORDER BY 1 DESC, 2",
	"SELECT g.label, COUNT(*), COUNT(g.weight), AVG(t.num), MAX(g.label) FROM t LEFT JOIN g ON t.grp = g.grp GROUP BY g.label ORDER BY 2 DESC, 1",
	"SELECT t.flag, g.weight, MIN(t.id) FROM t JOIN g ON t.grp = g.grp AND t.num > g.weight GROUP BY t.flag, g.weight",
	"SELECT acc.kind, COUNT(*) FROM t JOIN g ON t.grp = g.grp JOIN acc ON acc.t_id = t.id GROUP BY acc.kind ORDER BY 1",
	"SELECT t.id FROM t JOIN acc ON t.id = acc.t_id WHERE t.id = 99999 ORDER BY acc.id LIMIT 2",
	"SELECT g.label FROM t JOIN g ON t.grp = g.grp WHERE t.flag = 1 EXCEPT SELECT g.label FROM t JOIN g ON t.grp = g.grp WHERE t.num > 90",
	// Pair-tail fallbacks and errors: a function nothing defines, in the
	// select list, over no rows (where nothing may be raised), in ORDER BY
	// and in an aggregate; expressions, HAVING.
	"SELECT NOSUCH(g.grp) FROM t JOIN g ON t.grp = g.grp",
	"SELECT NOSUCH(g.grp) FROM t JOIN g ON t.grp = g.grp WHERE t.id = 99999",
	"SELECT t.id FROM t JOIN g ON t.grp = g.grp ORDER BY NOSUCH(t.grp) LIMIT 3",
	"SELECT COUNT(NOSUCH(t.grp)) FROM t JOIN g ON t.grp = g.grp",
	"SELECT t.id FROM t JOIN g ON t.grp = g.grp ORDER BY t.num + g.weight, t.id LIMIT 3",
	"SELECT g.label, COUNT(*) FROM t JOIN g ON t.grp = g.grp GROUP BY g.label HAVING COUNT(*) > 3",
	"SELECT t.id FROM t JOIN g ON t.grp = g.grp WHERE NOT (NOSUCH(t.id) = 1)",
	// The row-reading comparison kernels over a column of every kind (mixed:
	// INTEGER, REAL, TEXT, NULL): a TEXT or INTEGER literal, which compares a
	// cell of its own kind directly, and numeric-looking TEXT ('01'), which
	// harmonises — negated (read from the rows by design), index-narrowed
	// (the bucket re-checked from the rows), over the whole scan (no typed
	// vector exists for the column) and over a join's output, where a LEFT
	// JOIN's right side is filtered after the join.
	"SELECT id FROM m WHERE mixed = 's1'",
	"SELECT id FROM m WHERE mixed > 's0' AND mixed != 2",
	"SELECT id FROM m WHERE NOT (mixed = 's1') AND NOT (mixed < 's2')",
	"SELECT id FROM m WHERE mixed = 1",
	"SELECT id FROM m WHERE NOT (mixed = 1) AND NOT (mixed >= 3)",
	"SELECT id FROM m WHERE mixed = '01'",
	"SELECT id FROM m WHERE NOT (mixed = '01')",
	"SELECT t.id, m.mixed FROM t LEFT JOIN m ON t.id = m.id WHERE m.mixed = 's1'",
	"SELECT t.id FROM t LEFT JOIN m ON t.id = m.id WHERE NOT (m.mixed = 's1') AND NOT (m.mixed > 1)",
	"SELECT COUNT(*) FROM t LEFT JOIN m ON t.id = m.id WHERE m.mixed = '01' OR m.mixed = 2",
}

func TestPlannerCrossValidation(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		db := buildMultiDB(seed, 60)
		for _, q := range crossCheckQueries {
			crossCheck(t, db, q)
		}
		for _, q := range tailCheckQueries {
			crossCheck(t, db, q)
		}
	}
}

// TestPlannerCrossValidationAfterDML re-runs point-lookup and join queries
// after INSERT/UPDATE/DELETE: the planner's lazy indexes must be
// invalidated, never stale.
func TestPlannerCrossValidationAfterDML(t *testing.T) {
	db := buildMultiDB(3, 50)
	queries := []string{
		"SELECT id, grp, num FROM t WHERE grp = 'a'",
		"SELECT t.id, g.label FROM t JOIN g ON t.grp = g.grp",
		"SELECT COUNT(*) FROM t WHERE grp = 'freshly-inserted'",
	}
	dml := []string{
		"INSERT INTO t VALUES (1000, 'freshly-inserted', 5.5, 1)",
		"INSERT INTO t VALUES (1001, 'a', 6.5, 0)",
		"UPDATE t SET grp = 'b' WHERE id = 1001",
		"UPDATE g SET weight = 77 WHERE grp = 'a'",
		"DELETE FROM t WHERE grp = 'a'",
	}
	for _, q := range queries {
		crossCheck(t, db, q)
	}
	for _, m := range dml {
		db.MustExec(m)
		for _, q := range queries {
			crossCheck(t, db, q)
		}
	}
}

// TestIndexInvalidationAfterDML pins the index lifecycle directly: a point
// lookup builds the index, each DML kind drops it, and subsequent lookups
// see the new data.
func TestIndexInvalidationAfterDML(t *testing.T) {
	db := NewDatabase("idx")
	db.MustExec("CREATE TABLE p (id INTEGER, name TEXT)")
	db.MustExec("INSERT INTO p VALUES (1, 'x'), (2, 'y'), (3, 'x')")

	count := func() int64 {
		rows, err := db.Query("SELECT COUNT(*) FROM p WHERE name = 'x'")
		if err != nil {
			t.Fatal(err)
		}
		return rows.Cell(0, 0).I
	}
	if got := count(); got != 2 {
		t.Fatalf("initial count = %d, want 2", got)
	}
	tab, _ := db.Table("p")
	if !tab.indexed() {
		t.Fatal("point lookup did not build the equality index")
	}

	db.MustExec("INSERT INTO p VALUES (4, 'x')")
	if got := count(); got != 3 {
		t.Fatalf("count after INSERT = %d, want 3", got)
	}
	db.MustExec("UPDATE p SET name = 'z' WHERE id = 1")
	if got := count(); got != 2 {
		t.Fatalf("count after UPDATE = %d, want 2", got)
	}
	db.MustExec("DELETE FROM p WHERE name = 'x'")
	if got := count(); got != 0 {
		t.Fatalf("count after DELETE = %d, want 0", got)
	}
}

// TestHashJoinLeftJoinNullRows pins LEFT JOIN null-extension through the
// hash path: unmatched and NULL-keyed left rows surface exactly once with
// NULL right columns.
func TestHashJoinLeftJoinNullRows(t *testing.T) {
	db := NewDatabase("left")
	db.MustExec("CREATE TABLE l (id INTEGER, k TEXT)")
	db.MustExec("CREATE TABLE r (k TEXT, v TEXT)")
	db.MustExec("INSERT INTO l VALUES (1, 'a'), (2, 'missing'), (3, NULL), (4, 'b')")
	db.MustExec("INSERT INTO r VALUES ('a', 'va'), ('b', 'vb'), ('a', 'va2')")

	rows, err := db.Query("SELECT l.id, r.v FROM l LEFT JOIN r ON l.k = r.k")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Value{
		{Int(1), Text("va")},
		{Int(1), Text("va2")},
		{Int(2), Null()},
		{Int(3), Null()},
		{Int(4), Text("vb")},
	}
	if !reflect.DeepEqual(rows.rowData(), want) {
		t.Fatalf("LEFT JOIN rows = %v, want %v", rows.rowData(), want)
	}

	// The same through each consumer of the join's pairs: the extension's
	// NULLs counted, sorted first, and filtered for.
	for _, tc := range []struct {
		sql, path string
		want      [][]Value
	}{
		{"SELECT COUNT(*), COUNT(r.v), MIN(r.v) FROM l LEFT JOIN r ON l.k = r.k", "pairs/agg", [][]Value{{Int(5), Int(3), Text("va")}}},
		{"SELECT l.id, r.v FROM l LEFT JOIN r ON l.k = r.k ORDER BY r.v, l.id DESC LIMIT 3", "pairs/topk", [][]Value{{Int(3), Null()}, {Int(2), Null()}, {Int(1), Text("va")}}},
		{"SELECT l.id FROM l LEFT JOIN r ON l.k = r.k WHERE r.k IS NULL", "pairs/gather", [][]Value{{Int(2)}, {Int(3)}}},
	} {
		res, err := db.Exec(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.Path != tc.path || !reflect.DeepEqual(res.Rows.rowData(), tc.want) {
			t.Errorf("%s: path %q rows %v, want %q %v", tc.sql, res.Path, res.Rows.rowData(), tc.path, tc.want)
		}
	}
}

// TestNegativeZeroBucketing pins that REAL -0.0 and INTEGER 0 land in the
// same hash-join bucket and the same point-lookup index bucket: SQL
// comparison treats them as equal, so the coarse key must too.
func TestNegativeZeroBucketing(t *testing.T) {
	db := NewDatabase("zero")
	db.MustExec("CREATE TABLE a (x REAL)")
	db.MustExec("CREATE TABLE b (y INTEGER)")
	db.MustExec("INSERT INTO a VALUES (-0.0), (1.5)")
	db.MustExec("INSERT INTO b VALUES (0), (2)")
	for _, q := range []string{
		"SELECT COUNT(*) FROM a JOIN b ON a.x = b.y",
		"SELECT x FROM a WHERE x = 0",
	} {
		crossCheck(t, db, q)
	}
	rows, err := db.Query("SELECT COUNT(*) FROM a JOIN b ON a.x = b.y")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Cell(0, 0).I != 1 {
		t.Fatalf("-0.0 = 0 join matched %d rows, want 1", rows.Cell(0, 0).I)
	}

	// Every pinned REAL (value_test.go) through the index, the hash join,
	// the sort words, grouping and DISTINCT: +0.0 joins -0.0's bucket, and
	// the plan answers as the reference does. Compare holds NaN equal to
	// every number, so a NaN cell leaves both the index and the hash join
	// to a full scan and the nested loop.
	rest := make([][]Value, 0, len(pinReals))
	for _, f := range pinReals {
		rest = append(rest, []Value{Float(f)})
	}
	if _, err := db.BulkInsert("a", rest); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO b VALUES (9007199254740992)")
	for _, q := range []string{
		"SELECT COUNT(*) FROM a JOIN b ON a.x = b.y",
		"SELECT x, y FROM a JOIN b ON a.x = b.y",
		"SELECT y, x FROM b LEFT JOIN a ON a.x = b.y",
		"SELECT x FROM a WHERE x = 0",
		"SELECT x FROM a WHERE x = -0.0",
		"SELECT x FROM a WHERE x = 0.1",
		"SELECT x FROM a WHERE x = 9007199254740993",
		"SELECT x FROM a WHERE x > 0 ORDER BY x",
		"SELECT x FROM a ORDER BY x DESC",
		"SELECT x, COUNT(*) FROM a GROUP BY x",
		"SELECT DISTINCT x FROM a",
	} {
		crossCheck(t, db, q)
	}
	expectRows(t, db, "SELECT x FROM a WHERE x = 0", []string{"-0.0", "-0.0", "0.0", "NaN"})
}

// TestResolveHashJoinClassification white-box checks which ON clauses the
// planner hashes and which fall back, and that an ON reference that does
// not bind fails the statement at Prepare.
func TestResolveHashJoinClassification(t *testing.T) {
	db := buildMultiDB(5, 20)
	cases := []struct {
		on        string
		wantHash  bool
		wantEquis int
		wantResid int
		wantErr   string
	}{
		{on: "t.grp = g.grp", wantHash: true, wantEquis: 1},
		{on: "g.grp = t.grp", wantHash: true, wantEquis: 1},
		{on: "t.grp = g.grp AND t.id > g.weight", wantHash: true, wantEquis: 1, wantResid: 1},
		{on: "t.id > g.weight"}, // no equi
		{on: "t.id = t.id"},     // same-side only
		{on: "t.grp = g.grp AND t.id = missing_col", wantErr: "no such column: missing_col"},
		{on: "grp = g.weight", wantErr: `ambiguous column name "grp"`},
	}
	for _, tc := range cases {
		sql := "SELECT 1 FROM t JOIN g ON " + tc.on
		st, err := db.Prepare(sql)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ON %q: Prepare error %v, want one containing %q", tc.on, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("prepare ON %q: %v", tc.on, err)
		}
		ja := st.ast.(*SelectStmt).bound.plan.joins[1]
		if ja == nil {
			t.Fatalf("no join analysis for %q", tc.on)
		}
		if hashed := ja.lcols != nil; hashed != tc.wantHash {
			t.Errorf("ON %q: hashable = %v, want %v", tc.on, hashed, tc.wantHash)
			continue
		}
		if len(ja.lcols) != tc.wantEquis || len(ja.residual) != tc.wantResid {
			t.Errorf("ON %q: equis=%d resid=%d, want %d/%d", tc.on, len(ja.lcols), len(ja.residual), tc.wantEquis, tc.wantResid)
		}
	}
}

// TestExprSafeTotal pins the pushdown safety whitelist's boundary.
func TestExprSafeTotal(t *testing.T) {
	safe := []string{
		"a = 1", "a > b AND c < 2", "x LIKE 'a%'", "x IS NOT NULL",
		"x IN (1, 2, 3)", "x BETWEEN 1 AND 2", "UPPER(x) = 'A'",
		"CASE WHEN a = 1 THEN 2 ELSE 3 END = 2", "CAST(x AS INTEGER) = 1",
		"COALESCE(a, b, 0) > 1", "SUBSTR(x, 1, 2) = 'ab'",
		"STRFTIME('%Y', d) = '1999'", "-a = 1", "NOT (a = 1)",
	}
	unsafe := []string{
		"x IN (SELECT a FROM t)",     // subquery charges cost
		"EXISTS (SELECT 1 FROM t)",   // subquery
		"(SELECT MAX(a) FROM t) = x", // scalar subquery
		"COUNT(a) > 1",               // aggregate misuse errors
		"MAX(a) = 1",                 // single-arg MAX is the aggregate
		"NOSUCHFUNC(a) = 1",          // unknown function errors
		"SUBSTR(x) = 'a'",            // bad arity errors
		"STRFTIME('%H', d) = '12'",   // unsupported format errors
		"STRFTIME(fmt, d) = '1999'",  // non-literal format
	}
	// Each expression is read as Prepare compiled it, over a table with
	// every column the cases name.
	db := NewDatabase("safe")
	db.MustExec("CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER, d TEXT, x TEXT, fmt TEXT)")
	for _, s := range safe {
		if e := preparedSelect(t, db, "SELECT 1 FROM t WHERE "+s).Where; !exprSafeTotal(e) {
			t.Errorf("exprSafeTotal(%q) = false, want true", s)
		}
	}
	for _, s := range unsafe {
		if e := preparedSelect(t, db, "SELECT 1 FROM t WHERE "+s).Where; exprSafeTotal(e) {
			t.Errorf("exprSafeTotal(%q) = true, want false", s)
		}
	}
}

// TestPlanCache pins cache hits, misses and LRU eviction.
func TestPlanCache(t *testing.T) {
	db := NewDatabase("cache")
	db.MustExec("CREATE TABLE t (id INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1), (2)")
	base := db.PlanCacheStats()

	const q = "SELECT id FROM t WHERE id = 1"
	for i := 0; i < 5; i++ {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	st := db.PlanCacheStats()
	if hits := st.Hits - base.Hits; hits != 4 {
		t.Errorf("hits = %d, want 4", hits)
	}

	// Same statement prepared twice is the same cached object.
	s1, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("Prepare returned distinct Stmt objects for one statement text")
	}
}

// TestPlanCacheKeepsOnlyReads pins that writes never enter the plan
// cache: a corpus's construction statements run once, and caching them
// retained more heap than the rows they wrote. A write still parses,
// plans, runs and counts as a miss on every call.
func TestPlanCacheKeepsOnlyReads(t *testing.T) {
	db := NewDatabase("writes")
	db.MustExec("CREATE TABLE t (id INTEGER, name TEXT)")
	for i := 0; i < 200; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'n%d')", i, i))
	}
	db.MustExec("UPDATE t SET name = 'low' WHERE id < 100")
	db.MustExec("DELETE FROM t WHERE id >= 150")
	st := db.PlanCacheStats()
	if st.Entries != 0 {
		t.Fatalf("entries after 203 writes = %d, want 0", st.Entries)
	}
	if st.Misses != 203 || st.Hits != 0 {
		t.Errorf("hits/misses after 203 distinct writes = %d/%d, want 0/203", st.Hits, st.Misses)
	}

	// A repeated identical write runs every time.
	const ins = "INSERT INTO t VALUES (500, 'again')"
	for i := 0; i < 3; i++ {
		if _, hit, err := db.PrepareCached(ins); err != nil || hit {
			t.Fatalf("PrepareCached(%q) = hit %v, err %v; want a miss", ins, hit, err)
		}
		db.MustExec(ins)
	}
	if got := db.MustExec("SELECT COUNT(*) FROM t WHERE id = 500").Rows.Cell(0, 0); got != Int(3) {
		t.Errorf("rows from three identical INSERTs = %v, want 3", got)
	}

	const q = "SELECT name FROM t WHERE id = 4"
	s1, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("Prepare returned distinct Stmt objects for one SELECT")
	}
	if st := db.PlanCacheStats(); st.Entries != 2 {
		t.Errorf("entries = %d, want 2 (the COUNT and the SELECT)", st.Entries)
	}
}

// TestPreparedConcurrentExec exercises the plan cache and the lazy
// equality-index build under -race: one database, many goroutines, same
// and different statements.
func TestPreparedConcurrentExec(t *testing.T) {
	db := buildMultiDB(11, 40)
	queries := []string{
		"SELECT t.id, g.label FROM t JOIN g ON t.grp = g.grp WHERE t.flag = 1",
		"SELECT id FROM t WHERE grp = 'a'",
		"SELECT COUNT(*) FROM t JOIN acc ON acc.t_id = t.id",
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		r, err := db.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				qi := (w + i) % len(queries)
				r, err := db.Exec(queries[qi])
				if err != nil {
					errs <- err
					return
				}
				if r.Cost != want[qi].Cost || !rowsIdentical(r.Rows, want[qi].Rows) {
					errs <- fmt.Errorf("concurrent exec diverged for %q", queries[qi])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
