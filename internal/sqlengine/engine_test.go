package sqlengine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestVectorizedPlannerMatrix is the engine's core equivalence guarantee:
// the planned engine must produce byte-identical rows, the same error class
// and a Cost no greater than the naive reference's for the full planner
// battery, on 60-row fixtures — the size of BIRD's tables. The kernels run
// at every size, so every kernel in kernels.go is exercised against the
// interpreter on the same queries. The parallel config runs each query from
// 4 goroutines at once against one shared database: lazily built indexes
// and column vectors and the plan cache under concurrent Exec.
func TestVectorizedPlannerMatrix(t *testing.T) {
	// The tail queries run after the planner battery so its subtests keep
	// their numbers.
	queries := append(append([]string{}, crossCheckQueries...), tailCheckQueries...)
	for _, seed := range []int64{1, 7, 42} {
		shared := buildMultiDB(seed, 60)
		configs := []struct {
			name       string
			db         *Database
			goroutines int // > 1: run each query from this many at once
		}{
			// The names are kept from when a 1,024-row gate kept the
			// kernels off these fixtures unless a test hook forced them on.
			// Now "row-wise" and "vectorized serial" run the same engine on
			// two databases built alike, and "parallel" shares the serial
			// one.
			{"planned row-wise", buildMultiDB(seed, 60), 1},
			{"planned vectorized serial", shared, 1},
			{"planned vectorized parallel", shared, 4},
			// The reference on a second database built alike (goroutines 0):
			// identical to the shared one's by construction, Cost included,
			// pinned here anyway.
			{"unplanned with vec flags set", buildMultiDB(seed, 60), 0},
		}
		for _, cfg := range configs {
			for _, q := range queries {
				t.Run(fmt.Sprintf("seed%d/%s", seed, cfg.name), func(t *testing.T) {
					switch {
					case cfg.goroutines == 0:
						a, aerr := refExec(cfg.db, q)
						b, berr := refExec(shared, q)
						if fmt.Sprint(aerr) != fmt.Sprint(berr) || aerr == nil && (a.Cost != b.Cost || !rowsIdentical(a.Rows, b.Rows)) {
							t.Fatalf("two references built alike disagree on %q: %v %v / %v %v", q, a, aerr, b, berr)
						}
					case cfg.goroutines > 1:
						crossCheckConcurrent(t, cfg.db, q, cfg.goroutines)
					default:
						crossCheck(t, cfg.db, q)
					}
				})
			}
		}
	}
}

// engineQueries are the shapes that matter at scale: pushdown filter
// kernels, hash-join probes over thousands of left rows, LEFT JOIN null extension, grouped
// aggregation, gathered projection with ORDER BY/LIMIT. Subquery-free but
// for one uncorrelated EXISTS (evaluated once), so the big-input cross-check
// stays O(n).
var engineQueries = []string{
	"SELECT id FROM f WHERE num > 50 AND flag = 1",
	"SELECT id FROM f WHERE grp IN ('a', 'b') AND num BETWEEN 10 AND 70",
	"SELECT id FROM f WHERE txt LIKE 'x%' AND flag = 0",
	"SELECT id FROM f WHERE grp IS NULL",
	"SELECT COUNT(*) FROM f WHERE num_text < 500000",
	"SELECT f.id, d.label FROM f JOIN d ON f.grp = d.grp WHERE f.num < 20",
	"SELECT f.id, d.label FROM f LEFT JOIN d ON f.grp = d.grp WHERE d.label IS NULL",
	"SELECT f.id, d.label FROM f JOIN d ON f.grp = d.grp AND f.num > d.weight LIMIT 40",
	"SELECT COUNT(*) FROM f JOIN d ON f.grp = d.grp",
	"SELECT f.id FROM f JOIN d ON f.grp = d.grp ORDER BY f.id LIMIT 25",
	"SELECT grp, COUNT(*), SUM(num), AVG(num), MIN(num), MAX(num) FROM f GROUP BY grp ORDER BY grp",
	"SELECT f.grp, d.label, COUNT(*) FROM f JOIN d ON f.grp = d.grp GROUP BY f.grp, d.label ORDER BY 3 DESC, 1",
	"SELECT grp, COUNT(*) FROM f GROUP BY grp HAVING COUNT(*) > 100 ORDER BY 2 DESC, 1",
	"SELECT DISTINCT grp FROM f ORDER BY grp",
	"SELECT id, num, txt FROM f WHERE flag = 1 ORDER BY num DESC, id LIMIT 30",
	"SELECT * FROM f WHERE flag = 0 ORDER BY id LIMIT 10",
	// The positions tail over more than one morsel: top-k on a column that
	// is not projected, ungrouped and index-narrowed grouped accumulators,
	// DISTINCT under a window.
	"SELECT id FROM f ORDER BY num DESC, id LIMIT 8",
	"SELECT id, grp FROM f WHERE num > 90 ORDER BY grp DESC, txt LIMIT 12 OFFSET 5",
	"SELECT AVG(num), SUM(flag), COUNT(grp), MIN(txt), MAX(num_text) FROM f",
	"SELECT flag, COUNT(*), AVG(num) FROM f WHERE grp = 'a' GROUP BY flag",
	"SELECT DISTINCT grp, flag FROM f ORDER BY 1, 2 LIMIT 5 OFFSET 2",
	// The shapes the served SQL has (internal/server's TestServedSynthPaths):
	// COUNT(*) over a join behind a pushed negation and behind a pushed filter
	// beside an uncorrelated EXISTS, a negated single-table filter, and a join on INTEGER keys — grp
	// is TEXT, flag and weight are the only integer pair. Then the tail of a
	// join over more than one morsel of pairs.
	"SELECT COUNT(*) FROM f JOIN d ON f.grp = d.grp WHERE NOT (d.label = 'L1')",
	"SELECT COUNT(*) FROM f JOIN d ON (f.grp = d.grp) WHERE ((d.label = 'L2') AND EXISTS (SELECT 1 FROM f))",
	"SELECT SUM(flag) FROM f WHERE NOT (grp = 'a')",
	"SELECT COUNT(*) FROM f JOIN d ON f.flag = d.weight",
	"SELECT f.id, d.label FROM f LEFT JOIN d ON f.grp = d.grp ORDER BY d.weight DESC, f.id LIMIT 9",
	"SELECT d.label, COUNT(*), AVG(f.num) FROM f LEFT JOIN d ON f.grp = d.grp WHERE NOT (f.flag = 1) GROUP BY d.label",
	// An expression key: with HAVING above, the grouped shapes no consumer
	// takes, so the interpreter's tail groups every row (rows(group-by)).
	"SELECT num % 10, COUNT(*), SUM(num) FROM f GROUP BY num % 10",
	// Full sorts, as the served ORDER BY without LIMIT: packed words over a
	// REAL key then an INTEGER one, over two INTEGER keys, over a join's
	// pairs; the comparator for a key holding NULL and TEXT.
	"SELECT id FROM f ORDER BY num DESC, id",
	"SELECT id FROM f ORDER BY flag DESC, id",
	"SELECT id FROM f ORDER BY grp, id",
	"SELECT f.id FROM f JOIN d ON f.grp = d.grp ORDER BY d.weight DESC, f.id",
	// The served single-table filter beside an uncorrelated EXISTS, settled
	// apart from the kernels.
	"SELECT COUNT(*) FROM f WHERE ((num > 50) AND EXISTS (SELECT 1 FROM f))",
}

// buildEngineDB bulk-loads a database of n rows in f (and five in d): large
// enough for the at-scale cross-check and the benchmarks, small enough for
// the allocation pins.
func buildEngineDB(seed int64, n int) *Database {
	rng := rand.New(rand.NewSource(seed))
	db := NewDatabase("engine")
	db.MustExec("CREATE TABLE f (id INTEGER, grp TEXT, num REAL, flag INTEGER, txt TEXT, num_text TEXT)")
	db.MustExec("CREATE TABLE d (grp TEXT, label TEXT, weight INTEGER)")
	groups := []string{"a", "b", "c", "d", "e", "zz"}
	rows := make([][]Value, 0, n)
	for i := 0; i < n; i++ {
		g := Text(groups[rng.Intn(len(groups))])
		if rng.Intn(10) == 0 {
			g = Null()
		}
		txt := fmt.Sprintf("%c%03d", 'w'+rng.Intn(4), rng.Intn(1000))
		rows = append(rows, []Value{
			Int(int64(i)), g, Float(float64(rng.Intn(1000)) / 10),
			Int(int64(rng.Intn(2))), Text(txt), Text(fmt.Sprintf("%d", rng.Intn(1000000))),
		})
	}
	if _, err := db.BulkInsert("f", rows); err != nil {
		panic(err)
	}
	for i, g := range groups[:4] {
		db.MustExec(fmt.Sprintf("INSERT INTO d VALUES ('%s', 'L%d', %d)", g, i, i*10))
	}
	db.MustExec("INSERT INTO d VALUES (NULL, 'null-group', 99)")
	return db
}

// TestEngineCrossValidationAtScale cross-checks the planned engine against
// the naive executor on inputs of several morsels (Result.Batches' unit),
// where the column vectors, the typed kernels and the positions tail carry
// thousands of rows.
func TestEngineCrossValidationAtScale(t *testing.T) {
	n := 12000
	if testing.Short() {
		n = 9000 // still > 2 morsels
	}
	db := buildEngineDB(5, n)
	for _, q := range engineQueries {
		crossCheck(t, db, q)
	}
}

// TestResultReportsPhysicalExecution pins the Result.Batches/Workers
// contract: batch execution reports morsels, naive execution reports none,
// and Workers is always 1.
func TestResultReportsPhysicalExecution(t *testing.T) {
	vec := buildEngineDB(11, 9000)
	res := vec.MustExec("SELECT COUNT(*) FROM f WHERE num > 50")
	if res.Batches == 0 {
		t.Fatal("batch scan reported 0 batches")
	}
	if res.Workers != 1 {
		t.Fatalf("Workers = %d, want 1", res.Workers)
	}

	res, err := refExec(vec, "SELECT COUNT(*) FROM f WHERE num > 50")
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 0 || res.Workers != 1 {
		t.Fatalf("naive execution reported batches=%d workers=%d, want 0/1", res.Batches, res.Workers)
	}
}

// TestResultPath pins Result.Path: which consumer the tail of a planned
// SELECT ran on — over one relation's rows (positions/…: a table, a
// sub-select, a nested loop's output) or over a hash join's pairs (pairs/…)
// — which clause sent it to the interpreter's tail instead, and plain "rows"
// for what never reaches a consumer: compound arms and the naive reference.
func TestResultPath(t *testing.T) {
	db := buildMultiDB(1, 60)
	for _, tc := range []struct{ sql, want string }{
		{"SELECT id FROM m ORDER BY a DESC, id LIMIT 5", "positions/topk"},
		{"SELECT id FROM m WHERE a = 2 ORDER BY b LIMIT 3 OFFSET 1", "positions/topk"},
		{"SELECT id FROM m ORDER BY a", "positions/topk"},
		{"SELECT DISTINCT a FROM m ORDER BY 1 LIMIT 2", "positions/topk"},
		{"SELECT AVG(v) FROM m", "positions/agg"},
		{"SELECT COUNT(*) FROM m WHERE a = 1", "positions/agg"},
		{"SELECT a, COUNT(*) FROM m GROUP BY a ORDER BY 2 DESC LIMIT 1 + 1", "positions/agg"},
		{"SELECT id, v FROM m WHERE b > 0", "positions/gather"},
		{"SELECT * FROM m LIMIT 3", "positions/gather"},
		{"SELECT id FROM m WHERE a > (SELECT 1)", "positions/gather"},
		{"SELECT COUNT(*) FROM m WHERE a = 1 AND EXISTS (SELECT 1 FROM g)", "positions/agg"},
		{"SELECT id + 1 FROM m ORDER BY a LIMIT 3", "rows(projection)"},
		{"SELECT a + 1, COUNT(*) FROM m GROUP BY a", "rows(projection)"},
		{"SELECT id FROM m ORDER BY a + b LIMIT 3", "rows(order-by)"},
		{"SELECT a, COUNT(*) FROM m GROUP BY a ORDER BY COUNT(*)", "rows(order-by)"},
		{"SELECT id FROM m ORDER BY a LIMIT 1 + 2", "rows(limit)"},
		{"SELECT COUNT(DISTINCT a) FROM m", "rows(aggregate)"},
		{"SELECT COUNT(*) FROM m GROUP BY a + 1", "rows(group-by)"},
		{"SELECT a, COUNT(*) FROM m GROUP BY a HAVING COUNT(*) > 1", "rows(having)"},
		{"SELECT 1 FROM m WHERE a = 1", "positions/gather"},
		{"SELECT t.id FROM t JOIN g ON t.grp = g.grp LIMIT 2", "pairs/gather"},
		{"SELECT t.id, g.label FROM t LEFT JOIN g ON t.grp = g.grp ORDER BY g.weight DESC, t.id LIMIT 3", "pairs/topk"},
		{"SELECT COUNT(*) FROM t JOIN g ON t.grp = g.grp", "pairs/agg"},
		{"SELECT COUNT(*) FROM t JOIN g ON t.grp = g.grp WHERE NOT (g.label = 'L1')", "pairs/agg"},
		{"SELECT COUNT(*) FROM t JOIN g ON t.grp = g.grp WHERE g.label = 'L1' AND EXISTS (SELECT 1 FROM t)", "pairs/agg"},
		{"SELECT COUNT(*) FROM t JOIN g ON t.grp = g.grp JOIN acc ON acc.t_id = t.id", "pairs/agg"},
		{"SELECT g.label, SUM(t.num) FROM t JOIN g ON t.grp = g.grp GROUP BY g.label", "pairs/agg"},
		{"SELECT grp FROM t JOIN g ON t.grp = g.grp WHERE t.id = 99999", "rows(projection)"},
		{"SELECT t.id + 1 FROM t JOIN g ON t.grp = g.grp", "rows(projection)"},
		{"SELECT t.id FROM t JOIN g ON t.grp = g.grp ORDER BY t.num + g.weight", "rows(order-by)"},
		{"SELECT COUNT(DISTINCT g.label) FROM t JOIN g ON t.grp = g.grp", "rows(aggregate)"},
		// One-sided selections that are not a table's: a nested loop's rows,
		// a sub-select's, the single empty row of a SELECT without FROM.
		{"SELECT t.id, g.weight FROM t JOIN g ON t.num > g.weight WHERE t.id < 12", "positions/gather"},
		{"SELECT COUNT(*) FROM t CROSS JOIN g", "positions/agg"},
		{"SELECT s.id FROM (SELECT id FROM m ORDER BY a LIMIT 2) AS s", "positions/gather"},
		{"SELECT s.a, COUNT(*) FROM (SELECT a FROM m WHERE b > 0) AS s GROUP BY s.a", "positions/agg"},
		{"SELECT 1", "positions/gather"},
		{"SELECT a FROM m UNION SELECT b FROM m", "rows"},
		{"INSERT INTO g VALUES ('q', 'Q', 1)", ""},
	} {
		// Nothing in front of the tail looks at a table's size: the 60-row
		// fixture takes the paths a 100k-row table does, and the naive
		// reference is rows whatever the statement.
		naiveWant := ""
		if tc.want != "" {
			naiveWant = "rows"
		}
		if got := db.MustExec(tc.sql).Path; got != tc.want {
			t.Errorf("planned %q: Path = %q, want %q", tc.sql, got, tc.want)
		}
		if res, err := refExec(db, tc.sql); err != nil || res.Path != naiveWant {
			t.Errorf("naive %q: Path = %v (err %v), want %q", tc.sql, res, err, naiveWant)
		}
	}
}

// TestTopKAllocations pins late materialisation where it pays most: top-k
// over 10k rows may allocate for the heap and the k returned rows, never per
// scanned row (the row path allocates a key slice and a scope per row — over
// 20k here). Eight times the k must not change the count either: the rows
// share one backing array.
func TestTopKAllocations(t *testing.T) {
	db := buildEngineDB(3, 10000)
	allocs := func(sql string) float64 {
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if res, err := st.Exec(); err != nil || res.Path != "positions/topk" {
				t.Fatalf("%q: path %q, err %v", sql, res.Path, err)
			}
		})
	}
	k8 := allocs("SELECT id FROM f ORDER BY num DESC, id LIMIT 8")
	k64 := allocs("SELECT id FROM f ORDER BY num DESC, id LIMIT 64")
	if k8 > 32 || k64 > k8 {
		t.Errorf("top-k over 10k rows allocates %.0f times at k=8 and %.0f at k=64, want <= 32 and no growth with k", k8, k64)
	}
}

// TestSubGateAllocations pins that nothing in a planned statement looks at a
// table's size. At 60, 400 and 800 rows — BIRD's sizes, all below the
// 1,024-row gate that once kept them off the kernels — every filter runs
// through the kernels (Batches >= 1), and the selection it leaves is counted,
// summed, sorted through the heap and gathered in a constant number of
// allocations: the same at every size, and no more than the interpreter's
// filter took here behind that gate (23, 26, 16 and 22).
func TestSubGateAllocations(t *testing.T) {
	queries := []struct {
		sql  string
		most float64
	}{
		{"SELECT COUNT(*) FROM f WHERE grp = 'a'", 23},
		{"SELECT SUM(num) FROM f WHERE flag = 1", 26},
		{"SELECT id FROM f ORDER BY num DESC, id LIMIT 8", 16},
		{"SELECT id, num FROM f WHERE num > 90", 22},
	}
	allocs := func(n int) []float64 {
		db := buildEngineDB(5, n)
		out := make([]float64, len(queries))
		for i, q := range queries {
			st, err := db.Prepare(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			filters := strings.Contains(q.sql, "WHERE")
			out[i] = testing.AllocsPerRun(10, func() {
				if res, err := st.Exec(); err != nil || len(res.Rows.Data) == 0 || (res.Batches > 0) != filters {
					t.Fatalf("%q over %d rows: %d batches, err %v, want rows, and batches iff it filters", q.sql, n, res.Batches, err)
				}
			})
		}
		return out
	}
	at60 := allocs(60)
	for _, n := range []int{400, 800} {
		at := allocs(n)
		for i, q := range queries {
			if at[i] != at60[i] || at[i] > q.most {
				t.Errorf("%q allocates %.0f times over 60 rows and %.0f over %d, want the same number, at most %.0f", q.sql, at60[i], at[i], n, q.most)
			}
		}
	}
}

// TestLimitWindowIsExact pins that a LIMIT window is a slice of its own: a
// result that someone retains (the judge's gold cache) must not keep every
// sorted row the window dropped alive behind it. The interpreter's tail used
// to return a sub-slice of its whole output. Three ways into that tail — the
// naive reference, an ORDER BY expression, a compound — and the consumers.
func TestLimitWindowIsExact(t *testing.T) {
	db := buildEngineDB(5, 800)
	for _, sql := range []string{
		"SELECT id FROM f ORDER BY num DESC, id LIMIT 8",
		"SELECT id FROM f ORDER BY num + flag, id LIMIT 3",
		"SELECT id FROM f WHERE flag = 1 UNION SELECT id FROM f WHERE flag = 0 ORDER BY 1 LIMIT 5 OFFSET 2",
	} {
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		for name, exec := range map[string]func() (*Result, error){"planned": st.Exec, "naive": st.ExecReference} {
			res, err := exec()
			if err != nil {
				t.Fatal(err)
			}
			if data := res.Rows.Data; len(data) == 0 || cap(data) != len(data) {
				t.Errorf("%s %q: %d rows in a slice of capacity %d, want a window of its own", name, sql, len(data), cap(data))
			}
		}
	}
}

// TestJoinCountAllocations pins what pairs are for: counting a join of 10k
// probe rows builds no joined row, so it allocates for the key map, the
// chains and the one pair list — a constant number of times, not once per
// joined row (the row-building join allocated over 6,000 times here).
func TestJoinCountAllocations(t *testing.T) {
	db := buildEngineDB(3, 10000)
	for _, sql := range []string{
		"SELECT COUNT(*) FROM f JOIN d ON f.grp = d.grp",
		"SELECT COUNT(*) FROM f JOIN d ON f.flag = d.weight",
	} {
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if res, err := st.Exec(); err != nil || res.Path != "pairs/agg" {
				t.Fatalf("%q: path %q, err %v", sql, res.Path, err)
			}
		})
		if allocs > 64 {
			t.Errorf("%q allocates %.0f times over 10k probe rows, want <= 64", sql, allocs)
		}
	}
}

// TestFilterAllocations pins filterPositions' output: a filter every selected
// row passes returns its input — here a 4k-position index bucket re-verified
// whole — and a filter that thins it allocates the survivors once, at their
// exact size.
func TestFilterAllocations(t *testing.T) {
	db := buildEngineDB(3, 10000)
	tab, _ := db.Table("f")
	ec := &execCtx{db: db}
	cols := scanCols("f", tab)
	preds := func(cond string) []rowPred {
		sel, err := ParseSelect("SELECT 1 FROM f WHERE " + cond)
		if err != nil {
			t.Fatal(err)
		}
		var preds []rowPred
		for _, e := range flattenAnd(sel.Where, nil) {
			preds = append(preds, compilePred(predSource{t: tab, cols: cols}, e))
		}
		return preds
	}
	pos, _ := tab.eqLookup(3, string(coarseKey(nil, Int(1))))
	bucket := selection{rows: tab.Rows, pos: pos}
	for _, tc := range []struct {
		cond     string
		in       selection
		maxBytes int // beyond the bitmask
	}{
		{"flag = 1", bucket, 0},
		{"num >= 0", selection{rows: tab.Rows, all: true}, 0},
		{"flag = 1 AND num > 50", bucket, 8 * bucket.len()},
	} {
		p := preds(tc.cond)
		var out selection
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			if out, err = ec.filterPositions(cols, tc.in, p, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("%s over %d rows allocates %.0f times, want <= 8", tc.cond, tc.in.len(), allocs)
		}
		switch {
		case tc.maxBytes == 0 && (out.len() != tc.in.len() || out.all != tc.in.all || (len(out.pos) > 0 && &out.pos[0] != &tc.in.pos[0])):
			t.Errorf("%s passes every row but did not return its input selection", tc.cond)
		case tc.maxBytes > 0 && (out.len() == 0 || out.len() >= tc.in.len() || cap(out.pos) != out.len()):
			t.Errorf("%s kept %d of %d rows in a list of capacity %d, want an exact-size list of some", tc.cond, out.len(), tc.in.len(), cap(out.pos))
		}
	}
}

// TestInterpreterFilterAllocations pins case folding: an interpreted filter
// over a column the statement spells in upper case resolves it against the
// lower-cased scope without allocating per row — the name was folded when it
// was parsed. (It used to cost one strings.ToLower allocation per row.) The
// naive reference is where the interpreter filters 10k rows.
func TestInterpreterFilterAllocations(t *testing.T) {
	db := buildEngineDB(3, 10000)
	st, err := db.Prepare("SELECT COUNT(*) FROM f WHERE NOT (`GRP` = 'a') AND F.NUM >= 0")
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	allocs := testing.AllocsPerRun(5, func() {
		res, err := st.ExecReference()
		if err != nil {
			t.Fatal(err)
		}
		rows = res.Rows.Data[0][0].I
	})
	// The interpreter's tail still allocates a scope per surviving row; the
	// filter itself must add nothing per scanned row.
	if perRow := (allocs - float64(rows)) / 10000; rows == 0 || perRow > 0.01 {
		t.Errorf("interpreted filter allocates %.0f times for %d surviving of 10000 rows: %.3f per scanned row beyond the survivors' scopes, want 0", allocs, rows, perRow)
	}
}

// TestEngineConcurrentQueryHammer runs 8 goroutines of concurrent
// Prepare/Exec against ONE shared database. Under -race this guards the
// shared plan cache and the lazily built point-lookup indexes and column
// vectors (all built on first use, so the goroutines race to build them).
// Every result must hold to the serially precomputed reference: its rows,
// at no greater Cost.
func TestEngineConcurrentQueryHammer(t *testing.T) {
	db := buildEngineDB(23, 10000)

	queries := []string{
		"SELECT COUNT(*) FROM f WHERE num > 50 AND flag = 1",
		"SELECT f.grp, COUNT(*), SUM(f.num) FROM f JOIN d ON f.grp = d.grp GROUP BY f.grp ORDER BY f.grp",
		"SELECT id FROM f WHERE id = 4321",
		"SELECT f.id, d.label FROM f JOIN d ON f.grp = d.grp ORDER BY f.id LIMIT 20",
		"SELECT grp, MIN(num), MAX(num) FROM f GROUP BY grp ORDER BY grp",
		"SELECT COUNT(*) FROM f WHERE txt LIKE 'x%'",
		"SELECT id FROM f ORDER BY num DESC, id LIMIT 8",
		"SELECT AVG(num) FROM f WHERE flag = 1",
	}
	// Reference pass, serial and unplanned.
	want := make([]*Result, len(queries))
	for i, q := range queries {
		r, err := refExec(db, q)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		want[i] = r
	}

	iters := 20
	if testing.Short() {
		iters = 6
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				qi := (g + it) % len(queries)
				st, err := db.Prepare(queries[qi])
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d prepare %q: %w", g, queries[qi], err)
					return
				}
				res, err := st.Exec()
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d exec %q: %w", g, queries[qi], err)
					return
				}
				if !rowsIdentical(res.Rows, want[qi].Rows) {
					errCh <- fmt.Errorf("goroutine %d: rows diverged for %q", g, queries[qi])
					return
				}
				if res.Cost > want[qi].Cost {
					errCh <- fmt.Errorf("goroutine %d: Cost %d over the reference's %d for %q", g, res.Cost, want[qi].Cost, queries[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// BenchmarkExecModes times one statement per mechanism of the planned engine
// — pushed comparison kernels, the hash-join probe on a TEXT key (coarseKey)
// and on an INTEGER key (the cell itself), the grouped accumulators of the
// aggregate consumer, a bounded top-k heap on a column that is not projected,
// ungrouped accumulators, a full sort through packed words, a negated TEXT
// comparison read from the rows, the served filter and join each beside an
// uncorrelated EXISTS (settled once, its body asked for one row) — and the
// two grouped shapes no consumer takes, HAVING and an expression key, which
// the interpreter's tail groups.
// Modes: the naive executor (to 100k only: its nested-loop join takes minutes
// at 1M) and the planned engine (planned1). Every size runs the same engine:
// the 60-row level is a BIRD fixture table's size and the 800-row one a
// larger dev table's, and at both the kernels filter and the probe runs in
// one range, as at 100k. The statements come from engineQueries, which
// TestEngineCrossValidationAtScale holds to identical rows: ns/op,
// allocations and Cost differ.
func BenchmarkExecModes(b *testing.B) {
	type query struct{ name, sql string }
	var (
		filter  = query{"filter", "SELECT id FROM f WHERE num > 50 AND flag = 1"}
		topk    = query{"topk", "SELECT id FROM f ORDER BY num DESC, id LIMIT 8"}
		join    = query{"join", "SELECT COUNT(*) FROM f JOIN d ON f.grp = d.grp"}
		notText = query{"not_text", "SELECT SUM(flag) FROM f WHERE NOT (grp = 'a')"}
		exists  = query{"exists", "SELECT COUNT(*) FROM f WHERE ((num > 50) AND EXISTS (SELECT 1 FROM f))"}
		existsJ = query{"exists_join", "SELECT COUNT(*) FROM f JOIN d ON (f.grp = d.grp) WHERE ((d.label = 'L2') AND EXISTS (SELECT 1 FROM f))"}
		tiny    = []query{filter, notText, join, topk, exists, existsJ}
		small   = []query{filter, topk, {"scalar_agg", "SELECT AVG(num), SUM(flag), COUNT(grp), MIN(txt), MAX(num_text) FROM f"}, exists, existsJ}
		large   = append([]query{
			join,
			{"join_int", "SELECT COUNT(*) FROM f JOIN d ON f.flag = d.weight"},
			{"agg", "SELECT grp, COUNT(*), SUM(num), AVG(num), MIN(num), MAX(num) FROM f GROUP BY grp ORDER BY grp"},
			{"having", "SELECT grp, COUNT(*) FROM f GROUP BY grp HAVING COUNT(*) > 100 ORDER BY 2 DESC, 1"},
			{"group_expr", "SELECT num % 10, COUNT(*), SUM(num) FROM f GROUP BY num % 10"},
			{"order_all", "SELECT id FROM f ORDER BY num DESC, id"},
			notText,
		}, small...)
	)
	modes := []struct {
		name    string
		planner bool
	}{
		{"naive", false},
		{"planned1", true},
	}
	type size struct {
		name    string
		n       int
		queries []query
	}
	sizes := []size{{"60", 60, tiny}, {"800", 800, small}, {"100k", 100_000, large}}
	if !testing.Short() {
		sizes = append(sizes, size{"1000k", 1_000_000, large})
	}
	for _, size := range sizes {
		// One level per size, so a -bench filter on 100k never builds 1M rows.
		b.Run(size.name, func(b *testing.B) {
			db := buildEngineDB(5, size.n)
			for _, q := range size.queries {
				if !slices.Contains(engineQueries, q.sql) {
					b.Fatalf("%s is not in engineQueries, so nothing holds its modes equivalent", q.name)
				}
				for _, m := range modes {
					if !m.planner && size.n > 100_000 {
						continue
					}
					b.Run(q.name+"/"+m.name, func(b *testing.B) {
						stmt, err := db.Prepare(q.sql)
						if err != nil {
							b.Fatal(err)
						}
						exec := stmt.Exec
						if !m.planner {
							exec = stmt.ExecReference
						}
						b.ReportAllocs()
						// A b.N loop, not b.Loop: testing (go 1.24) applies -cpu only
						// after a leaf's first run, which is b.Loop's only run.
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if _, err := exec(); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		})
	}
}
