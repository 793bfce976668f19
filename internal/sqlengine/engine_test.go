package sqlengine

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestVectorizedPlannerMatrix is the engine's core equivalence guarantee:
// every combination of planner on/off and vectorized on/off (plus parallel
// workers) must produce byte-identical rows AND byte-identical logical
// Cost against the naive reference for the full planner battery.
// SetBatchTuning(1, 1) forces the batch path to engage even on the small
// fixtures, so every kernel in kernels.go is exercised against the
// interpreter on the same queries.
func TestVectorizedPlannerMatrix(t *testing.T) {
	// The tail queries run after the planner battery so its subtests keep
	// their numbers.
	queries := append(append([]string{}, crossCheckQueries...), tailCheckQueries...)
	for _, seed := range []int64{1, 7, 42} {
		naive := buildMultiDB(seed, 60)
		naive.SetPlanner(false)

		configs := []struct {
			name string
			db   *Database
		}{
			{"planned row-wise", func() *Database {
				db := buildMultiDB(seed, 60)
				db.SetVectorized(false)
				return db
			}()},
			{"planned vectorized serial", func() *Database {
				db := buildMultiDB(seed, 60)
				db.SetBatchTuning(1, 1)
				db.SetParallelism(1)
				return db
			}()},
			{"planned vectorized parallel", func() *Database {
				db := buildMultiDB(seed, 60)
				db.SetBatchTuning(1, 1)
				db.SetParallelism(4)
				return db
			}()},
			{"unplanned with vec flags set", func() *Database {
				// Planner off must ignore the vectorized machinery entirely:
				// identical to naive by construction, pinned here anyway.
				db := buildMultiDB(seed, 60)
				db.SetPlanner(false)
				db.SetBatchTuning(1, 1)
				db.SetParallelism(4)
				return db
			}()},
		}
		for _, cfg := range configs {
			for _, q := range queries {
				t.Run(fmt.Sprintf("seed%d/%s", seed, cfg.name), func(t *testing.T) {
					crossCheck(t, cfg.db, naive, q)
				})
			}
		}
	}
}

// engineQueries are the shapes that matter at scale: pushdown filter
// kernels, parallel hash-join probes, LEFT JOIN null extension, grouped
// aggregation, fast projection with ORDER BY/LIMIT. Subquery-free but for
// one uncorrelated EXISTS (evaluated once), so the big-input cross-check
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
	// COUNT(*) over a join behind a pushed negation and behind an unsafe
	// EXISTS, a negated single-table filter, and a join on INTEGER keys — grp
	// is TEXT, flag and weight are the only integer pair. Then the tail of a
	// join over more than one morsel of pairs.
	"SELECT COUNT(*) FROM f JOIN d ON f.grp = d.grp WHERE NOT (d.label = 'L1')",
	"SELECT COUNT(*) FROM f JOIN d ON (f.grp = d.grp) WHERE ((d.label = 'L2') AND EXISTS (SELECT 1 FROM f))",
	"SELECT SUM(flag) FROM f WHERE NOT (grp = 'a')",
	"SELECT COUNT(*) FROM f JOIN d ON f.flag = d.weight",
	"SELECT f.id, d.label FROM f LEFT JOIN d ON f.grp = d.grp ORDER BY d.weight DESC, f.id LIMIT 9",
	"SELECT d.label, COUNT(*), AVG(f.num) FROM f LEFT JOIN d ON f.grp = d.grp WHERE NOT (f.flag = 1) GROUP BY d.label",
}

// buildEngineDB bulk-loads a database big enough to cross the *default*
// batch and parallel thresholds — no tuning override, so the production
// engagement path is what gets tested.
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

// TestEngineCrossValidationAtScale cross-checks the batch engine against
// the naive executor on inputs large enough that morsel splitting, the
// worker pool, and the columnar scan kernels all engage with production
// thresholds.
func TestEngineCrossValidationAtScale(t *testing.T) {
	n := 12000
	if testing.Short() {
		n = 9000 // still > defMinParRows and > 2 morsels
	}
	vec := buildEngineDB(5, n)
	vec.SetParallelism(4)
	naive := buildEngineDB(5, n)
	naive.SetPlanner(false)
	rowwise := buildEngineDB(5, n)
	rowwise.SetVectorized(false)
	for _, q := range engineQueries {
		crossCheck(t, vec, naive, q)
		crossCheck(t, rowwise, naive, q)
	}
}

// TestResultReportsPhysicalExecution pins the Result.Batches/Workers
// contract: batch execution reports morsels, naive execution reports none,
// and Workers is always at least 1.
func TestResultReportsPhysicalExecution(t *testing.T) {
	vec := buildEngineDB(11, 9000)
	res := vec.MustExec("SELECT COUNT(*) FROM f WHERE num > 50")
	if res.Batches == 0 {
		t.Fatalf("batch scan reported 0 batches (workers=%d)", res.Workers)
	}
	if res.Workers < 1 {
		t.Fatalf("Workers = %d, want >= 1", res.Workers)
	}

	naive := buildEngineDB(11, 9000)
	naive.SetPlanner(false)
	res = naive.MustExec("SELECT COUNT(*) FROM f WHERE num > 50")
	if res.Batches != 0 || res.Workers != 1 {
		t.Fatalf("naive execution reported batches=%d workers=%d, want 0/1", res.Batches, res.Workers)
	}
}

// TestResultPath pins Result.Path: which consumer the tail of a vectorized
// single-table SELECT (positions/…) or hash join (pairs/…) ran on, which
// clause sent a candidate back to the row path, and plain "rows" for
// everything that never was a candidate.
func TestResultPath(t *testing.T) {
	vec := buildMultiDB(1, 60)
	vec.SetBatchTuning(1, 1)
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
		{"SELECT id FROM m WHERE a > (SELECT 1)", "rows(where)"},
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
		{"SELECT COUNT(*) FROM t JOIN g ON t.grp = g.grp WHERE NOT (g.label = 'L1')", "pairs/agg"},
		{"SELECT COUNT(*) FROM t JOIN g ON t.grp = g.grp WHERE g.label = 'L1' AND EXISTS (SELECT 1 FROM t)", "pairs/agg"},
		{"SELECT COUNT(*) FROM t JOIN g ON t.grp = g.grp JOIN acc ON acc.t_id = t.id", "pairs/agg"},
		{"SELECT g.label, SUM(t.num) FROM t JOIN g ON t.grp = g.grp GROUP BY g.label", "pairs/agg"},
		{"SELECT grp FROM t JOIN g ON t.grp = g.grp WHERE t.id = 99999", "rows(projection)"},
		{"SELECT t.id + 1 FROM t JOIN g ON t.grp = g.grp", "rows(projection)"},
		{"SELECT t.id FROM t JOIN g ON t.grp = g.grp ORDER BY t.num + g.weight", "rows(order-by)"},
		{"SELECT COUNT(DISTINCT g.label) FROM t JOIN g ON t.grp = g.grp", "rows(aggregate)"},
		{"SELECT t.id, g.weight FROM t JOIN g ON t.num > g.weight WHERE t.id < 12", "rows"},
		{"SELECT COUNT(*) FROM t CROSS JOIN g", "rows"},
		{"SELECT s.id FROM (SELECT id FROM m ORDER BY a LIMIT 2) AS s", "rows"},
		{"SELECT a FROM m UNION SELECT b FROM m", "rows"},
		{"SELECT 1", "rows"},
		{"INSERT INTO g VALUES ('q', 'Q', 1)", ""},
	} {
		if got := vec.MustExec(tc.sql).Path; got != tc.want {
			t.Errorf("vectorized %q: Path = %q, want %q", tc.sql, got, tc.want)
		}
	}

	// Below the batch threshold, with vectorization off and with the planner
	// off, nothing is a candidate.
	small := buildMultiDB(1, 60)
	rowwise := buildMultiDB(1, 60)
	rowwise.SetBatchTuning(1, 1)
	rowwise.SetVectorized(false)
	naive := buildMultiDB(1, 60)
	naive.SetBatchTuning(1, 1)
	naive.SetPlanner(false)
	for _, db := range []*Database{small, rowwise, naive} {
		if got := db.MustExec("SELECT id FROM m ORDER BY a DESC, id LIMIT 5").Path; got != "rows" {
			t.Errorf("Path = %q, want rows", got)
		}
	}
	// A hash join's output is pairs whatever its size, so vectorized
	// execution runs its tail on them below the batch threshold too; without
	// vectorization, and without the planner's hash join, it is rows.
	for db, want := range map[*Database]string{small: "pairs/agg", rowwise: "rows", naive: "rows"} {
		if got := db.MustExec("SELECT COUNT(*) FROM t JOIN g ON t.grp = g.grp").Path; got != want {
			t.Errorf("join Path = %q, want %q", got, want)
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

// TestJoinCountAllocations pins what pairs are for: counting a join of 10k
// probe rows builds no joined row, so it allocates for the key map, the
// chains and the per-morsel pair lists — a constant number of times, not
// once per joined row (the row-building join allocated over 6,000 times
// here).
func TestJoinCountAllocations(t *testing.T) {
	db := buildEngineDB(3, 10000)
	db.SetParallelism(1)
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
// exact size, with nothing per morsel.
func TestFilterAllocations(t *testing.T) {
	db := buildEngineDB(3, 10000)
	db.SetParallelism(1)
	tab, _ := db.Table("f")
	ec := &execCtx{db: db, vec: true}
	cols := scanCols("f", tab)
	preds := func(cond string) []rowPred {
		sel, err := ParseSelect("SELECT 1 FROM f WHERE " + cond)
		if err != nil {
			t.Fatal(err)
		}
		return compilePreds(&predSource{t: tab, cols: cols}, flattenAnd(sel.Where, nil))
	}
	bucket := selection{rows: tab.Rows, pos: tab.eqLookup(3, string(coarseKey(nil, Int(1))))}
	for _, tc := range []struct {
		cond     string
		in       selection
		maxBytes int // beyond the bitmask and the per-morsel bookkeeping
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
// was parsed. (It used to cost one strings.ToLower allocation per row.)
func TestInterpreterFilterAllocations(t *testing.T) {
	db := buildEngineDB(3, 10000)
	db.SetVectorized(false)
	st, err := db.Prepare("SELECT COUNT(*) FROM f WHERE NOT (`GRP` = 'a') AND F.NUM >= 0")
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	allocs := testing.AllocsPerRun(5, func() {
		res, err := st.Exec()
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
// Prepare/Exec against ONE shared database while morsel workers are live.
// Under -race this guards the shared plan cache, the lazily built
// point-lookup indexes and column vectors (all built on first use, so the
// goroutines race to build them), and the process-wide worker-token pool.
// Every result must equal the serially precomputed reference.
func TestEngineConcurrentQueryHammer(t *testing.T) {
	db := buildEngineDB(23, 10000)
	db.SetParallelism(4)

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
	// Reference pass on an identical database, serial and unplanned.
	ref := buildEngineDB(23, 10000)
	ref.SetPlanner(false)
	want := make([]*Result, len(queries))
	for i, q := range queries {
		r, err := ref.Exec(q)
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
				if res.Cost != want[qi].Cost {
					errCh <- fmt.Errorf("goroutine %d: Cost %d != %d for %q", g, res.Cost, want[qi].Cost, queries[qi])
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

// BenchmarkExecModes times one statement per batch mechanism — pushed
// comparison kernels, the hash-join probe on a TEXT key (coarseKey) and on
// an INTEGER key (the cell itself), grouped accumulators, a
// bounded top-k heap on a column that is not projected, ungrouped
// accumulators — under each execution mode: the naive executor (100k
// only: its nested-loop join takes minutes at 1M), the planned row-wise
// interpreter, and the vectorized path on one worker and on GOMAXPROCS
// workers, so `-cpu 1,2,4` sets N and vecN against vec1 at one -cpu is
// the parallel gain. The statements come from engineQueries, which
// TestEngineCrossValidationAtScale holds to identical rows and Cost in
// every mode: only ns/op and allocations differ.
func BenchmarkExecModes(b *testing.B) {
	queries := []struct{ name, sql string }{
		{"filter", "SELECT id FROM f WHERE num > 50 AND flag = 1"},
		{"join", "SELECT COUNT(*) FROM f JOIN d ON f.grp = d.grp"},
		{"join_int", "SELECT COUNT(*) FROM f JOIN d ON f.flag = d.weight"},
		{"agg", "SELECT grp, COUNT(*), SUM(num), AVG(num), MIN(num), MAX(num) FROM f GROUP BY grp ORDER BY grp"},
		{"topk", "SELECT id FROM f ORDER BY num DESC, id LIMIT 8"},
		{"scalar_agg", "SELECT AVG(num), SUM(flag), COUNT(grp), MIN(txt), MAX(num_text) FROM f"},
	}
	modes := []struct {
		name                string
		planner, vectorized bool
		workers             int // SetParallelism: 0 = GOMAXPROCS
	}{
		{"naive", false, false, 1},
		{"rowwise", true, false, 1},
		{"vec1", true, true, 1},
		{"vecN", true, true, 0},
	}
	sizes := []int{100_000}
	if !testing.Short() {
		sizes = append(sizes, 1_000_000)
	}
	for _, n := range sizes {
		// One level per size, so a -bench filter on 100k never builds 1M rows.
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			db := buildEngineDB(5, n)
			for _, q := range queries {
				if !slices.Contains(engineQueries, q.sql) {
					b.Fatalf("%s is not in engineQueries, so nothing holds its modes equivalent", q.name)
				}
				for _, m := range modes {
					if !m.planner && n > 100_000 {
						continue
					}
					b.Run(q.name+"/"+m.name, func(b *testing.B) {
						db.SetPlanner(m.planner)
						db.SetVectorized(m.vectorized)
						db.SetParallelism(m.workers)
						stmt, err := db.Prepare(q.sql)
						if err != nil {
							b.Fatal(err)
						}
						b.ReportAllocs()
						// A b.N loop, not b.Loop: testing (go 1.24) applies -cpu only
						// after a leaf's first run, which is b.Loop's only run.
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if _, err := stmt.Exec(); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		})
	}
}
