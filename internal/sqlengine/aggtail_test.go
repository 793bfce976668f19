package sqlengine

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestValueSetMatchesKey pins valueSet, the set a DISTINCT aggregate
// keeps, to Value.Key's equality — evalAggregate's — over values of every
// storage class: an integral REAL is its integer (-0.0 is 0) below 1e15,
// any other REAL itself, every NaN alike, and TEXT never a number; and a
// value of one group is not one of another's.
func TestValueSetMatchesKey(t *testing.T) {
	vals := []Value{
		Null(), Int(0), Int(1), Int(-1), Int(1e15), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(-1), Float(1.5), Float(1e15 - 1), Float(1e15), Float(-1e15),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000abc)),
		Text(""), Text("0"), Text("1"), Text("i1"), Text("a"), Text("a\x00"),
	}
	for _, a := range vals {
		for _, b := range vals {
			var vs valueSet
			if !vs.add(3, a) {
				t.Fatalf("%v is not new in an empty set", a)
			}
			if got, want := !vs.add(3, b), a.Key() == b.Key(); got != want {
				t.Errorf("after %v, %v is in the set: %v; Key says %v", a, b, got, want)
			}
			if !vs.add(4, a) {
				t.Errorf("%v of group 3 is in group 4", a)
			}
		}
	}
}

// groupFixture is a table of n rows in about groups groups of every key
// form an aggregate tail has: i INTEGER, cd TEXT — coded once the table is
// frozen, up to groups strings — pl TEXT with a string a row (too many to
// code), r REAL and m mixed, each NULL one row in seven.
func groupFixture(n, groups int) *Database {
	db := NewDatabase("groups")
	db.MustExec("CREATE TABLE g (id INTEGER, i INTEGER, cd TEXT, pl TEXT, r REAL, m TEXT)")
	rows := make([][]Value, n)
	for p := range rows {
		k := (p * 7919) % groups
		rows[p] = []Value{Int(int64(p)), Int(int64(k)), Text(fmt.Sprintf("c%d", k%(groups/4+1))), Text(fmt.Sprintf("p%d", p)), Float(float64(k) / 2), Int(int64(k))}
		if k%2 == 1 {
			rows[p][5] = Text(fmt.Sprint(k))
		}
		if p%7 == 3 {
			rows[p][1+p%5] = Null()
		}
	}
	if _, err := db.BulkInsert("g", rows); err != nil {
		panic(err)
	}
	db.Freeze()
	return db
}

// groupQueries group by every key form, with DISTINCT aggregates, HAVING,
// expressions and ORDER BY over groups, over every row, behind a filter and
// an index bucket, and over a hash join's pairs.
var groupQueries = []string{
	"SELECT i, COUNT(*), SUM(r), COUNT(DISTINCT cd) FROM g GROUP BY i",
	"SELECT cd, COUNT(*), MAX(i / r), COUNT(DISTINCT pl) FROM g GROUP BY cd",
	"SELECT pl, COUNT(*), MIN(m) FROM g GROUP BY pl HAVING COUNT(*) > 0",
	"SELECT r, COUNT(*), AVG(i * 2) FROM g GROUP BY r ORDER BY COUNT(*) DESC, 1 LIMIT 5",
	"SELECT m, COUNT(DISTINCT m) FROM g GROUP BY m ORDER BY 2, m",
	"SELECT i, cd, COUNT(*) FROM g GROUP BY i, cd HAVING SUM(id) > 10",
	"SELECT cd, COUNT(*) FROM g WHERE cd = 'c1' GROUP BY cd",
	// A coded key over fewer rows than its dictionary has words keys its words.
	"SELECT b.cd, COUNT(*), MIN(b.id) FROM g a JOIN g b ON a.i = b.i WHERE a.id < 10 GROUP BY b.cd",
	"SELECT cd, SUM(i) FROM g WHERE i > 3 GROUP BY cd ORDER BY SUM(i) DESC LIMIT 2",
	"SELECT COUNT(DISTINCT i), COUNT(DISTINCT cd), COUNT(DISTINCT r), COUNT(DISTINCT m), SUM(DISTINCT i) FROM g WHERE id > 5",
	// Columns outside GROUP BY, read at each group's first row, and the one
	// group of no rows, whose first row is all NULL.
	"SELECT cd, COUNT(*) FROM g GROUP BY cd HAVING id % 2 = 0 ORDER BY pl DESC LIMIT 3",
	"SELECT COUNT(*), MAX(id) + 1, id, pl || 'x' FROM g WHERE id < 0 HAVING id IS NULL",
	"SELECT DISTINCT i % 3, COUNT(*) > 5 FROM g GROUP BY i ORDER BY 1, 2 DESC",
	// Stars in a grouped select list read each group's first row, the empty
	// group's all NULL: over a table, and either side of a join's pairs,
	// where a LEFT JOIN's unmatched right side is NULL too.
	"SELECT * FROM g GROUP BY cd",
	"SELECT *, COUNT(*) FROM g WHERE 1 = 0",
	"SELECT a.*, COUNT(*) FROM g a JOIN g b ON a.id = b.id GROUP BY b.cd",
	"SELECT b.*, SUM(a.i) FROM g a JOIN g b ON a.i = b.id GROUP BY a.pl HAVING COUNT(*) > 0 ORDER BY a.pl DESC LIMIT 20",
	"SELECT b.*, COUNT(*) FROM g a LEFT JOIN g b ON a.pl = b.cd GROUP BY a.i",
}

// TestGroupKeyForms holds every key form to the naive reference, on a
// frozen table, at a few sizes of groups.
func TestGroupKeyForms(t *testing.T) {
	for _, groups := range []int{4, 50, 400} {
		db := groupFixture(1200, groups)
		for _, q := range groupQueries {
			crossCheck(t, db, q)
			want := "positions/agg"
			if strings.Contains(q, " JOIN ") {
				want = "pairs/agg"
			}
			if res := db.MustExec(q); res.Path != want {
				t.Errorf("%s: path %s, want %s", q, res.Path, want)
			}
		}
	}
}

// TestGroupKeyAllocations pins that a group's key allocates nothing where
// it is one INTEGER, coded TEXT or plain TEXT column, nor a DISTINCT
// aggregate's value: 16,000 rows in as many groups allocate what 2,000
// rows in 2,000 groups do but for the growth of the maps, which grow a
// table of slots at a time, and of the arrays — under one allocation per
// 64 groups, where a key or a value of its own would be one per group. The
// HAVING keeps one group's row, so that the result is the same size.
func TestGroupKeyAllocations(t *testing.T) {
	queries := []string{
		"SELECT i, COUNT(*) FROM g GROUP BY i HAVING i = 1",
		"SELECT cd, COUNT(*) FROM g GROUP BY cd HAVING cd = 'c1'",
		"SELECT pl, COUNT(*) FROM g GROUP BY pl HAVING pl = 'p1'",
		"SELECT COUNT(DISTINCT pl) FROM g",
	}
	allocsAt := func(n int) []float64 {
		db := groupFixture(n, n)
		out := make([]float64, len(queries))
		for k, q := range queries {
			st, err := db.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			out[k] = testing.AllocsPerRun(3, func() {
				if _, err := st.Exec(); err != nil {
					t.Fatal(err)
				}
			})
		}
		return out
	}
	few, many := allocsAt(2_000), allocsAt(16_000)
	for k, q := range queries {
		t.Logf("%s: %.0f allocations over 2,000 groups, %.0f over 16,000", q, few[k], many[k])
		if many[k]-few[k] > (16_000-2_000)/64 {
			t.Errorf("%s: %.0f allocations over 2,000 groups, %.0f over 16,000", q, few[k], many[k])
		}
	}
}

// TestFoldAllocations pins that the filter or hash-join probe before an
// aggregate tail folds the rows it keeps into the tail a selection vector
// at a time and lists none: an aggregate over a filtered table or a join
// allocates the same bytes over 10k rows and 100k.
func TestFoldAllocations(t *testing.T) {
	queries := []struct{ sql, path string }{
		{"SELECT SUM(num) FROM f WHERE NOT (grp = 'a')", "positions/agg"},
		{"SELECT AVG(num), MIN(txt), MAX(id), COUNT(grp), TOTAL(flag) FROM f WHERE num > 10", "positions/agg"},
		{"SELECT grp, COUNT(*), SUM(num) FROM f WHERE flag = 1 GROUP BY grp", "positions/agg"},
		{"SELECT MAX(f.num * d.weight) FROM f JOIN d ON f.grp = d.grp", "pairs/agg"},
		{"SELECT d.label, COUNT(*) FROM f JOIN d ON f.grp = d.grp GROUP BY d.label ORDER BY COUNT(*) DESC LIMIT 1", "pairs/agg"},
	}
	bytesAt := func(n int) []float64 {
		db := buildEngineDB(3, n)
		out := make([]float64, len(queries))
		for i, q := range queries {
			st, err := db.Prepare(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = bytesPerRun(5, func() {
				if res, err := st.Exec(); err != nil || res.Path != q.path || res.Rows.Len() == 0 {
					t.Fatalf("%q over %d rows: %v, err %v, want rows on %s", q.sql, n, res, err, q.path)
				}
			})
		}
		return out
	}
	at10k, at100k := bytesAt(10_000), bytesAt(100_000)
	for i, q := range queries {
		if d := at100k[i] - at10k[i]; d > 1024 || d < -1024 {
			t.Errorf("%q allocates %.0f B over 10k rows and %.0f B over 100k, want the same within 1 KiB", q.sql, at10k[i], at100k[i])
		}
	}
}

// TestAggPlanExact pins that a cached aggregate plan keeps no spare room:
// three columns, three aggregates, three output columns and three ORDER BY
// terms, which appends leave at a capacity of four, and expression
// aggregates whose calls outgrow theirs.
func TestAggPlanExact(t *testing.T) {
	db := groupFixture(10, 4)
	sql := "SELECT SUM(r) + 1, MIN(cd) || 'x', MAX(pl) FROM g GROUP BY i ORDER BY 1, 2, 3"
	ap := preparedSelect(t, db, sql).bound.plan.aggTail
	for name, lc := range map[string][2]int{
		"cols":  {len(ap.cols), cap(ap.cols)},
		"accs":  {len(ap.accs), cap(ap.accs)},
		"items": {len(ap.items), cap(ap.items)},
		"order": {len(ap.order), cap(ap.order)},
		"calls": {len(ap.calls), cap(ap.calls)},
	} {
		if lc[0] != lc[1] || lc[0] < 2 {
			t.Errorf("%s: %s holds %d of room for %d, want at least 2, exactly", sql, name, lc[0], lc[1])
		}
	}
}
