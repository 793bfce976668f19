package sqlengine

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// joinCase generates two small tables and one SELECT over their join.
// Each table has a key column of every affinity — ki INTEGER, kr REAL, kt
// TEXT — filled from a palette of NULL, integers, reals, negative zero and
// numeric-looking and plain text, so that what reaches the join after the
// column's coercion covers INTEGER-only keys (the int64 map), mixed kinds
// and every cross-kind match harmonise makes (1 = 1.0 = '1' = '01',
// -0.0 = 0 = '-0'). The ON clause joins any key column to any other, with
// or without a second equality and a residual; the join is inner or LEFT;
// WHERE is absent, pushed to either side, negated, an uncorrelated EXISTS
// (alone, behind a pushed filter, behind a residual one that may be NULL,
// or false in front of one), the right side's IS NULL or a cross-side
// comparison; and selectAround puts every tail around it, over columns of
// both sides (the right side's under a null extension too).
func joinCase(p *picker) (inserts []string, query string) {
	// The query is chosen before the rows, so that a short byte string — an
	// exhausted picker answers 0 from then on — still reaches every clause.
	kcols := []string{"ki", "kr", "kt"}
	on := "l." + p.of(kcols...) + " = r." + p.of(kcols...)
	on += p.of("", "", " AND r.kr = l.kr", " AND l.id > r.w", " AND r.w IS NOT NULL", " AND l.id = l.id", " AND NOT (r.w = 1)")
	from := " FROM l " + p.of("JOIN", "LEFT JOIN") + " r ON " + on
	from += p.of("", "", " WHERE l.ki = 1", " WHERE w = 1", " WHERE NOT (w = 1)", " WHERE NOT (l.kt = 'x')",
		" WHERE EXISTS (SELECT 1 FROM r)", " WHERE l.id > 0 AND NOT EXISTS (SELECT 1 FROM l WHERE v = 7)",
		" WHERE w IS NULL", " WHERE l.ki > w", " WHERE NOT (tag BETWEEN 1 AND 3) AND l.v IN (0, 1, NULL)",
		" WHERE w > 5 AND EXISTS (SELECT 1 FROM l)", " WHERE EXISTS (SELECT 1 FROM r WHERE w > 100) AND l.ki = 1")
	query = selectAround(p, tailCols{id: "id", a: "l.ki", b: "tag", c: "r.kt", qa: "r.kr"}, from)

	keys := []string{"1", "NULL", "0", "2", "1.5", "-0.0", "'1'", "'01'", "'1.0'", "'x'", "''"}
	vals := []string{"1", "NULL", "0", "2", "1.5", "'x'"}
	for i, n := 0, 1+p.pick(12); i < n; i++ {
		inserts = append(inserts, fmt.Sprintf("INSERT INTO l VALUES (%d, %s, %s, %s, %s)", i, p.of(keys...), p.of(keys...), p.of(keys...), p.of(vals...)))
	}
	for i, n := 0, 1+p.pick(9); i < n; i++ {
		inserts = append(inserts, fmt.Sprintf("INSERT INTO r VALUES (%s, %s, %s, %s, %d)", p.of(keys...), p.of(keys...), p.of(keys...), p.of(vals...), i))
	}
	if p.pick(8) == 7 {
		inserts = append(inserts, "DELETE FROM r") // an empty side: ON is never evaluated
	}
	return inserts, query
}

// checkJoinCase runs the generated query in the planned engine against the
// naive executor, as checkTailCase does.
func checkJoinCase(t *testing.T, data []byte) {
	t.Helper()
	inserts, query := joinCase(&picker{data: data})
	checkAgainstNaive(t, append([]string{
		"CREATE TABLE l (id INTEGER, ki INTEGER, kr REAL, kt TEXT, v INTEGER)",
		"CREATE TABLE r (ki INTEGER, kr REAL, kt TEXT, w INTEGER, tag INTEGER)",
	}, inserts...), query, false)
}

// Property: whatever the two tables hold, however they are joined and
// filtered and whatever tail the query has, the planned engine returns the
// naive executor's rows, in its order, at no greater Cost.
func TestJoinEquivalenceProperty(t *testing.T) {
	f := func(data []byte) bool {
		checkJoinCase(t, data)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// FuzzSelectJoin is the differential fuzz target for joins: fuzzer bytes
// choose both tables' contents and the query (joinCase), and the planned
// engine must agree with the naive executor without panicking.
func FuzzSelectJoin(f *testing.F) {
	// COUNT(*) over l LEFT JOIN r ON l.ki = r.kt (INTEGER cells against
	// TEXT '1' and '01') WHERE NOT (w = 1): three left rows, one NULL-keyed;
	// two right rows. ON columns, residual, join, WHERE, tail kind, two
	// aggregates, GROUP BY, DISTINCT, LIMIT, expression aggregate, HAVING,
	// most-rows order; then the rows.
	f.Add([]byte{0, 2, 0, 1, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 6, 0, 3, 1, 7, 1, 1, 0, 0, 0, 1, 6, 0, 6, 0, 0, 0, 7, 2, 0})
	// INTEGER-only keys on both sides (the int64 map): l.ki = r.ki AND
	// l.id > r.w behind the uncorrelated EXISTS, l.ki and tag ordered by tag DESC
	// LIMIT 3 OFFSET 1, four left rows against three right.
	f.Add([]byte{0, 0, 3, 0, 6, 1, 3, 1, 1, 1, 1, 0, 1, 1, 3, 0, 0, 0, 0, 2, 2, 2, 1, 3, 0, 0, 2, 0, 1, 1, 3, 2, 0, 0, 0, 0, 3, 3, 0, 1, 2, 2, 2, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkJoinCase(t, data)
	})
}

// TestJoinKeyPaths pins which of the two key forms a join builds: the cell
// itself only when both key columns hold nothing but INTEGER and NULL, and
// coarseKey as soon as either holds anything else — a REAL that equals an
// integer must still find it.
func TestJoinKeyPaths(t *testing.T) {
	ints := [][]Value{{Int(1)}, {Null()}, {Int(-7)}}
	mixed := [][]Value{{Int(1)}, {Float(1)}, {Text("1")}}
	for _, tc := range []struct {
		left, right [][]Value
		conds       int
		wantInts    bool
	}{
		{ints, ints, 1, true},
		{ints, nil, 1, true},
		{ints, mixed, 1, false},
		{mixed, ints, 1, false},
		{ints, ints, 2, false},
	} {
		cols := make([]int, tc.conds)
		l, r := selection{src: rel{rows: tc.left}, all: true}, selection{src: rel{rows: tc.right}, all: true}
		if got := newJoinKeys(&l, &r, l.colsAt(nil, cols), r.colsAt(nil, cols)).ints != nil; got != tc.wantInts {
			t.Errorf("newJoinKeys(%v, %v, %d conditions): keyed on the cell = %v, want %v", tc.left, tc.right, tc.conds, got, tc.wantInts)
		}
	}

	db := NewDatabase("keys")
	db.MustExec("CREATE TABLE a (x INTEGER)")
	db.MustExec("CREATE TABLE b (y REAL, z TEXT)")
	db.MustExec("INSERT INTO a VALUES (1), (2), (NULL), (9007199254740993)")
	db.MustExec("INSERT INTO b VALUES (1.0, '2'), (2.0, '01'), (NULL, NULL), (9007199254740992.0, 'x')")
	for _, tc := range []struct {
		sql  string
		want [][]Value
	}{
		{"SELECT a.x, b.y FROM a JOIN b ON a.x = b.y", [][]Value{{Int(1), Float(1)}, {Int(2), Float(2)}, {Int(9007199254740993), Float(9007199254740992)}}},
		{"SELECT a.x, b.z FROM a JOIN b ON a.x = b.z", [][]Value{{Int(1), Text("01")}, {Int(2), Text("2")}}},
		{"SELECT COUNT(*) FROM a JOIN a AS a2 ON a.x = a2.x", [][]Value{{Int(3)}}},
	} {
		crossCheck(t, db, tc.sql)
		rows, err := db.Query(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows.rowData(), tc.want) {
			t.Errorf("%s = %v, want %v", tc.sql, rows.rowData(), tc.want)
		}
	}
}

// TestLargeEquiJoinAnswers is ROADMAP finding M2: an equi-join of two
// 8,000-row tables was refused ("exceeded cost budget") because every plan
// was charged the naive nested loop's 64M pairs, over maxCost. Its hash
// join tests 8,000 pairs, so it answers, charged 8,000 + 8,000 + 8,000;
// the naive reference, and a cross join of the same tables on any plan,
// still exceed the budget.
func TestLargeEquiJoinAnswers(t *testing.T) {
	const n = 8000
	db := NewDatabase("m2")
	var sum int64
	for _, name := range []string{"a", "b"} {
		db.MustExec("CREATE TABLE " + name + " (k INTEGER, v INTEGER)")
		rows := make([][]Value, n)
		sum = 0
		for i := range rows {
			rows[i] = []Value{Int(int64(i)), Int(int64(i % 7))}
			sum += int64(i % 7)
		}
		if _, err := db.BulkInsert(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	const join = "SELECT COUNT(*), SUM(b.v) FROM a JOIN b ON a.k = b.k"
	res, err := db.Exec(join)
	if err != nil {
		t.Fatalf("%s: %v", join, err)
	}
	if want := []Value{Int(n), Int(sum)}; !reflect.DeepEqual(res.Rows.rowData(), [][]Value{want}) {
		t.Errorf("%s = %v, want %v", join, res.Rows.rowData(), want)
	}
	if res.Cost != 3*n {
		t.Errorf("%s: Cost %d, want %d", join, res.Cost, 3*n)
	}
	for _, c := range []struct {
		sql  string
		exec func(string) (*Result, error)
	}{
		{join, func(sql string) (*Result, error) { return refExec(db, sql) }},
		{"SELECT COUNT(*) FROM a CROSS JOIN b", db.Exec},
	} {
		if _, err := c.exec(c.sql); errClass(err) != "budget" {
			t.Errorf("%s: error %v, want the cost budget's", c.sql, err)
		}
	}
}
