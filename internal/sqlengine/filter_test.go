package sqlengine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// buildFilterDB builds the database FuzzFilter's predicates run on: p has a
// column of each storage class with NULLs — i INTEGER, r REAL, s TEXT, each
// typed, so a full scan's kernels read their vectors, and s with
// numeric-looking words that `=` matches to each other ('5', '05', ' 5 ')
// and the empty string — m of mixed kinds, numeric-looking text included,
// whose vector is untyped, n all NULL, and k, a small-range INTEGER whose
// `k = literal` reads an equality-index bucket. q is a small table p joins
// on k, with unmatched keys on both sides; its t has a distinct string a
// row but one, too many to be coded.
func buildFilterDB() *Database {
	db := NewDatabase("filter")
	db.MustExec("CREATE TABLE p (id INTEGER, i INTEGER, r REAL, s TEXT, m INTEGER, n INTEGER, k INTEGER)")
	db.MustExec("CREATE TABLE q (k INTEGER, w INTEGER, t TEXT)")
	texts := []string{"a", "ab", "B", "é", "10", "5", "", "x_y", "%", "A", "05", " 5 "}
	mixed := []Value{Int(1), Int(-2), Float(1.5), Float(1), Text("1"), Text("01"), Text("a"), Text(""), Null()}
	p, _ := db.Table("p")
	for id := 0; id < 600; id++ {
		row := []Value{Int(int64(id)), Int(int64(id*7%56 - 5)), Float(float64(id*13%40) / 4), Text(texts[id*3%len(texts)]),
			mixed[id*5%len(mixed)], Null(), Int(int64(id % 5))}
		if id%9 == 0 {
			row[1], row[3] = Null(), Null()
		}
		if id%11 == 0 {
			row[2] = Null()
		}
		p.appendRow(row)
	}
	q, _ := db.Table("q")
	for k, w := range []Value{Int(10), Null(), Int(-1), Int(3)} {
		q.appendRow([]Value{Int(int64(k + 2)), w, Text(texts[k])})
	}
	q.appendRow([]Value{Null(), Int(0), Null()})
	return db
}

// filterDBs are the databases each generated WHERE runs on, built once per
// process (the statements only read them): buildFilterDB's, and a frozen
// build of it, whose p.s is coded (q.t, m and the numbers are not).
var filterDBs = sync.OnceValue(func() []*Database {
	frozen := buildFilterDB()
	frozen.Freeze()
	return []*Database{buildFilterDB(), frozen}
})

// filterPred generates one predicate over cols from every compiled shape —
// comparisons in both operand orders, BETWEEN, IN lists that may hold
// NULL, LIKE, IS NULL, each maybe negated — and, while depth allows, NOT,
// AND and OR over smaller ones and comparisons of arithmetic.
func filterPred(p *picker, cols []string, depth int) string {
	lits := []string{"NULL", "0", "1", "2", "-3", "1.5", "10", "'1'", "'01'", "'10'", "'a'", "'B'", "'é'", "''", "5", "'5'", "'05'", "' 5 '"}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	not := func() string { return p.of("", "NOT ") }
	shapes := 7
	if depth > 0 {
		shapes = 10
	}
	col := p.of(cols...)
	switch p.pick(shapes) {
	case 0:
		return col + " " + p.of(ops...) + " " + p.of(lits...)
	case 1:
		return p.of(lits...) + " " + p.of(ops...) + " " + col
	case 2:
		return col + " " + not() + "BETWEEN " + p.of(lits...) + " AND " + p.of(lits...)
	case 3:
		list := p.of(lits...)
		for n := p.pick(3); n > 0; n-- {
			list += ", " + p.of(lits...)
		}
		return col + " " + not() + "IN (" + list + ")"
	case 4:
		return col + " " + not() + "LIKE " + p.of("'a%'", "'%b'", "'_'", "'%'", "'A_'", "'%1%'", "'é'", "'_é%'", "'x\\_y'", "NULL", "1", "'1_'")
	case 5:
		return col + " IS " + not() + "NULL"
	case 6:
		return "(" + col + " " + p.of("+", "-", "*", "/", "%") + " " + p.of(lits...) + ") " + p.of(ops...) + " " + p.of(lits...)
	case 7:
		return "NOT (" + filterPred(p, cols, depth-1) + ")"
	case 8:
		return "(" + filterPred(p, cols, depth-1) + ") " + p.of("AND", "OR") + " (" + filterPred(p, cols, depth-1) + ")"
	}
	return col + " " + p.of(ops...) + " " + p.of(cols...)
}

// filterCase generates a frame — p alone, or p LEFT JOIN q, whose right
// side's predicates are filtered over the join's pairs — and a WHERE of one
// to three conjuncts, which may start with `k = literal` (an index bucket).
func filterCase(p *picker) (from, cols, where string) {
	from, cols = "p", "id"
	names := []string{"i", "r", "s", "m", "n", "k", "id"}
	if p.pick(3) == 2 {
		from, cols = "p LEFT JOIN q ON p.k = q.k", "p.id, q.w"
		names = []string{"q.w", "q.t", "q.k", "p.i", "p.s", "p.m"}
	}
	var conj []string
	if p.pick(3) == 0 {
		conj = append(conj, fmt.Sprintf("p.k = %d", p.pick(6)))
	}
	for n := 1 + p.pick(3); n > 0; n-- {
		conj = append(conj, filterPred(p, names, 2))
	}
	return from, cols, strings.Join(conj, " AND ")
}

// checkFilterCase holds one generated WHERE, on each of filterDBs, to three
// relations:
//
//   - the planned engine answers it with the naive reference's rows, order
//     and error class, at a Cost no greater (divergence);
//   - TLP (Rigger & Su, OOPSLA 2020): every row makes the WHERE, w, exactly
//     one of TRUE, FALSE and NULL, so the counts under w, NOT (w) and (w)
//     IS NULL sum to the frame's;
//   - NoREC (Rigger & Su, ESEC/FSE 2020): the count under w equals
//     SUM(CASE WHEN w THEN 1 ELSE 0 END), which evaluates w per row in the
//     projection, where no filter runs.
func checkFilterCase(t *testing.T, data []byte) {
	t.Helper()
	for _, db := range filterDBs() {
		checkFilterCaseOn(t, db, data)
	}
}

func checkFilterCaseOn(t *testing.T, db *Database, data []byte) {
	t.Helper()
	from, cols, w := filterCase(&picker{data: data})
	sql := "SELECT " + cols + " FROM " + from + " WHERE " + w
	pr, perr := db.Exec(sql)
	nr, nerr := refExec(db, sql)
	if msg := divergence(sql, pr, perr, nr, nerr); msg != "" {
		t.Fatal(msg)
	}
	count := func(sql string) int64 {
		t.Helper()
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res.Rows.Cell(0, 0).I // SUM over no row is NULL: 0
	}
	n := count("SELECT COUNT(*) FROM " + from + " WHERE " + w)
	parts := n + count("SELECT COUNT(*) FROM "+from+" WHERE NOT ("+w+")") + count("SELECT COUNT(*) FROM "+from+" WHERE ("+w+") IS NULL")
	if total := count("SELECT COUNT(*) FROM " + from); parts != total {
		t.Fatalf("TLP: FROM %s counts %d rows, but w, NOT (w) and (w) IS NULL count %d for w = %s", from, total, parts, w)
	}
	if sum := count("SELECT SUM(CASE WHEN " + w + " THEN 1 ELSE 0 END) FROM " + from); sum != n {
		t.Fatalf("NoREC: WHERE %s counts %d rows over %s, the CASE sums %d", w, n, from, sum)
	}
}

// Property: whatever WHERE the generator builds, the planned filter agrees
// with the naive reference, and TLP and NoREC hold.
func TestFilterProperty(t *testing.T) {
	f := func(data []byte) bool {
		checkFilterCase(t, data)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// FuzzFilter is the differential fuzz target for WHERE predicates: fuzzer
// bytes choose the frame and the conjuncts (filterCase), and the planned
// engine must agree with the naive reference, and TLP and NoREC hold,
// without panicking.
func FuzzFilter(f *testing.F) {
	// Frame, index bucket, conjunct count; then per predicate its column,
	// shape and operands. s LIKE '_' over the typed TEXT vector ('é' is one
	// character); p.k = 1 AND NOT (m = '1'), the mixed column read from an
	// index bucket; q.w IN (NULL, 1) over the LEFT JOIN's pairs.
	f.Add([]byte{0, 1, 0, 2, 4, 0, 2})
	f.Add([]byte{0, 0, 1, 0, 3, 7, 3, 0, 0, 7})
	f.Add([]byte{2, 1, 0, 0, 3, 0, 1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFilterCase(t, data)
	})
}

// TestSelectionVectorBoundaries holds every consumer of a selection vector
// to the naive reference where vectors and morsels end: over inputs of 0, 1,
// V-1, V, V+1 and 2V+1 rows (V = vecRows) and 4,095, 4,096 and 4,097, the
// rows a filter keeps fall on both sides of each boundary. The sources are
// a full scan (a typed array, a coded range, a row rule and the evaluator),
// an equality-index bucket, a hash join's pairs, a LEFT JOIN's null
// extensions, the pairs a residual filter thins, and a WHERE that may fail,
// which fails on row V+1. The consumers are COUNT(*), an ungrouped fold with
// the first row's cells beside it, grouped folds over a coded TEXT key and
// an INTEGER key, COUNT(DISTINCT), a gather and a top-k. Each answer holds to
// the reference's rows, order and error class at no greater Cost, on a
// consumer of positions.go, and counts the morsels its filters and probes
// read.
func TestSelectionVectorBoundaries(t *testing.T) {
	const V = vecRows
	// Row i of t, and of b's bucket k = 1: a boundary row i = V, 2V or 4,096
	// passes every conjunct below, and so do some of the V rows before it.
	cells := func(i int) []Value {
		row := []Value{Int(int64(i)), Int(int64(i % 10)), Text(fmt.Sprintf("c%d", i*7%5)), Int(int64(i * 7 % 10)), Float(float64((i+1)%8) / 2), Text("%Y")}
		if i%17 == 5 {
			row[2] = Null()
		}
		if i%13 == 4 {
			row[4] = Null()
		}
		if i == V+1 {
			row[5] = Text("%H")
		}
		return row
	}
	build := func(n int) *Database {
		db := NewDatabase("vectors")
		db.MustExec("CREATE TABLE t (id INTEGER, g INTEGER, c TEXT, x INTEGER, y REAL, fmt TEXT)")
		db.MustExec("CREATE TABLE b (id INTEGER, g INTEGER, c TEXT, x INTEGER, y REAL, fmt TEXT, k INTEGER)")
		db.MustExec("CREATE TABLE d (g INTEGER, w INTEGER)")
		db.MustExec("INSERT INTO d VALUES (0, 10), (0, 11), (1, 12), (2, 13), (3, 14), (5, 15), (6, 16), (8, 17)")
		trows, brows := make([][]Value, n), make([][]Value, 2*n)
		for i := range n {
			trows[i] = cells(i)
			brows[2*i] = append(cells(n+i), Int(0))
			brows[2*i+1] = append(cells(i), Int(1))
		}
		for name, rows := range map[string][][]Value{"t": trows, "b": brows} {
			if _, err := db.BulkInsert(name, rows); err != nil {
				t.Fatal(err)
			}
		}
		db.Freeze()
		return db
	}
	morsels := func(rows int64) int64 { return (rows + morselRows - 1) / morselRows }
	const pairsSQL = "SELECT COUNT(*) FROM t JOIN d ON t.g = d.g"
	sources := []struct {
		from, w string // w: an INTEGER column of the source's rows
		// keeps: the rows' input index is t.id; unsafe: fails past row V+1
		keeps, unsafe bool
	}{
		{"t WHERE t.x <> 3 AND t.c <> 'c0' AND NOT (t.y < 0.5) AND (t.id * 7) % 11 <> 4", "t.x", true, false},
		{"b AS t WHERE t.k = 1 AND t.x <> 3 AND t.c <> 'c0'", "t.x", true, false},
		{"t JOIN d ON t.g = d.g", "d.w", false, false},
		{"t LEFT JOIN d ON t.g = d.g", "d.w", false, false},
		{"t JOIN d ON t.g = d.g WHERE t.x + d.w <> 15", "d.w", false, false},
		{"t WHERE STRFTIME(t.fmt, '2020-01-01') = '2020' AND t.x <> 3", "t.x", false, true},
	}
	consumers := []string{
		"SELECT COUNT(*) FROM %[1]s",
		"SELECT SUM(t.x), MIN(t.c), AVG(t.y), MAX(%[2]s), t.id, %[2]s FROM %[1]s",
		"SELECT t.c, COUNT(*), SUM(%[2]s) FROM %[1]s GROUP BY t.c",
		"SELECT %[2]s, COUNT(*), MIN(t.y) FROM %[1]s GROUP BY %[2]s",
		"SELECT COUNT(DISTINCT %[2]s), COUNT(DISTINCT t.c) FROM %[1]s",
		"SELECT t.id, %[2]s FROM %[1]s",
		"SELECT t.id, %[2]s FROM %[1]s ORDER BY t.x DESC, t.id LIMIT 7",
	}
	for _, n := range []int{0, 1, V - 1, V, V + 1, 2*V + 1, 4095, 4096, 4097} {
		db := build(n)
		pairs, err := refExec(db, pairsSQL)
		if err != nil {
			t.Fatal(err)
		}
		for k, src := range sources {
			want := morsels(int64(n))
			switch {
			case src.unsafe:
				want = 0 // an unsafe WHERE filters serially
			case strings.Contains(src.from, "WHERE t.x + d.w"):
				want += morsels(pairs.Rows.Cell(0, 0).I)
			}
			for _, form := range consumers {
				sql := fmt.Sprintf(form, src.from, src.w)
				pr, perr := db.Exec(sql)
				nr, nerr := refExec(db, sql)
				if msg := divergence(sql, pr, perr, nr, nerr); msg != "" {
					t.Fatalf("%d rows: %s", n, msg)
				}
				if fails := src.unsafe && n > V+1; (nerr != nil) != fails {
					t.Fatalf("%d rows: %s: reference error %v, want one iff the WHERE reaches row %d", n, sql, nerr, V+1)
				}
				if perr != nil {
					continue
				}
				if strings.HasPrefix(pr.Path, "rows") || pr.Batches != want {
					t.Errorf("%d rows: %s: path %s, %d morsels, want a consumer's path and %d", n, sql, pr.Path, pr.Batches, want)
				}
				if !src.keeps || !strings.HasPrefix(form, "SELECT t.id, %[2]s FROM %[1]s") || strings.Contains(form, "LIMIT") {
					continue
				}
				// The kept rows fall on both sides of each boundary.
				for _, b := range []int{V, 2 * V, 4096} {
					before, after := false, false
					for i := range nr.Rows.Len() {
						id := int(nr.Rows.Cell(i, 0).I)
						before = before || id >= b-V && id < b
						after = after || id >= b && id < b+V
					}
					if b < n && !(before && after) {
						t.Errorf("%d rows: source %d keeps no row on one side of row %d", n, k, b)
					}
				}
			}
		}
	}
}
