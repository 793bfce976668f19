package sqlengine

import "testing"

// buildVecTable returns a table with one column of each behaviour class:
// a clean INTEGER column, a REAL column with NULLs, a TEXT column, and an
// INTEGER-declared column polluted with non-numeric text (mixed kinds).
func buildVecTable(t *testing.T) (*Database, *Table) {
	t.Helper()
	db := NewDatabase("vec")
	db.MustExec("CREATE TABLE v (a INTEGER, b REAL, c TEXT, d INTEGER)")
	db.MustExec("INSERT INTO v VALUES (1, 1.5, 'x', 10)")
	db.MustExec("INSERT INTO v VALUES (2, NULL, 'y', 'stray')")
	db.MustExec("INSERT INTO v VALUES (3, 3.5, NULL, 30)")
	tab, ok := db.Table("v")
	if !ok {
		t.Fatal("table v missing")
	}
	return db, tab
}

func TestColumnVecBuild(t *testing.T) {
	_, tab := buildVecTable(t)

	a := tab.columnVec(0)
	if !a.typed || a.kind != KindInt || a.nulls != nil {
		t.Fatalf("col a: typed=%v kind=%v nulls=%v; want typed INTEGER, no null bitmap", a.typed, a.kind, a.nulls)
	}
	if a.ints[0] != 1 || a.ints[2] != 3 {
		t.Fatalf("col a ints = %v", a.ints)
	}

	b := tab.columnVec(1)
	if !b.typed || b.kind != KindFloat {
		t.Fatalf("col b: typed=%v kind=%v; want typed REAL", b.typed, b.kind)
	}
	if b.nulls == nil || !b.null(1) || b.null(0) || b.null(2) {
		t.Fatalf("col b null bitmap wrong: %v", b.nulls)
	}

	c := tab.columnVec(2)
	if !c.typed || c.kind != KindText || !c.null(2) || c.strs[0] != "x" {
		t.Fatalf("col c: typed=%v kind=%v nulls=%v strs=%v", c.typed, c.kind, c.nulls, c.strs)
	}

	d := tab.columnVec(3)
	if d.typed {
		t.Fatalf("col d holds mixed kinds but vector is typed (%v)", d.kind)
	}

	// The lazy build must be cached: same pointer on re-request.
	if tab.columnVec(0) != a {
		t.Fatal("columnVec rebuilt a cached vector")
	}
}

func TestColumnVecInvalidationOnDML(t *testing.T) {
	db, tab := buildVecTable(t)
	a := tab.columnVec(0)
	db.MustExec("UPDATE v SET a = 99 WHERE a = 1")
	if got := tab.columnVec(0); got == a {
		t.Fatal("UPDATE did not invalidate the columnar shadow")
	} else if got.ints[0] != 99 {
		t.Fatalf("rebuilt vector stale: %v", got.ints)
	}
}

// TestColumnVecInvalidationOnBulkInsert: BulkInsert drops built vectors
// like every other DML, and the rebuilt ones cover the appended rows, a
// NULL cell included.
func TestColumnVecInvalidationOnBulkInsert(t *testing.T) {
	db, tab := buildVecTable(t)
	a, b := tab.columnVec(0), tab.columnVec(1)
	if _, err := db.BulkInsert("v", [][]Value{
		{Int(4), Null(), Text("z"), Int(40)},
		{Int(5), Float(5.5), Text("w"), Int(50)},
	}); err != nil {
		t.Fatal(err)
	}
	if got := tab.columnVec(0); got == a {
		t.Fatal("BulkInsert did not invalidate the int vector")
	} else if got.length() != 5 || got.ints[3] != 4 || got.ints[4] != 5 {
		t.Fatalf("int vector after BulkInsert: len=%d ints=%v", got.length(), got.ints)
	}
	if got := tab.columnVec(1); got == b {
		t.Fatal("BulkInsert did not invalidate the float vector")
	} else if !got.null(3) || got.null(4) || got.floats[4] != 5.5 {
		t.Fatalf("float vector nulls/values after BulkInsert: nulls=%v floats=%v", got.nulls, got.floats)
	}
	for col := range tab.Columns {
		vec := tab.columnVec(col)
		if !vec.typed {
			continue
		}
		for i := range tab.Rows {
			if got, want := vecCell(vec, i), tab.Rows[i][col]; got != want {
				t.Fatalf("col %d row %d after BulkInsert: vector %v vs row %v", col, i, got, want)
			}
		}
	}

	// A kind-breaking row leaves the rebuilt vector untyped.
	if _, err := db.BulkInsert("v", [][]Value{
		{Text("oops"), Float(6.5), Text("q"), Int(60)},
	}); err != nil {
		t.Fatal(err)
	}
	if tab.columnVec(0).typed {
		t.Fatal("rebuilt vector over mixed kinds claims to be typed")
	}
}

// TestColumnVecAlignedWithRows pins the positional-alignment invariant the
// scan kernels depend on: cell i of the vector is row i of t.Rows, for
// every column, across INSERT and BulkInsert loading.
func TestColumnVecAlignedWithRows(t *testing.T) {
	db, tab := buildVecTable(t)
	rows := make([][]Value, 0, 40)
	for i := 0; i < 40; i++ {
		rows = append(rows, []Value{Int(int64(i)), Float(float64(i) / 2), Text("r"), Int(int64(i * 10))})
	}
	if _, err := db.BulkInsert("v", rows); err != nil {
		t.Fatal(err)
	}
	for col := range tab.Columns {
		vec := tab.columnVec(col)
		if !vec.typed {
			continue // mixed-kind columns carry no arrays to align
		}
		if vec.length() != len(tab.Rows) {
			t.Fatalf("col %d: vector length %d vs %d rows", col, vec.length(), len(tab.Rows))
		}
		for i := range tab.Rows {
			want := tab.Rows[i][col]
			if got := vecCell(vec, i); got != want {
				t.Fatalf("col %d row %d: vector %v vs row %v", col, i, got, want)
			}
		}
	}
}

// vecCell materialises typed-vector position i back into a Value.
func vecCell(v *colVec, i int) Value {
	if v.null(i) {
		return Null()
	}
	switch v.kind {
	case KindInt:
		return Int(v.ints[i])
	case KindFloat:
		return Float(v.floats[i])
	case KindText:
		return Text(v.strs[i])
	default:
		return Null()
	}
}
