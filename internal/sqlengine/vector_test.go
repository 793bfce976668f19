package sqlengine

import "testing"

// typed reports whether the column's cells sit in one typed array: it is
// not mixed and holds a non-NULL cell.
func (c *column) typed() bool { return c.vals == nil && c.kind != KindNull }

// indexed reports whether an equality index of the table is built.
func (t *Table) indexed() bool {
	for i := range t.eqIdx {
		if t.eqIdx[i].idx != nil {
			return true
		}
	}
	return false
}

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
	db, tab := buildVecTable(t)

	a := &tab.cols[0]
	if !a.typed() || a.kind != KindInt || a.nulls != nil {
		t.Fatalf("col a: typed=%v kind=%v nulls=%v; want typed INTEGER, no null bitmap", a.typed(), a.kind, a.nulls)
	}
	if a.nums[0] != 1 || a.nums[2] != 3 {
		t.Fatalf("col a cells = %v", a.nums)
	}

	b := &tab.cols[1]
	if !b.typed() || b.kind != KindFloat {
		t.Fatalf("col b: typed=%v kind=%v; want typed REAL", b.typed(), b.kind)
	}
	if b.nulls == nil || !b.null(1) || b.null(0) || b.null(2) {
		t.Fatalf("col b null bitmap wrong: %v", b.nulls)
	}

	c := &tab.cols[2]
	if !c.typed() || c.kind != KindText || !c.null(2) || c.strs[0] != "x" {
		t.Fatalf("col c: typed=%v kind=%v nulls=%v strs=%v", c.typed(), c.kind, c.nulls, c.strs)
	}

	d := &tab.cols[3]
	if d.typed() {
		t.Fatalf("col d holds mixed kinds but is stored typed (%v)", d.kind)
	}

	// Reading the columns builds nothing: a scan filters the storage itself.
	ints := &a.nums[0]
	db.MustExec("SELECT COUNT(*) FROM v WHERE a > 0 AND b > 0 AND c = 'x' AND d = 10")
	if &tab.cols[0].nums[0] != ints {
		t.Fatal("a scan rebuilt the column it read")
	}
}

func TestColumnVecInvalidationOnDML(t *testing.T) {
	db, tab := buildVecTable(t)
	db.MustExec("SELECT COUNT(*) FROM v WHERE a = 1")
	if !tab.indexed() {
		t.Fatal("point lookup built no index")
	}
	db.MustExec("UPDATE v SET a = 99 WHERE a = 1")
	if tab.indexed() {
		t.Fatal("UPDATE did not invalidate the index over the column")
	} else if got := tab.cols[0].nums; got[0] != 99 {
		t.Fatalf("column stale after UPDATE: %v", got)
	}
}

// TestColumnVecInvalidationOnBulkInsert: BulkInsert appends to the columns
// and drops built indexes like every other DML, and the columns cover the
// appended rows, a NULL cell included.
func TestColumnVecInvalidationOnBulkInsert(t *testing.T) {
	db, tab := buildVecTable(t)
	db.MustExec("SELECT COUNT(*) FROM v WHERE b = 1.5")
	rows := [][]Value{
		{Int(4), Null(), Text("z"), Int(40)},
		{Int(5), Float(5.5), Text("w"), Int(50)},
	}
	if _, err := db.BulkInsert("v", rows); err != nil {
		t.Fatal(err)
	}
	if tab.indexed() {
		t.Fatal("BulkInsert did not invalidate the index")
	}
	if got := &tab.cols[0]; tab.Len() != 5 || len(got.nums) != 5 || got.nums[3] != 4 || got.nums[4] != 5 {
		t.Fatalf("int column after BulkInsert: len=%d cells=%v", tab.Len(), got.nums)
	}
	if got := &tab.cols[1]; !got.null(3) || got.null(4) || got.nums[4] != Float(5.5).I {
		t.Fatalf("float column nulls/values after BulkInsert: nulls=%v cells=%v", got.nulls, got.nums)
	}
	for col := range tab.Columns {
		for i, row := range rows {
			if got, want := tab.Cell(3+i, col), row[col]; got != want {
				t.Fatalf("col %d row %d after BulkInsert: stored %v, inserted %v", col, 3+i, got, want)
			}
		}
	}

	// A kind-breaking row leaves the column mixed.
	if _, err := db.BulkInsert("v", [][]Value{
		{Text("oops"), Float(6.5), Text("q"), Int(60)},
	}); err != nil {
		t.Fatal(err)
	}
	if tab.cols[0].typed() {
		t.Fatal("a column over mixed kinds claims to be typed")
	}
}

// TestColumnVecAlignedWithRows pins the positional alignment the scan
// kernels depend on: every column holds one cell per row, and cell i is
// row i as loaded, across INSERT and BulkInsert loading.
func TestColumnVecAlignedWithRows(t *testing.T) {
	db, tab := buildVecTable(t)
	want := [][]Value{
		{Int(1), Float(1.5), Text("x"), Int(10)},
		{Int(2), Null(), Text("y"), Text("stray")},
		{Int(3), Float(3.5), Null(), Int(30)},
	}
	rows := make([][]Value, 0, 40)
	for i := 0; i < 40; i++ {
		rows = append(rows, []Value{Int(int64(i)), Float(float64(i) / 2), Text("r"), Int(int64(i * 10))})
	}
	if _, err := db.BulkInsert("v", rows); err != nil {
		t.Fatal(err)
	}
	want = append(want, rows...)
	for col := range tab.Columns {
		c := &tab.cols[col]
		if n := max(len(c.nums), len(c.strs), len(c.vals)); n != tab.Len() || tab.Len() != len(want) {
			t.Fatalf("col %d: %d cells vs %d rows, %d loaded", col, n, tab.Len(), len(want))
		}
		for i := range want {
			if got := tab.Cell(i, col); got != want[i][col] {
				t.Fatalf("col %d row %d: stored %v vs loaded %v", col, i, got, want[i][col])
			}
		}
	}
}
