package sqlengine

import (
	"fmt"
	"runtime"
	"testing"
)

func bulkTestDB(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase("bulk")
	db.MustExec(`CREATE TABLE items (
		id INTEGER PRIMARY KEY,
		name TEXT NOT NULL,
		qty INTEGER,
		price REAL
	)`)
	return db
}

// BulkInsert must be observationally identical to row-at-a-time INSERT:
// same coercion, same stored values, same query results.
func TestBulkInsertMatchesInsert(t *testing.T) {
	viaInsert := bulkTestDB(t)
	viaBulk := bulkTestDB(t)

	rows := [][]Value{
		{Int(1), Text("bolt"), Int(10), Float(0.25)},
		// Text that coerces: numeric affinity must parse "7", REAL must
		// widen the int, TEXT must render the number.
		{Int(2), Int(99), Text("7"), Int(3)},
		{Int(3), Text("nut"), Null(), Null()},
		{Float(4), Text("washer"), Float(2.0), Float(1.5)},
	}
	for _, r := range rows {
		viaInsert.MustExec(fmt.Sprintf("INSERT INTO items VALUES (%s, %s, %s, %s)",
			r[0], r[1], r[2], r[3]))
	}
	n, err := viaBulk.BulkInsert("items", rows)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rows) {
		t.Fatalf("BulkInsert appended %d rows, want %d", n, len(rows))
	}

	const q = "SELECT id, name, qty, price FROM items ORDER BY id"
	a, err := viaInsert.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := viaBulk.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("row counts differ: insert %d vs bulk %d", a.Len(), b.Len())
	}
	for i := range a.rowData() {
		for j := range a.rowData()[i] {
			av, bv := a.Cell(i, j), b.Cell(i, j)
			if av.Kind != bv.Kind || av.Key() != bv.Key() {
				t.Fatalf("row %d col %d: insert %v (%v) vs bulk %v (%v)",
					i, j, av, av.Kind, bv, bv.Kind)
			}
		}
	}
}

// A constraint violation anywhere in the batch must leave the table
// untouched — the staging pass makes the call atomic.
func TestBulkInsertAtomicOnConstraintViolation(t *testing.T) {
	db := bulkTestDB(t)
	if _, err := db.BulkInsert("items", [][]Value{
		{Int(1), Text("good"), Int(1), Float(1)},
		{Int(2), Null(), Int(2), Float(2)}, // violates name NOT NULL
	}); err == nil {
		t.Fatal("BulkInsert accepted a NOT NULL violation")
	}
	rows, err := db.Query("SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Cell(0, 0).I; got != 0 {
		t.Fatalf("failed bulk insert left %d rows behind", got)
	}
}

func TestBulkInsertRejectsBadShape(t *testing.T) {
	db := bulkTestDB(t)
	if _, err := db.BulkInsert("nope", nil); err == nil {
		t.Fatal("BulkInsert accepted an unknown table")
	}
	if _, err := db.BulkInsert("items", [][]Value{{Int(1)}}); err == nil {
		t.Fatal("BulkInsert accepted a short row")
	}
}

// Bulk-loaded rows must be visible to the planner's lazily built
// point-lookup indexes, i.e. the per-call invalidation really ran.
func TestBulkInsertInvalidatesIndexes(t *testing.T) {
	db := bulkTestDB(t)
	db.MustExec("INSERT INTO items VALUES (1, 'a', 1, 1.0)")
	// Build the lazy index on id.
	if rows, err := db.Query("SELECT name FROM items WHERE id = 1"); err != nil || rows.Len() != 1 {
		t.Fatalf("warm-up lookup: %v (%d rows)", err, rows.Len())
	}
	if _, err := db.BulkInsert("items", [][]Value{{Int(2), Text("b"), Int(2), Float(2)}}); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("SELECT name FROM items WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Cell(0, 0).S != "b" {
		t.Fatalf("bulk-inserted row invisible to indexed lookup: %v", rows.rowData())
	}
}

// TestTableStorageBytes pins what a loaded table costs the heap: 8 bytes a
// cell for an INTEGER or a REAL column and 16 — a string header — for a
// TEXT one, measured as BenchmarkGenerate100k measures a corpus: the heap
// retained after GC. The strings are shared, and the rows handed to
// BulkInsert live through both readings, so only the table is counted.
func TestTableStorageBytes(t *testing.T) {
	const n, slack = 100_000, 64 << 10
	words := make([]string, 64)
	for i := range words {
		words[i] = fmt.Sprintf("word-%d", i)
	}
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), Float(float64(i) / 4), Text(words[i%len(words)])}
	}
	db := NewDatabase("bytes")
	db.MustExec("CREATE TABLE t (i INTEGER, r REAL, s TEXT)")
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	if _, err := db.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	retained := int64(ms.HeapAlloc) - int64(before)
	runtime.KeepAlive(rows)
	runtime.KeepAlive(db)
	t.Logf("%d rows retain %d bytes, %.1f a row", n, retained, float64(retained)/n)
	if limit := int64(n*(8+8+16) + slack); retained > limit {
		t.Errorf("a %d-row INTEGER, REAL, TEXT table retains %d bytes, %.1f a row; want at most %d (8+8+16 a row)",
			n, retained, float64(retained)/n, limit)
	}
}

// TestResultStorageBytes pins what a result costs the heap, measured as
// TestTableStorageBytes measures a table: a 100k-row answer sorted without
// a LIMIT retains 8 bytes a row for an INTEGER column and 16 — a string
// header, the strings shared with the table — for a TEXT one, with 64 KiB
// to spare. Rows of Values cost 56 bytes a row: a 32-byte cell and a
// 24-byte slice header.
func TestResultStorageBytes(t *testing.T) {
	const n, slack = 100_000, 64 << 10
	words := make([]string, 64)
	for i := range words {
		words[i] = fmt.Sprintf("word-%d", i)
	}
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), Float(float64(i%1000) / 4), Text(words[i%len(words)])}
	}
	db := NewDatabase("bytes")
	db.MustExec("CREATE TABLE t (id INTEGER, v REAL, s TEXT)")
	if _, err := db.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql   string
		bytes int64 // a row
	}{
		{"SELECT id FROM t ORDER BY v DESC, id", 8},
		{"SELECT s FROM t ORDER BY v DESC, id", 16},
	} {
		st, err := db.Prepare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		res, err := st.Exec()
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		retained := int64(ms.HeapAlloc) - int64(before)
		if res.Rows.Len() != n || res.Path != "positions/topk" {
			t.Fatalf("%q: %d rows on %s, want %d on positions/topk", c.sql, res.Rows.Len(), res.Path, n)
		}
		runtime.KeepAlive(res)
		t.Logf("%q: %d rows retain %d bytes, %.1f a row", c.sql, n, retained, float64(retained)/n)
		if limit := n*c.bytes + slack; retained > limit {
			t.Errorf("%q: a %d-row result retains %d bytes, %.1f a row; want at most %d (%d a row)",
				c.sql, n, retained, float64(retained)/n, limit, c.bytes)
		}
	}
}

// BenchmarkBulkInsertVsInsert quantifies the bulk path's point: loading
// rows without the per-statement lex/parse/execute machinery.
func BenchmarkBulkInsertVsInsert(b *testing.B) {
	const n = 2000
	rows := make([][]Value, n)
	stmts := make([]string, n)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), Text(fmt.Sprintf("item-%d", i)), Int(int64(i % 7)), Float(float64(i) / 3)}
		stmts[i] = fmt.Sprintf("INSERT INTO items VALUES (%d, 'item-%d', %d, %g)", i, i, i%7, float64(i)/3)
	}
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := bulkTestDB(b)
			for _, s := range stmts {
				db.MustExec(s)
			}
		}
	})
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := bulkTestDB(b)
			if _, err := db.BulkInsert("items", rows); err != nil {
				b.Fatal(err)
			}
		}
	})
}
