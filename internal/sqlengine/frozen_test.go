package sqlengine

import (
	"strings"
	"testing"
)

// codedColumns names the coded columns of db's tables.
func codedColumns(db *Database) []string {
	var out []string
	for _, t := range db.Tables() {
		for i := range t.cols {
			if t.cols[i].dict != nil {
				out = append(out, t.Name+"."+t.Columns[i].Name)
			}
		}
	}
	return out
}

// TestFrozenMatchesPlain runs the engine's batteries over a fixture and
// over a frozen build of it, whose low-cardinality TEXT columns are coded:
// engineQueries (the COUNT(*) battery among them) over the 9,000-row
// engine fixture, and crossCheckQueries and tailCheckQueries over the
// 60-row planner fixture whose tables they read. Both builds give the
// same rows, order, error text, Cost of both executors and physical path,
// and the frozen planned engine answers as its naive reference does.
func TestFrozenMatchesPlain(t *testing.T) {
	for _, fx := range []struct {
		name    string
		build   func() *Database
		queries []string
		coded   []string
	}{
		{"engine9000", func() *Database { return buildEngineDB(5, 9000) }, engineQueries,
			[]string{"f.grp", "f.txt"}},
		{"multi60", func() *Database { return buildMultiDB(7, 60) }, append(append([]string{}, crossCheckQueries...), tailCheckQueries...),
			[]string{"t.grp", "acc.kind"}},
	} {
		plain, frozen := fx.build(), fx.build()
		frozen.Freeze()
		coded := strings.Join(codedColumns(frozen), " ")
		for _, c := range fx.coded {
			if !strings.Contains(" "+coded+" ", " "+c+" ") {
				t.Fatalf("%s: %s is not coded (coded: %s)", fx.name, c, coded)
			}
		}
		if got := codedColumns(plain); len(got) != 0 {
			t.Fatalf("%s: the unfrozen build has coded columns %v", fx.name, got)
		}
		for _, q := range fx.queries {
			want, got := answerLine(fx.name, plain, q)+pathOf(plain, q), answerLine(fx.name, frozen, q)+pathOf(frozen, q)
			if got != want {
				t.Errorf("frozen and plain builds answer apart:\n frozen %s\n plain  %s", got, want)
			}
			crossCheck(t, frozen, q)
		}
	}
}

// pathOf is the physical path the planned engine reports for sql on db.
func pathOf(db *Database, sql string) string {
	res, err := db.Exec(sql)
	if err != nil {
		return ""
	}
	return "\tpath " + res.Path
}

// TestFreezeCodes pins the coding rule (worthCoding) on the columns it
// decides between: a TEXT column is coded when four bytes a row and a
// 16-byte header a distinct string come to less than a 16-byte header a
// row — so eight rows are coded with up to five distinct strings, and not
// with six — and a mixed, INTEGER or all-NULL column never is. A
// coded column reads back every cell, NULLs included, and its words are
// sorted and distinct.
func TestFreezeCodes(t *testing.T) {
	db := NewDatabase("codes")
	db.MustExec("CREATE TABLE c (few TEXT, most TEXT, every TEXT, mixed TEXT, num INTEGER, nul TEXT)")
	rows := [][]Value{
		{Text("b"), Text("x1"), Text("u1"), Text("a"), Int(1), Null()},
		{Null(), Text("x2"), Text("u2"), Text("b"), Int(2), Null()},
		{Text("a"), Text("x3"), Text("u3"), Text("c"), Int(3), Null()},
		{Text("b"), Text("x3"), Text("u4"), Text("d"), Int(1), Null()},
		{Text(""), Text("x3"), Text("u5"), Text("e"), Int(2), Null()},
		{Text("a"), Text("x1"), Text("u6"), Text("f"), Int(3), Null()},
		{Text("b"), Text("x4"), Text("u7"), Text("g"), Int(1), Null()},
		{Text("b"), Text("x5"), Text("u8"), Text("h"), Int(2), Null()},
	}
	if _, err := db.BulkInsert("c", rows); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("c")
	tab.cols[3].set(tab.Len(), 0, Int(7)) // mixed: an INTEGER among TEXT
	var before [][]Value
	for i := range rows {
		var row []Value
		for c := range tab.Columns {
			row = append(row, tab.Cell(i, c))
		}
		before = append(before, row)
	}
	db.Freeze()
	// few: 4 distinct in 8 rows; most: 5 of 8 (4·8 + 16·5 = 112 < 128);
	// every: 8 of 8 (160 ≥ 128).
	if got, want := strings.Join(codedColumns(db), " "), "c.few c.most"; got != want {
		t.Errorf("coded columns %q, want %q", got, want)
	}
	if !worthCoding(8, 5) || worthCoding(8, 6) {
		t.Error("worthCoding(8, 5) must code and worthCoding(8, 6) must not")
	}
	for i, row := range before {
		for c, want := range row {
			if got := tab.Cell(i, c); got != want {
				t.Errorf("row %d column %d reads %v after freezing, %v before", i, c, got, want)
			}
		}
	}
	for _, c := range tab.cols[:2] {
		w := c.dict.words
		for i := 1; i < len(w); i++ {
			if w[i-1] >= w[i] {
				t.Errorf("words %q are not sorted and distinct", w)
			}
		}
	}
}

// TestFrozenTableRefusesDML: INSERT, UPDATE, DELETE and BulkInsert on a
// frozen table each fail, and every cell and every answer stays as it was.
// A table created after the freeze takes DML.
func TestFrozenTableRefusesDML(t *testing.T) {
	db := buildEngineDB(3, 500)
	db.Freeze()
	tab, _ := db.Table("f")
	queries := []string{
		"SELECT COUNT(*), SUM(num) FROM f",
		"SELECT id, grp, txt FROM f WHERE grp = 'a' ORDER BY id",
		"SELECT COUNT(*) FROM f WHERE txt LIKE 'w%'",
	}
	snapshot := func() []string {
		var out []string
		for _, q := range queries {
			out = append(out, answerLine("f", db, q))
		}
		for i := 0; i < tab.Len(); i++ {
			for c := range tab.Columns {
				out = append(out, tab.Cell(i, c).String())
			}
		}
		return out
	}
	before := snapshot()
	for _, dml := range []string{
		"INSERT INTO f VALUES (9999, 'a', 1.5, 1, 'w001', '7')",
		"UPDATE f SET grp = 'zz' WHERE grp = 'a'",
		"UPDATE f SET num = 0",
		"DELETE FROM f WHERE grp = 'a'",
		"DELETE FROM f",
	} {
		if _, err := db.Exec(dml); err == nil || !strings.Contains(err.Error(), "frozen") {
			t.Errorf("%s on a frozen table: err %v, want it refused as frozen", dml, err)
		}
	}
	if _, err := db.BulkInsert("f", [][]Value{{Int(9999), Text("a"), Float(1.5), Int(1), Text("w001"), Text("7")}}); err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Errorf("BulkInsert on a frozen table: err %v, want it refused as frozen", err)
	}
	after := snapshot()
	if len(after) != len(before) {
		t.Fatalf("the frozen table holds %d cells and answers after refused DML, %d before", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("refused DML changed %q to %q", before[i], after[i])
		}
	}
	db.MustExec("CREATE TABLE late (x TEXT)")
	db.MustExec("INSERT INTO late VALUES ('y')")
	if res := db.MustExec("UPDATE late SET x = 'z'"); res.RowsAffected != 1 {
		t.Errorf("UPDATE on a table created after the freeze changed %d rows, want 1", res.RowsAffected)
	}
}

// TestCodedFilterAllocations: a coded column's vector forms allocate
// nothing a plain column's do not. A comparison or BETWEEN against TEXT is
// a code range, found without allocating, and LIKE and IN keep their truth
// on each word for the next execution, so over a frozen table no statement
// of these shapes allocates more per warm execution than over the plain
// one — the negations, which have no vector form over a plain column,
// included.
func TestCodedFilterAllocations(t *testing.T) {
	plain, frozen := buildEngineDB(3, 10000), buildEngineDB(3, 10000)
	frozen.Freeze()
	for _, cond := range []string{
		"grp = 'a'", "grp < 'c'", "grp >= 'b'", "grp != 'zz'", "NOT (grp = 'a')",
		"txt BETWEEN 'w100' AND 'x500'", "txt NOT BETWEEN 'w100' AND 'x500'",
		"txt LIKE '%5_'", "txt NOT LIKE 'w%'", "grp IN ('a', 'c', NULL)", "grp NOT IN ('a', 'b')",
		"txt > 'x' AND grp = 'b'",
	} {
		sql := "SELECT COUNT(*) FROM f WHERE " + cond
		allocs := func(db *Database) float64 {
			st, err := db.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(20, func() {
				if _, err := st.Exec(); err != nil {
					t.Fatal(err)
				}
			})
		}
		if f, p := allocs(frozen), allocs(plain); f > p {
			t.Errorf("%s: %v allocations over the coded column, %v over the plain one", sql, f, p)
		}
	}
}
