package sqlengine

import (
	"math"
	"slices"
	"testing"
)

// TestEqIndexBuckets holds the flat equality index to its definition: the
// bucket of a key is exactly the ascending positions of the rows whose cell
// has that coarseKey, NULLs in none, and no bucket has room to grow into
// the next. An INSERT after a lookup rebuilds the index. A frozen copy,
// whose TEXT column is coded, gives every key the same bucket from its
// codes' posting lists, and keeps a key map for its numeric-looking words
// alone.
func TestEqIndexBuckets(t *testing.T) {
	negZero := Float(math.Copysign(0, -1))
	cells := [][]Value{ // ints, reals, texts, uniq, same
		{Null(), negZero, Text("05"), Int(100), Int(7)},
		{Int(5), Float(0), Int(5), Int(99), Int(7)},
		{Int(-3), Null(), Text(" 5 "), Int(98), Int(7)},
		{Int(5), Float(2.5), Text("abc"), Int(97), Int(7)},
		{Null(), Int(5), Null(), Int(96), Int(7)},
		{Int(0), negZero, Text("abc"), Int(95), Int(7)},
		{Int(5), Float(5), Float(2.5), Int(94), Int(7)},
	}
	build := func() (*Database, *Table) {
		db := NewDatabase("idx")
		db.MustExec("CREATE TABLE t (ints INTEGER, reals REAL, texts TEXT, uniq INTEGER, same INTEGER, mixed TEXT)")
		rows := make([][]Value, len(cells))
		for i, c := range cells {
			rows[i] = append(slices.Clone(c), Null())
		}
		if _, err := db.BulkInsert("t", rows); err != nil {
			t.Fatal(err)
		}
		tab, _ := db.Table("t")
		// No affinity mixes kinds in one column, but the storage may: the
		// last column holds one cell of each kind, -0.0 and 0 and numeric
		// text among them.
		for i, v := range []Value{Int(5), negZero, Text("05"), Null(), Float(0), Text("abc"), Float(5)} {
			tab.cols[5].set(tab.Len(), i, v)
		}
		return db, tab
	}
	db, tab := build()
	labels := []string{"ints", "reals", "texts", "uniq", "same", "mixed"}

	// buckets holds the bucket each coarse key should have in column col,
	// and one cell that has it.
	buckets := func(tab *Table, col int) (want map[string][]int, cell map[string]Value, nonNull int) {
		want, cell = map[string][]int{}, map[string]Value{}
		for ri := 0; ri < tab.Len(); ri++ {
			v := tab.Cell(ri, col)
			if v.IsNull() {
				continue
			}
			nonNull++
			k := string(coarseKey(nil, v))
			want[k], cell[k] = append(want[k], ri), v
		}
		return want, cell, nonNull
	}
	check := func(tab *Table, label string, col int) {
		t.Helper()
		want, cell, nonNull := buckets(tab, col)
		for k, w := range want {
			got, ok := tab.eqLookup(col, cell[k])
			if !ok || !slices.Equal(got, w) {
				t.Errorf("%s: bucket %q = %v (ok %v), want %v", label, k, got, ok, w)
			}
			if cap(got) != len(got) {
				t.Errorf("%s: bucket %q has cap %d > len %d: an append would reach the next bucket", label, k, cap(got), len(got))
			}
		}
		if got, ok := tab.eqLookup(col, Text("missing")); !ok || got != nil {
			t.Errorf("%s: absent key gives %v (ok %v), want nil", label, got, ok)
		}
		idx := tab.eqIdx[col].idx
		if idx.dict != nil {
			return
		}
		if len(idx.ids) != len(want) || len(idx.off) != len(want)+1 || len(idx.pos) != nonNull {
			t.Errorf("%s: %d keys, %d boundaries, %d positions; want %d, %d, %d",
				label, len(idx.ids), len(idx.off), len(idx.pos), len(want), len(want)+1, nonNull)
		}
	}
	for col, label := range labels {
		check(tab, label, col)
	}

	// Values `=` matches share a bucket: -0.0 with 0.0 and 0; '05', ' 5 '
	// and '5' with each other; 5 with 5.0 and '05'.
	shared := []struct {
		col  int
		key  Value
		want []int
	}{
		{1, Int(0), []int{0, 1, 5}},
		{2, Int(5), []int{0, 1, 2}},
		{2, Text("5"), []int{0, 1, 2}},
		{2, Text(" 5 "), []int{0, 1, 2}},
		{2, Float(2.5), []int{6}},
		{2, Text("abc"), []int{3, 5}},
		{5, Int(5), []int{0, 2, 6}},
		{5, Int(0), []int{1, 4}},
		{4, Int(7), []int{0, 1, 2, 3, 4, 5, 6}},
	}
	for _, c := range shared {
		if got, _ := tab.eqLookup(c.col, c.key); !slices.Equal(got, c.want) {
			t.Errorf("column %d: bucket of %v = %v, want %v", c.col, c.key, got, c.want)
		}
	}

	// The frozen copy codes texts; every bucket is the plain one's.
	fdb, frozen := build()
	fdb.Freeze()
	if frozen.cols[2].dict == nil {
		t.Fatal("freezing did not code the texts column")
	}
	for col, label := range labels {
		check(frozen, "frozen "+label, col)
		want, cell, _ := buckets(tab, col)
		for k := range want {
			plain, _ := tab.eqLookup(col, cell[k])
			if got, _ := frozen.eqLookup(col, cell[k]); !slices.Equal(got, plain) {
				t.Errorf("frozen %s: bucket %q = %v, plain %v", label, k, got, plain)
			}
		}
	}
	for _, c := range shared {
		if got, _ := frozen.eqLookup(c.col, c.key); !slices.Equal(got, c.want) {
			t.Errorf("frozen column %d: bucket of %v = %v, want %v", c.col, c.key, got, c.want)
		}
	}
	// The coded index keys its numeric-looking words alone: '05', '5' and
	// ' 5 ' share one key, '2.5' has one; 'abc' is found by its code.
	if idx := frozen.eqIdx[2].idx; len(idx.ids) != 2 {
		t.Errorf("coded index has %d keys, want the 2 of its numeric-looking words", len(idx.ids))
	}

	db.MustExec("INSERT INTO t VALUES (5, -0.0, '5.0', 1, 7, 0)")
	for _, c := range []struct {
		col  int
		key  Value
		want []int
	}{
		{0, Int(5), []int{1, 3, 6, 7}},
		{1, Int(0), []int{0, 1, 5, 7}},
		{2, Int(5), []int{0, 1, 2, 7}},
		{4, Int(7), []int{0, 1, 2, 3, 4, 5, 6, 7}},
	} {
		if got, _ := tab.eqLookup(c.col, c.key); !slices.Equal(got, c.want) {
			t.Errorf("after INSERT, column %d: bucket of %v = %v, want %v", c.col, c.key, got, c.want)
		}
	}
	for col, label := range labels[:5] {
		check(tab, label+" after INSERT", col)
	}
}
