package sqlengine

import (
	"math"
	"slices"
	"testing"
)

// TestEqIndexBuckets holds the flat equality index to its definition: the
// bucket of a key is exactly the ascending positions of the rows whose cell
// has that coarseKey, NULLs in none, and no bucket has room to grow into
// the next. An INSERT after a lookup rebuilds the index.
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
	// No affinity mixes kinds in one column, but Table.Rows may: the last
	// column holds one cell of each kind, -0.0 and 0 and numeric text among
	// them.
	for i, v := range []Value{Int(5), negZero, Text("05"), Null(), Float(0), Text("abc"), Float(5)} {
		tab.Rows[i][5] = v
	}

	check := func(label string, col int) {
		t.Helper()
		want := map[string][]int{}
		nonNull := 0
		for ri, row := range tab.Rows {
			if row[col].IsNull() {
				continue
			}
			nonNull++
			k := string(coarseKey(nil, row[col]))
			want[k] = append(want[k], ri)
		}
		for k, w := range want {
			got, ok := tab.eqLookup(col, k)
			if !ok || !slices.Equal(got, w) {
				t.Errorf("%s: bucket %q = %v (ok %v), want %v", label, k, got, ok, w)
			}
			if cap(got) != len(got) {
				t.Errorf("%s: bucket %q has cap %d > len %d: an append would reach the next bucket", label, k, cap(got), len(got))
			}
		}
		if got, ok := tab.eqLookup(col, "Tmissing"); !ok || got != nil {
			t.Errorf("%s: absent key gives %v (ok %v), want nil", label, got, ok)
		}
		idx := tab.eqIdx[col]
		if len(idx.ids) != len(want) || len(idx.off) != len(want)+1 || len(idx.pos) != nonNull {
			t.Errorf("%s: %d keys, %d boundaries, %d positions; want %d, %d, %d",
				label, len(idx.ids), len(idx.off), len(idx.pos), len(want), len(want)+1, nonNull)
		}
	}
	for col, label := range []string{"ints", "reals", "texts", "uniq", "same", "mixed"} {
		check(label, col)
	}

	// Values `=` matches share a bucket: -0.0 with 0.0 and 0; '05', ' 5 '
	// and '5' with each other; 5 with 5.0 and '05'.
	for _, c := range []struct {
		col  int
		key  Value
		want []int
	}{
		{1, Int(0), []int{0, 1, 5}},
		{2, Int(5), []int{0, 1, 2}},
		{5, Int(5), []int{0, 2, 6}},
		{5, Int(0), []int{1, 4}},
		{4, Int(7), []int{0, 1, 2, 3, 4, 5, 6}},
	} {
		if got, _ := tab.eqLookup(c.col, string(coarseKey(nil, c.key))); !slices.Equal(got, c.want) {
			t.Errorf("column %d: bucket of %v = %v, want %v", c.col, c.key, got, c.want)
		}
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
		if got, _ := tab.eqLookup(c.col, string(coarseKey(nil, c.key))); !slices.Equal(got, c.want) {
			t.Errorf("after INSERT, column %d: bucket of %v = %v, want %v", c.col, c.key, got, c.want)
		}
	}
	for col, label := range []string{"ints", "reals", "texts", "uniq", "same"} {
		check(label+" after INSERT", col)
	}
}
