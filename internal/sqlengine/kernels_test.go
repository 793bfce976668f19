package sqlengine

import (
	"fmt"
	"strings"
	"testing"
)

// TestNegationKernelTruthTable pins the filter against the evaluator over
// the three-valued truth table: every kind of cell (NULL, INTEGER, REAL,
// numeric-looking and plain TEXT) against every kind of literal, NULL
// included, under every comparison in both orientations and under the
// shapes that carry their own negation, each plain and under NOT. The
// cells sit in a column of mixed kinds, stored as Values, and again split
// by kind into typed INTEGER, REAL and TEXT columns with NULLs, whose
// arrays the vector forms read. Each predicate is compiled at Prepare to
// its shape, pushed into the scan, and filtered as a whole-table scan
// (vector forms where typed) and as a selection of positions (an index
// bucket, the row forms); both must keep exactly the rows the evaluator
// finds TRUE. A negation has no vector form — it passes most rows — so
// every NOT (…) filters through its row form; every other shape with
// non-NULL literals but an IN list has one; and what has no compiled shape
// keeps to the evaluator.
func TestNegationKernelTruthTable(t *testing.T) {
	db := NewDatabase("neg")
	db.MustExec("CREATE TABLE n (c INTEGER, d INTEGER, ci INTEGER, cr REAL, ct TEXT)")
	tab, _ := db.Table("n")
	// Cells are set directly: no column affinity would keep all of these.
	for _, v := range []Value{Null(), Int(1), Int(2), Int(-3), Float(1), Float(1.5), Text("1"), Text("01"), Text("1.5"), Text("x"), Text("")} {
		row := []Value{v, Int(7), Null(), Null(), Null()}
		row[map[Kind]int{KindNull: 2, KindInt: 2, KindFloat: 3, KindText: 4}[v.Kind]] = v
		tab.appendRow(row)
	}
	lits := []string{"NULL", "1", "2", "1.5", "'1'", "'1.5'", "'x'", "''"}
	shapes := []string{"%s IS NULL", "%s IS NOT NULL", "%s LIKE '1%%'", "%s IN (NULL)"}
	for _, lit := range lits {
		for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
			shapes = append(shapes, "%s "+op+" "+lit, lit+" "+op+" %s")
		}
		for _, not := range []string{"", "NOT "} {
			shapes = append(shapes,
				"%s "+not+"BETWEEN "+lit+" AND 2",
				"%s "+not+"BETWEEN 1 AND "+lit,
				"%s "+not+"IN ("+lit+", 2)",
				"%s "+not+"LIKE "+lit)
		}
	}

	// What has no compiled shape keeps to the evaluator, negated or not.
	noShape := map[string]bool{"NOT (c = d)": true, "NOT (c + 1 = 2)": true, "NOT (c = 1 OR d = 7)": true, "NOT c": true, "c = d": true, "c + 1 = 2": true}
	ec := &execCtx{db: db}
	env := &evalEnv{ec: ec, sc: &scope{}}
	every := make([]int, tab.Len())
	for i := range every {
		every[i] = i
	}
	check := func(cond string) (vec bool) {
		t.Helper()
		sel := preparedSelect(t, db, "SELECT 1 FROM n WHERE "+cond)
		conj := sel.bound.plan.where
		if len(conj) != 1 || conj[0].scan != 0 {
			t.Fatalf("%s: not one conjunct pushed into the scan", cond)
		}
		var want []int
		for pos := range every {
			env.sc.cols, env.sc.pos = tab.cols, pos
			if ok, err := env.holds(sel.Where); err != nil {
				t.Fatal(err)
			} else if ok {
				want = append(want, pos)
			}
		}
		for name, in := range map[string]selection{
			"full scan": {src: tab.rel(), all: true},
			"positions": {src: tab.rel(), pos: every},
		} {
			out, err := ec.filter(in, conj, 0, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got []int
			for i := 0; i < out.len(); i++ {
				got = append(got, out.at(i))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s over %s keeps positions %v, the evaluator %v", cond, name, got, want)
			}
		}
		if conj[0].kern.shape == noKernel && !noShape[cond] {
			t.Errorf("%s did not compile to its shape", cond)
		}
		return conj[0].kern.vec
	}
	for _, col := range []string{"c", "ci", "cr", "ct"} {
		for _, shape := range shapes {
			if check("NOT (" + fmt.Sprintf(shape, col) + ")") {
				t.Errorf("NOT (%s) has a vector form", fmt.Sprintf(shape, col))
			}
		}
	}
	for _, cond := range []string{"NOT (c = 1)", "NOT NOT (c >= '1')", "NOT (ci = 1)", "NOT (ct >= '1')"} {
		if check(cond) {
			t.Errorf("%s has a vector form", cond)
		}
	}
	for _, col := range []string{"c", "ci", "cr", "ct"} {
		for _, shape := range shapes {
			cond := fmt.Sprintf(shape, col)
			_, inList := preparedSelect(t, db, "SELECT 1 FROM n WHERE "+cond).Where.(*InExpr)
			if vec := check(cond); vec == (inList || strings.Contains(cond, "NULL") && !strings.Contains(cond, " IS ")) {
				t.Errorf("%s: vector form %v", cond, vec)
			}
		}
	}
	for _, col := range []string{"ci", "cr", "ct"} {
		if !tab.cols[tab.ColumnIndex(col)].typed() {
			t.Errorf("column %s is not stored typed, so no vector form read it", col)
		}
	}
	if tab.cols[tab.ColumnIndex("c")].typed() {
		t.Error("the mixed column c is stored typed")
	}

	for cond := range noShape {
		if sel := preparedSelect(t, db, "SELECT 1 FROM n WHERE "+cond); sel.bound.plan.where[0].kern.shape != noKernel {
			t.Errorf("%s compiled to a shape, want the evaluator", cond)
		}
		check(cond)
	}
}
