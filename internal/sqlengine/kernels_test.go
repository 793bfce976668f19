package sqlengine

import (
	"fmt"
	"testing"
)

// TestNegationKernelTruthTable pins NOT (…) kernels against the interpreter
// over the three-valued truth table: every kind of cell (NULL, INTEGER,
// REAL, numeric-looking and plain TEXT) against every kind of literal, NULL
// included, under every comparison in both orientations and under the
// shapes that carry their own negation. Each predicate is compiled for a
// selected row (an index bucket, an intermediate relation) and for a full
// scan, whose column vectors a negation must not take up: it builds none.
func TestNegationKernelTruthTable(t *testing.T) {
	db := NewDatabase("neg")
	db.MustExec("CREATE TABLE n (c INTEGER, d INTEGER)")
	tab, _ := db.Table("n")
	// Cells are set directly: no column affinity would keep all of these.
	for _, v := range []Value{Null(), Int(1), Int(2), Int(-3), Float(1), Float(1.5), Text("1"), Text("01"), Text("1.5"), Text("x"), Text("")} {
		tab.Rows = append(tab.Rows, []Value{v, Int(7)})
	}
	lits := []string{"NULL", "1", "2", "1.5", "'1'", "'1.5'", "'x'", "''"}
	var conds []string
	for _, lit := range lits {
		for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
			conds = append(conds, fmt.Sprintf("c %s %s", op, lit), fmt.Sprintf("%s %s c", lit, op))
		}
		for _, not := range []string{"", "NOT "} {
			conds = append(conds,
				fmt.Sprintf("c %sBETWEEN %s AND 2", not, lit),
				fmt.Sprintf("c %sBETWEEN 1 AND %s", not, lit),
				fmt.Sprintf("c %sIN (%s, 2)", not, lit),
				fmt.Sprintf("c %sLIKE %s", not, lit))
		}
	}
	conds = append(conds, "c IS NULL", "c IS NOT NULL", "c LIKE '1%'", "c IN (NULL)", "NOT (c = 1)", "NOT NOT (c >= '1')")

	ec := &execCtx{db: db}
	env := &evalEnv{ec: ec, sc: &scope{}}
	for _, cond := range conds {
		sel := preparedSelect(t, db, "SELECT 1 FROM n WHERE NOT ("+cond+")")
		sources := map[string]predSource{
			"row":       {},
			"full scan": {t: tab},
		}
		for name, ps := range sources {
			p := compilePred(ps, sel.Where)
			if !p.usable() {
				t.Errorf("NOT (%s) over a %s source compiled to no kernel", cond, name)
				continue
			}
			for pos, row := range tab.Rows {
				env.sc.row = row
				v, err := env.eval(sel.Where)
				if err != nil {
					t.Fatal(err)
				}
				truth, known := v.Truth()
				want := truth && known
				var got bool
				if p.byIdx != nil {
					got = p.byIdx(pos)
				} else {
					got = p.pass(cell(row, nil, p.at))
				}
				if got != want {
					t.Errorf("NOT (%s) on cell %v over a %s source: kernel %v, interpreter %v (value %v)", cond, row[0], name, got, want, v)
				}
			}
		}
	}
	if len(tab.colVecs) != 0 {
		t.Errorf("negation kernels built %d column vectors, want none", len(tab.colVecs))
	}

	// What has no kernel shape keeps its expression, negated or not.
	for _, cond := range []string{"NOT (c = d)", "NOT (c + 1 = 2)", "NOT (c = 1 OR d = 7)", "NOT c"} {
		sel := preparedSelect(t, db, "SELECT 1 FROM n WHERE "+cond)
		if p := compilePred(predSource{t: tab}, sel.Where); p.usable() || p.expr != sel.Where {
			t.Errorf("%s compiled to a kernel, want its expression kept", cond)
		}
	}
}
