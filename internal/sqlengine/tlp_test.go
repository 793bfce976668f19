package sqlengine

import (
	"fmt"
	"testing"
)

// TestFilterTLPNoREC holds the planned filters to two metamorphic relations
// on 60-row tables, the size of BIRD's, where every filter runs through the
// kernels. They catch three-valued-logic bugs that the naive cross-check
// cannot, because a bug in eval.go is shared by both executors:
//
//   - TLP (ternary logic partitioning, Rigger & Su, OOPSLA 2020): every row
//     makes p exactly one of true, false and NULL, so COUNT(*) equals the
//     counts under WHERE p, WHERE NOT (p) and WHERE (p) IS NULL summed;
//   - NoREC (non-optimising reference engine construction, Rigger & Su,
//     ESEC/FSE 2020): COUNT(*) … WHERE p equals
//     SUM(CASE WHEN p THEN 1 ELSE 0 END), which evaluates p per row in the
//     projection, where no filter kernel runs.
//
// p takes every kernel shape and its NOT on every column: comparisons in
// both orientations against INTEGER, REAL, TEXT and NULL literals, BETWEEN,
// IN with a NULL, LIKE, and IS [NOT] NULL; and each shape beside an
// uncorrelated EXISTS conjunct, true or false, which the planned WHERE
// settles apart from the kernels while TLP's NOT (p) and (p) IS NULL arms,
// where the EXISTS is nested, stay interpreted. The frames reach each
// kernel form: a full scan (column vectors), an index bucket (cells read
// from the rows) and a LEFT JOIN's null-extended pairs (the right side's
// cells, filtered after the join) — each on the fixture and on a frozen
// build of it, whose low-cardinality TEXT columns (t.grp, g's, acc.kind)
// the coded forms read.
func TestFilterTLPNoREC(t *testing.T) {
	frames := []struct {
		from, where string // where: a conjunct ANDed in front of p, or ""
		cols        []string
	}{
		{"t", "", []string{"id", "grp", "num", "flag"}},
		{"t", "flag = 1", []string{"id", "grp", "num"}},
		{"g", "", []string{"grp", "label", "weight"}},
		{"acc", "", []string{"id", "t_id", "num_text", "kind"}},
		{"m", "", []string{"id", "a", "b", "mixed", "nul", "v"}},
		{"m", "a = 1", []string{"b", "mixed", "nul", "v"}},
		{"t LEFT JOIN g ON t.grp = g.grp", "", []string{"g.grp", "g.label", "g.weight", "t.num"}},
	}
	shapes := []string{
		"%s BETWEEN 1 AND 50", "%s BETWEEN 'a' AND 'c'", "%s BETWEEN NULL AND 5",
		"%s IN (1, 'a', NULL)", "%s IN (2, 3.5, 'b')",
		"%s LIKE 'a%%'", "%s LIKE '%%1%%'", "%s LIKE NULL",
		"%s IS NULL", "%s IS NOT NULL",
	}
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		for _, lit := range []string{"2", "1.5", "'a'", "'10'", "NULL"} {
			shapes = append(shapes, "%s "+op+" "+lit, lit+" "+op+" %s")
		}
	}
	for _, seed := range []int64{1, 7, 42} {
		for _, frozen := range []bool{false, true} {
			label := fmt.Sprintf("seed %d", seed)
			db := buildMultiDB(seed, 60)
			if frozen {
				label += ", frozen"
				db.Freeze()
			}
			count := func(sql string) int64 {
				t.Helper()
				res, err := db.Exec(sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				return res.Rows.Cell(0, 0).I // SUM over no row is NULL: 0
			}
			for _, f := range frames {
				and := func(p string) string {
					if f.where == "" {
						return p
					}
					return f.where + " AND " + p
				}
				from := " FROM " + f.from
				all := "SELECT COUNT(*)" + from
				if f.where != "" {
					all += " WHERE " + f.where
				}
				total := count(all)
				for _, col := range f.cols {
					for _, shape := range shapes {
						p := fmt.Sprintf(shape, col)
						for _, p := range []string{
							p, "NOT (" + p + ")",
							// The uncorrelated EXISTS conjuncts the planner
							// settles apart from p's kernels: constant true,
							// true by an empty body, and false.
							p + " AND EXISTS (SELECT 1 FROM t)",
							p + " AND NOT EXISTS (SELECT 1 FROM g WHERE weight > 1000)",
							"EXISTS (SELECT 1 FROM g WHERE weight > 1000) AND " + p,
						} {
							where := "SELECT COUNT(*)" + from + " WHERE " + and(p)
							res, err := db.Exec(where)
							if err != nil {
								t.Fatalf("%s: %v", where, err)
							}
							// Only an equality whose index bucket is empty leaves
							// nothing to filter.
							n := res.Rows.Cell(0, 0).I
							if n > 0 && res.Batches < 1 {
								t.Errorf("%s: counts %d rows but ran no kernel (Batches 0)", where, n)
							}
							parts := n + count("SELECT COUNT(*)"+from+" WHERE "+and("NOT ("+p+")")) +
								count("SELECT COUNT(*)"+from+" WHERE "+and("("+p+") IS NULL"))
							if parts != total {
								t.Errorf("%s: TLP: %s counts %d, but p, NOT (p) and (p) IS NULL count %d for p = %s", label, all, total, parts, p)
							}
							norec := "SELECT SUM(CASE WHEN " + p + " THEN 1 ELSE 0 END)" + from
							if f.where != "" {
								norec += " WHERE " + f.where
							}
							if got := count(norec); got != n {
								t.Errorf("%s: NoREC: %s counts %d, %s sums %d", label, where, n, norec, got)
							}
						}
					}
				}
			}
		}
	}
}
