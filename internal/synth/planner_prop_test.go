package synth

import (
	"reflect"
	"testing"

	"repro/internal/sqlengine"
)

// TestPlannerEquivalenceOnSynthCorpora is the scale extension of the
// engine's planned/naive quick-check: randomized synthetic databases plus
// synthesized workloads are executed on the naive reference and planned, and
// the two must agree on every row and on the error class, at a planned
// Result.Cost no greater than the reference's. Each corpus spans the sizes
// served: loan over several morsels (Result.Batches' unit of 4,096 rows),
// client in one, and the other tables below 1,024 rows — BIRD's sizes, which
// run through the same kernels — while the naive nested loops stay a few
// million pairs.
func TestPlannerEquivalenceOnSynthCorpora(t *testing.T) {
	src := financialFixture(t)
	trials := 6
	if testing.Short() {
		trials = 2
	}
	rows := ProportionalRows(src, 1500)
	rows["loan"], rows["client"] = 9000, 2000
	for trial := 0; trial < trials; trial++ {
		seed := uint64(1000 + trial*17)
		db, err := Generate(src, Options{Seed: seed, Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		qs, err := Workload(db, 25, seed)
		if err != nil {
			t.Fatal(err)
		}
		// small reports whether every table sql reads is below 1,024 rows.
		small := func(sql string) bool {
			sel, err := sqlengine.ParseSelect(sql)
			if err != nil || len(sel.From) == 0 {
				return false
			}
			for _, it := range sel.From {
				tab, ok := db.Engine.Table(it.Table)
				if it.Sub != nil || !ok || tab.Len() >= 1024 {
					return false
				}
			}
			return true
		}
		smallKernels := false
		for _, q := range qs {
			st, err := db.Engine.Prepare(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			ref, errRef := st.ExecReference()
			got, errGot := st.Exec()
			if (errRef == nil) != (errGot == nil) {
				t.Fatalf("trial %d: %q: naive err=%v, planned err=%v", trial, q.SQL, errRef, errGot)
			}
			if errRef != nil {
				continue
			}
			if !resultRowsIdentical(ref.Rows, got.Rows) {
				t.Fatalf("trial %d: %q: planned rows differ from naive\nnaive: %v\nplanned: %v",
					trial, q.SQL, rowsOf(ref.Rows), rowsOf(got.Rows))
			}
			if got.Cost > ref.Cost {
				t.Fatalf("trial %d: %q: planned Cost %d exceeds the naive reference's %d", trial, q.SQL, got.Cost, ref.Cost)
			}
			smallKernels = smallKernels || (got.Batches > 0 && small(q.SQL))
		}
		if !smallKernels {
			t.Fatalf("trial %d: no statement over tables below 1,024 rows ran kernels", trial)
		}
	}
}

func resultRowsIdentical(a, b *sqlengine.Rows) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if !reflect.DeepEqual(a.Columns, b.Columns) {
		return false
	}
	return reflect.DeepEqual(rowsOf(a), rowsOf(b))
}

// rowsOf returns a result's rows, read through Len and Cell.
func rowsOf(rows *sqlengine.Rows) [][]sqlengine.Value {
	out := make([][]sqlengine.Value, rows.Len())
	for i := range out {
		for k := range rows.Columns {
			out[i] = append(out[i], rows.Cell(i, k))
		}
	}
	return out
}
