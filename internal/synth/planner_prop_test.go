package synth

import (
	"reflect"
	"testing"

	"repro/internal/schema"
	"repro/internal/sqlengine"
)

// TestPlannerEquivalenceOnSynthCorpora is the scale extension of the
// engine's planner-on/off quick-check: randomized synthetic databases plus
// synthesized workloads are executed naive and planned, and the two must
// agree on every row AND on the logical Result.Cost (the cost model is
// defined to be independent of the physical plan — of the planner's rewrites
// and of the engine's batch and parallel execution alike). Nothing is forced:
// each corpus straddles the engine's default thresholds — loan past the one
// for fan-out (8,192 rows), client between that and the one for kernels
// (1,024), the other tables below both, where the interpreter filters — so
// every size-selected path runs as it does when served, while the naive
// nested loops stay a few million pairs.
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
		gen := func() *schema.DB {
			c, err := Generate(src, Options{Seed: seed, Rows: rows})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		naive, planned := gen(), gen()
		if Fingerprint(naive) != Fingerprint(planned) {
			t.Fatalf("trial %d: generations from seed %d differ before execution is even involved", trial, seed)
		}
		naive.Engine.SetPlanner(false)

		qs, err := Workload(naive, 25, seed)
		if err != nil {
			t.Fatal(err)
		}
		batched := false
		for _, q := range qs {
			ref, errRef := naive.Engine.Exec(q.SQL)
			got, errGot := planned.Engine.Exec(q.SQL)
			if (errRef == nil) != (errGot == nil) {
				t.Fatalf("trial %d: %q: naive err=%v, planned err=%v", trial, q.SQL, errRef, errGot)
			}
			if errRef != nil {
				continue
			}
			if !resultRowsIdentical(ref.Rows, got.Rows) {
				t.Fatalf("trial %d: %q: planned rows differ from naive\nnaive: %v\nplanned: %v",
					trial, q.SQL, ref.Rows.Data, got.Rows.Data)
			}
			if ref.Cost != got.Cost {
				t.Fatalf("trial %d: %q: logical cost differs: naive %d vs planned %d — Cost must be plan-independent",
					trial, q.SQL, ref.Cost, got.Cost)
			}
			batched = batched || got.Batches > 0
		}
		if !batched {
			t.Fatalf("trial %d: no statement ran in morsels: the corpus no longer reaches the batch thresholds", trial)
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
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if !reflect.DeepEqual(a.Data[i], b.Data[i]) {
			return false
		}
	}
	return true
}
