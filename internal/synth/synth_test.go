package synth

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/schema"
	"repro/internal/sqlengine"
)

// financialFixture returns the BIRD financial database — five tables, a
// diamond-shaped FK graph — as the canonical generator input.
func financialFixture(t testing.TB) *schema.DB {
	t.Helper()
	c := dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7, CleanDev: true})
	db, ok := c.DB("financial")
	if !ok {
		t.Fatal("BIRD corpus lost its financial database")
	}
	return db
}

func TestGenerateDeterministic(t *testing.T) {
	src := financialFixture(t)
	rows := map[string]int{"district": 50, "account": 400, "client": 500, "disp": 500, "loan": 300}

	// Different worker and batch configurations must yield identical bytes.
	configs := []Options{
		{Seed: 42, Rows: rows, Workers: 1, BatchSize: 64},
		{Seed: 42, Rows: rows, Workers: 8, BatchSize: 64},
		{Seed: 42, Rows: rows, Workers: 4, BatchSize: 1000},
	}
	var first uint64
	for i, opt := range configs {
		db, err := Generate(src, opt)
		if err != nil {
			t.Fatal(err)
		}
		fp := Fingerprint(db)
		if i == 0 {
			first = fp
		} else if fp != first {
			t.Fatalf("config %d: fingerprint %#x differs from %#x — generation depends on workers/batch size", i, fp, first)
		}
	}

	// And a different seed must actually change the output.
	db, err := Generate(src, Options{Seed: 43, Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(db) == first {
		t.Fatal("seed 43 produced the same bytes as seed 42")
	}
}

// TestGenerateGoldenFingerprint pins the exact output of seed 42 over the
// financial fixture. If this fails, the generator's byte stream changed:
// either bump the constant deliberately (and say so in the commit) or fix
// the regression.
func TestGenerateGoldenFingerprint(t *testing.T) {
	src := financialFixture(t)
	db, err := Generate(src, Options{
		Seed: 42,
		Rows: map[string]int{"district": 20, "account": 100, "client": 100, "disp": 100, "loan": 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = goldenFingerprint
	if got := Fingerprint(db); got != want {
		t.Fatalf("golden fingerprint changed: got %#x, want %#x", got, want)
	}
}

func TestGenerateFKConsistentSmall(t *testing.T) {
	src := financialFixture(t)
	db, err := Generate(src, Options{Seed: 9, Rows: ProportionalRows(src, 5000)})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFK(db); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateMillionRowsFKConsistent is the acceptance-criteria test:
// one million total rows, every child key resolving. Heavy (seconds), so
// it only runs in the full suite.
func TestGenerateMillionRowsFKConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("million-row generation in -short mode")
	}
	src := financialFixture(t)
	rows := ProportionalRows(src, 1_000_000)
	total := 0
	for _, n := range rows {
		total += n
	}
	if total != 1_000_000 {
		t.Fatalf("ProportionalRows summed to %d, want exactly 1000000", total)
	}
	db, err := Generate(src, Options{Seed: 1, Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFK(db); err != nil {
		t.Fatal(err)
	}
	for name, want := range rows {
		tab, ok := db.Engine.Table(name)
		if !ok {
			t.Fatalf("generated database lost table %s", name)
		}
		if len(tab.Rows) != want {
			t.Fatalf("table %s has %d rows, want %d", name, len(tab.Rows), want)
		}
	}
}

func TestProportionalRowsCapsDimensions(t *testing.T) {
	src := financialFixture(t)
	rows := ProportionalRows(src, 1_000_000)
	// district is a pure dimension table (referenced, references nothing):
	// it must stay small enough that fact-to-dimension joins fit the naive
	// reference's 50M-pair cost budget at a million fact rows.
	if rows["district"] > 128 {
		t.Fatalf("dimension table district got %d rows, cap is 128", rows["district"])
	}
	total := 0
	for _, n := range rows {
		total += n
	}
	if total != 1_000_000 {
		t.Fatalf("total %d, want exactly 1000000", total)
	}
}

func TestGeneratePreservesSchemaAndDocs(t *testing.T) {
	src := financialFixture(t)
	db, err := Generate(src, Options{Seed: 5, Rows: map[string]int{"district": 10, "account": 20, "client": 20, "disp": 20, "loan": 10}})
	if err != nil {
		t.Fatal(err)
	}
	if db.DDL() != src.DDL() {
		t.Fatal("generated database renders different DDL than its source")
	}
	if !db.HasDescriptions() {
		t.Fatal("generated database lost the description files")
	}
	// Documented code sets must be respected: frequency only emits BIRD's
	// three issuance codes.
	rows, err := db.Engine.Query("SELECT DISTINCT frequency FROM account ORDER BY frequency")
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{"POPLATEK MESICNE": true, "POPLATEK PO OBRATU": true, "POPLATEK TYDNE": true}
	for _, r := range rows.Data {
		if !r[0].IsNull() && !valid[r[0].S] {
			t.Fatalf("account.frequency emitted undocumented code %q", r[0].S)
		}
	}
}

func TestVerifyFKCatchesViolation(t *testing.T) {
	src := financialFixture(t)
	db, err := Generate(src, Options{Seed: 2, Rows: map[string]int{"district": 5, "account": 10, "client": 10, "disp": 10, "loan": 5}})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one child key to a value no parent has.
	tab, _ := db.Engine.Table("loan")
	ci := tab.ColumnIndex("account_id")
	tab.Rows[0][ci] = sqlengine.Int(999999)
	if err := VerifyFK(db); err == nil {
		t.Fatal("VerifyFK missed a dangling loan.account_id")
	}
}

// TestValueKeyMatchesSQLEquality: an INTEGER and a REAL share an FK key iff
// Compare holds them equal, out-of-range REALs included (no platform's
// int64(f) decides it).
func TestValueKeyMatchesSQLEquality(t *testing.T) {
	cases := []struct {
		a, b sqlengine.Value
	}{
		{sqlengine.Int(3), sqlengine.Float(3)},
		{sqlengine.Int(3), sqlengine.Float(3.5)},
		{sqlengine.Int(0), sqlengine.Float(math.Copysign(0, -1))},
		{sqlengine.Int(math.MinInt64), sqlengine.Float(-0x1p63)},
		{sqlengine.Int(math.MaxInt64), sqlengine.Float(0x1p63)},
		{sqlengine.Int(math.MaxInt64), sqlengine.Float(1e20)},
		{sqlengine.Int(math.MinInt64), sqlengine.Float(-1e20)},
		{sqlengine.Int(0), sqlengine.Float(math.NaN())},
	}
	for _, c := range cases {
		want := sqlengine.Compare(c.a, c.b) == 0 && !math.IsNaN(c.b.Real())
		if got := valueKey(c.a) == valueKey(c.b); got != want {
			t.Errorf("valueKey(%v) == valueKey(%v) is %v, want %v", c.a, c.b, got, want)
		}
	}
}

// BenchmarkGenerate100k builds financial at 100k rows — the corpus the
// scan100k_warm workload serves — and reports the heap the generated
// database retains.
func BenchmarkGenerate100k(b *testing.B) {
	src := financialFixture(b)
	rows := ProportionalRows(src, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	var retained uint64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		db, err := Generate(src, Options{Seed: 7, Rows: rows})
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		retained += ms.HeapAlloc - before
		runtime.KeepAlive(db)
	}
	b.ReportMetric(float64(retained)/float64(b.N)/(1<<20), "retained_MiB")
}
