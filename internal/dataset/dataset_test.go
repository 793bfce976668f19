package dataset

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqlengine"
)

var (
	cachedBIRD     *Corpus
	cachedBIRDOnce sync.Once
)

// buildTestBIRD returns a shared corpus: construction executes every gold
// query, so tests reuse one build. Tests must not mutate it.
func buildTestBIRD(t *testing.T) *Corpus {
	t.Helper()
	cachedBIRDOnce.Do(func() { cachedBIRD = BuildBIRD(BIRDOptions{Seed: 7}) })
	return cachedBIRD
}

func TestBIRDCorpusShape(t *testing.T) {
	c := buildTestBIRD(t)
	if len(c.DBs) != 8 {
		t.Errorf("BIRD DBs = %d, want 8", len(c.DBs))
	}
	if len(c.Train) == 0 || len(c.Dev) == 0 {
		t.Fatalf("empty splits: train=%d dev=%d", len(c.Train), len(c.Dev))
	}
	t.Logf("BIRD train=%d dev=%d", len(c.Train), len(c.Dev))
	// Every database referenced by an example must exist.
	for _, e := range append(append([]Example{}, c.Train...), c.Dev...) {
		if _, ok := c.DB(e.DB); !ok {
			t.Fatalf("example %s references unknown DB %s", e.ID, e.DB)
		}
	}
}

func TestBIRDGoldSQLExecutes(t *testing.T) {
	c := buildTestBIRD(t)
	for _, e := range append(append([]Example{}, c.Train...), c.Dev...) {
		db := c.DBs[e.DB]
		if _, err := db.Engine.Exec(e.GoldSQL); err != nil {
			t.Fatalf("gold SQL of %s fails: %v\n%s", e.ID, err, e.GoldSQL)
		}
	}
}

func TestBIRDCorruptSQLDiffers(t *testing.T) {
	c := buildTestBIRD(t)
	for _, e := range c.Dev {
		if e.CorruptSQL == e.GoldSQL {
			t.Errorf("corrupt variant identical to gold for %s", e.ID)
		}
	}
}

func TestBIRDDeterministic(t *testing.T) {
	a := BuildBIRD(BIRDOptions{Seed: 7})
	b := BuildBIRD(BIRDOptions{Seed: 7})
	if len(a.Dev) != len(b.Dev) {
		t.Fatalf("dev sizes differ: %d vs %d", len(a.Dev), len(b.Dev))
	}
	for i := range a.Dev {
		if a.Dev[i].Question != b.Dev[i].Question || a.Dev[i].Evidence != b.Dev[i].Evidence {
			t.Fatalf("example %d differs between equal-seed builds", i)
		}
	}
}

// TestBIRDBuildCachesOnlyReads pins that the construction statements
// (thousands of CREATEs and INSERTs, each run once) stay out of the
// engines' plan caches: only the reads construction runs are kept.
func TestBIRDBuildCachesOnlyReads(t *testing.T) {
	c := BuildBIRD(BIRDOptions{Seed: 7})
	var st sqlengine.PlanCacheStats
	for _, db := range c.DBs {
		st.Add(db.Engine.PlanCacheStats())
	}
	if st.Entries >= 1000 {
		t.Errorf("plan-cache entries over the %d databases after BuildBIRD = %d, want < 1000", len(c.DBs), st.Entries)
	}
}

// BenchmarkBuildBIRD times corpus construction and reports the heap a
// built corpus retains once construction's garbage is collected
// (retained_MiB): the set-up share of a serving process's heap.
func BenchmarkBuildBIRD(b *testing.B) {
	b.ReportAllocs()
	var retained uint64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		c := BuildBIRD(BIRDOptions{Seed: 7})
		runtime.GC()
		runtime.ReadMemStats(&ms)
		retained += ms.HeapAlloc - before
		runtime.KeepAlive(c)
	}
	b.ReportMetric(float64(retained)/float64(b.N)/(1<<20), "retained_MiB")
}

func TestWrongFragsChangeResults(t *testing.T) {
	// For a healthy majority of atoms, substituting the wrong fragment
	// must change execution results (or fail); otherwise evidence cannot
	// matter. Perfect separation is not required — a wrong threshold can
	// coincide on sparse data — but it should be rare.
	c := buildTestBIRD(t)
	checked, diverged := 0, 0
	for _, e := range c.Dev {
		if len(e.Atoms) == 0 {
			continue
		}
		db := c.DBs[e.DB]
		gold, err := db.Engine.Query(e.GoldSQL)
		if err != nil {
			t.Fatal(err)
		}
		for i := range e.Atoms {
			frags := CorrectFrags(e.Atoms)
			frags[i] = e.Atoms[i].WrongFrag
			sql, err := RenderSQL(e.SQLTemplate, frags)
			if err != nil {
				t.Fatal(err)
			}
			checked++
			wrong, err := db.Engine.Query(sql)
			if err != nil || !sameRows(gold, wrong) {
				diverged++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no atoms checked")
	}
	ratio := float64(diverged) / float64(checked)
	t.Logf("wrong-frag divergence: %d/%d (%.1f%%)", diverged, checked, 100*ratio)
	// Some coincidences (0 == 0 counts on sparse slices) are expected and
	// realistic; a large majority must still diverge for evidence to
	// matter.
	if ratio < 0.70 {
		t.Errorf("only %.1f%% of wrong fragments change results; evidence would barely matter", 100*ratio)
	}
}

func sameRows(a, b *sqlengine.Rows) bool {
	if a.Len() != b.Len() {
		return false
	}
	counts := make(map[string]int)
	key := func(rows *sqlengine.Rows, i int) string {
		var sb strings.Builder
		for k := range rows.Columns {
			sb.WriteString(rows.Cell(i, k).Key())
			sb.WriteByte(0)
		}
		return sb.String()
	}
	for i := 0; i < a.Len(); i++ {
		counts[key(a, i)]++
	}
	for i := 0; i < b.Len(); i++ {
		counts[key(b, i)]--
	}
	for _, n := range counts {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestDefectRates(t *testing.T) {
	c := buildTestBIRD(t)
	audit := AuditDefects(c.Dev)
	total := len(c.Dev)
	missing := float64(audit[DefectMissing]) / float64(total)
	var erroneous int
	for _, dt := range ErroneousTypes() {
		erroneous += audit[dt]
	}
	errRate := float64(erroneous) / float64(total)
	t.Logf("defects: missing=%.2f%% erroneous=%.2f%% of %d", 100*missing, 100*errRate, total)
	if missing < 0.06 || missing > 0.14 {
		t.Errorf("missing rate %.3f outside tolerance of paper's 0.0965", missing)
	}
	if errRate < 0.04 || errRate > 0.10 {
		t.Errorf("erroneous rate %.3f outside tolerance of paper's 0.0684", errRate)
	}
}

func TestDefectiveEvidenceDiffersFromClean(t *testing.T) {
	c := buildTestBIRD(t)
	for _, e := range c.Dev {
		switch e.Defect {
		case DefectNone:
			if e.Evidence != e.CleanEvidence {
				t.Errorf("%s: clean example has altered evidence", e.ID)
			}
		case DefectMissing:
			if e.Evidence != "" {
				t.Errorf("%s: missing-defect example still has evidence", e.ID)
			}
		default:
			if e.Evidence == e.CleanEvidence || e.Evidence == "" {
				t.Errorf("%s: %v defect did not alter evidence (%q)", e.ID, e.Defect, e.Evidence)
			}
		}
	}
}

func TestCleanDevOption(t *testing.T) {
	c := BuildBIRD(BIRDOptions{Seed: 7, CleanDev: true})
	for _, e := range c.Dev {
		if e.Defect != DefectNone || e.Evidence != e.CleanEvidence {
			t.Fatalf("CleanDev build has defect %v on %s", e.Defect, e.ID)
		}
	}
}

func TestSpiderCorpusShape(t *testing.T) {
	c := BuildSpider(7)
	if len(c.DBs) != 4 {
		t.Errorf("Spider DBs = %d, want 4", len(c.DBs))
	}
	if len(c.Test) == 0 {
		t.Error("Spider must have a test split")
	}
	t.Logf("Spider train=%d dev=%d test=%d", len(c.Train), len(c.Dev), len(c.Test))
	for _, e := range append(append([]Example{}, c.Dev...), c.Test...) {
		if e.Evidence != "" {
			t.Fatalf("Spider example %s ships evidence", e.ID)
		}
	}
	for _, db := range c.DBs {
		if db.HasDescriptions() {
			t.Errorf("Spider DB %s ships description files", db.Name)
		}
	}
	for _, e := range append(append(append([]Example{}, c.Train...), c.Dev...), c.Test...) {
		db := c.DBs[e.DB]
		if _, err := db.Engine.Exec(e.GoldSQL); err != nil {
			t.Fatalf("gold SQL of %s fails: %v", e.ID, err)
		}
	}
}

func TestBIRDHasDescriptions(t *testing.T) {
	c := buildTestBIRD(t)
	for name, db := range c.DBs {
		if !db.HasDescriptions() {
			t.Errorf("BIRD DB %s lacks description files", name)
		}
	}
}

func TestAtomCategoriesPresent(t *testing.T) {
	// The corpus must exercise all four BIRD knowledge categories plus
	// joins, or the experiments cannot reproduce the paper's breakdowns.
	c := buildTestBIRD(t)
	seen := make(map[AtomKind]int)
	for _, e := range c.Dev {
		for _, a := range e.Atoms {
			seen[a.Kind]++
		}
	}
	for _, k := range []AtomKind{ValueMap, Synonym, Threshold, Formula, ColumnRef, JoinPath} {
		if seen[k] == 0 {
			t.Errorf("no %v atoms in dev split", k)
		}
	}
	t.Logf("atom census: %v", seen)
}

func TestTrainSiblingsExist(t *testing.T) {
	// Few-shot selection needs same-DB training questions; every dev
	// example's database must appear in train.
	c := buildTestBIRD(t)
	trainDBs := map[string]bool{}
	for _, e := range c.Train {
		trainDBs[e.DB] = true
	}
	for _, e := range c.Dev {
		if !trainDBs[e.DB] {
			t.Fatalf("dev example %s has no train siblings in DB %s", e.ID, e.DB)
		}
	}
}

func TestRenderSQLErrors(t *testing.T) {
	if _, err := RenderSQL("SELECT {{0}}", []string{"a", "b"}); err == nil {
		t.Error("extra fragment should error")
	}
	if _, err := RenderSQL("SELECT {{0}} {{1}}", []string{"a"}); err == nil {
		t.Error("unfilled slot should error")
	}
	out, err := RenderSQL("SELECT {{0}} FROM t WHERE x = {{1}}", []string{"a", "'v'"})
	if err != nil || out != "SELECT a FROM t WHERE x = 'v'" {
		t.Errorf("RenderSQL = %q, %v", out, err)
	}
}
