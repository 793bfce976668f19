package texttosql

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/sqlengine"
)

var (
	corpusOnce sync.Once
	corpus     *dataset.Corpus
)

func testCorpus(t *testing.T) *dataset.Corpus {
	t.Helper()
	corpusOnce.Do(func() { corpus = dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7}) })
	return corpus
}

func taskFor(t *testing.T, c *dataset.Corpus, idx int, ev string) Task {
	t.Helper()
	e := c.Dev[idx]
	db := c.DBs[e.DB]
	return Task{Example: e, DB: db, Evidence: ev}
}

func TestGeneratorsProduceExecutableSQLMostly(t *testing.T) {
	c := testCorpus(t)
	client := llm.NewSimulator()
	gens := []Generator{
		NewCHESSIRCGUT(client), NewCHESSIRSSCG(client), NewRSLSQL(client),
		NewCodeS(client, 15), NewDAILSQL(client), NewC3(client),
	}
	for _, gen := range gens {
		execOK := 0
		n := 0
		for i := 0; i < len(c.Dev); i += 10 {
			task := taskFor(t, c, i, c.Dev[i].CleanEvidence)
			sql, err := gen.Generate(task)
			if err != nil {
				t.Fatalf("%s: generate: %v", gen.Name(), err)
			}
			n++
			if _, err := task.DB.Engine.Exec(sql); err == nil {
				execOK++
			}
		}
		if execOK*100 < n*80 {
			t.Errorf("%s: only %d/%d predictions execute", gen.Name(), execOK, n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := testCorpus(t)
	gen := NewCodeS(llm.NewSimulator(), 15)
	task := taskFor(t, c, 3, c.Dev[3].CleanEvidence)
	a, err := gen.Generate(task)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.Generate(task)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("generation not deterministic:\n%s\n%s", a, b)
	}
}

func TestEvidenceResolvesValueMapAtoms(t *testing.T) {
	// With clean evidence, a ValueMap atom's code must appear in the SQL
	// for the vast majority of examples; without evidence it mostly must
	// not (the code is not guessable).
	c := testCorpus(t)
	gen := NewDAILSQL(llm.NewSimulator()) // no retrieval: isolates evidence
	withEv, withoutEv, n := 0, 0, 0
	for i := range c.Dev {
		e := c.Dev[i]
		var code string
		for _, a := range e.Atoms {
			if a.Kind == dataset.ValueMap && len(a.Value) > 3 {
				code = a.Value
				break
			}
		}
		if code == "" {
			continue
		}
		n++
		sqlEv, err := gen.Generate(taskFor(t, c, i, e.CleanEvidence))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(sqlEv, code) {
			withEv++
		}
		sqlNo, err := gen.Generate(taskFor(t, c, i, ""))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(sqlNo, code) {
			withoutEv++
		}
	}
	if n == 0 {
		t.Fatal("no value-map examples found")
	}
	if withEv*100 < n*70 {
		t.Errorf("clean evidence resolved codes in only %d/%d", withEv, n)
	}
	if withoutEv*100 > n*60 {
		t.Errorf("without evidence codes still appear in %d/%d (too guessable)", withoutEv, n)
	}
	if withEv <= withoutEv {
		t.Errorf("evidence must increase code resolution: %d vs %d", withEv, withoutEv)
	}
}

func TestFormatStrictReducesSeedStyleIngestion(t *testing.T) {
	// A strict system must ingest fewer SEED-shaped clauses (qualified
	// bodies) than a concat system with the same model.
	c := testCorpus(t)
	client := llm.NewSimulator()
	mk := func(strict float64) Generator {
		return NewGenerator(Options{
			DisplayName:  "probe",
			Model:        "gpt-4o-mini",
			FormatStrict: strict,
			Candidates:   1,
		}, client)
	}
	concat, strict := mk(0), mk(1.0)
	resolved := func(gen Generator) int {
		n := 0
		for i := range c.Dev {
			e := c.Dev[i]
			if len(e.Atoms) == 0 || e.Atoms[0].Kind != dataset.ValueMap {
				continue
			}
			// Qualified-body variant of the clean evidence.
			ev := strings.ReplaceAll(e.CleanEvidence, " refers to ", " refers to "+e.Atoms[0].Table+".")
			sql, err := gen.Generate(Task{Example: e, DB: c.DBs[e.DB], Evidence: ev})
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(sql, e.Atoms[0].Value) {
				n++
			}
		}
		return n
	}
	if rc, rs := resolved(concat), resolved(strict); rs >= rc {
		t.Errorf("strict ingestion (%d) should resolve fewer qualified clauses than concat (%d)", rs, rc)
	}
}

func TestUnitTestPicksConsistentCandidate(t *testing.T) {
	c := testCorpus(t)
	client := llm.NewSimulator()
	one := NewGenerator(Options{DisplayName: "one", Model: "chatgpt", Candidates: 1}, client)
	voted := NewGenerator(Options{DisplayName: "voted", Model: "chatgpt", Candidates: 5, UnitTest: true}, client)
	// Voting should never produce non-executable SQL more often.
	errOne, errVoted := 0, 0
	for i := 0; i < len(c.Dev); i += 7 {
		task := taskFor(t, c, i, "")
		s1, _ := one.Generate(task)
		s2, _ := voted.Generate(task)
		if _, err := task.DB.Engine.Exec(s1); err != nil {
			errOne++
		}
		if _, err := task.DB.Engine.Exec(s2); err != nil {
			errVoted++
		}
	}
	if errVoted > errOne {
		t.Errorf("unit testing should not increase execution errors: %d vs %d", errVoted, errOne)
	}
}

// TestWrapInefficientPreservesResults: the wrap keeps a query's results and
// raises the Cost VES reads, the naive reference's.
func TestWrapInefficientPreservesResults(t *testing.T) {
	c := testCorpus(t)
	reference := func(db *schema.DB, sql string) (*sqlengine.Result, error) {
		st, err := db.Engine.Prepare(sql)
		if err != nil {
			return nil, err
		}
		return st.ExecReference()
	}
	checked := 0
	for i := 0; i < len(c.Dev) && checked < 25; i += 3 {
		e := c.Dev[i]
		slow, ok := wrapInefficient(e.GoldSQL)
		if !ok {
			continue
		}
		checked++
		db := c.DBs[e.DB]
		g, err1 := reference(db, e.GoldSQL)
		s, err2 := reference(db, slow)
		if err1 != nil || err2 != nil {
			t.Fatalf("wrap broke execution for %s: %v / %v\n%s", e.ID, err1, err2, slow)
		}
		if fingerprint(g.Rows) != fingerprint(s.Rows) {
			t.Errorf("wrap changed results for %s", e.ID)
		}
		if s.Cost <= g.Cost {
			t.Errorf("wrap did not increase cost for %s (%d vs %d)", e.ID, s.Cost, g.Cost)
		}
	}
	if checked == 0 {
		t.Fatal("no queries wrapped")
	}
}

func TestRetrieverFindsValues(t *testing.T) {
	c := testCorpus(t)
	db := c.DBs["financial"]
	for _, strat := range []Strategy{StrategyScan, StrategyBM25} {
		r := NewRetriever(strat)
		frag, ok := r.FindFrag(db, dataset.Atom{
			Kind: dataset.Synonym, Term: "women", ValueDerivable: true,
		})
		if !ok || frag != "'F'" {
			t.Errorf("strategy %v: FindFrag(women) = %q, %v", strat, frag, ok)
		}
	}
}

func TestLookupDocsResolvesRangesAndMaps(t *testing.T) {
	c := testCorpus(t)
	db := c.DBs["thrombosis_prediction"]
	frag, ok := lookupDocs(db, dataset.Atom{
		Kind: dataset.Threshold, Term: "hematoclit level exceeded the normal range",
		DocDerivable: true,
	})
	if !ok || !strings.Contains(frag, ">= 52") {
		t.Errorf("lookupDocs threshold = %q, %v", frag, ok)
	}
	dbF := c.DBs["financial"]
	frag, ok = lookupDocs(dbF, dataset.Atom{
		Kind: dataset.ValueMap, Term: "weekly issuance", DocDerivable: true,
	})
	if !ok || frag != "'POPLATEK TYDNE'" {
		t.Errorf("lookupDocs value map = %q, %v", frag, ok)
	}
}

func TestCodeSSizes(t *testing.T) {
	client := llm.NewSimulator()
	for _, size := range []int{1, 3, 7, 15} {
		gen := NewCodeS(client, size)
		if gen.Name() == "" {
			t.Errorf("size %d has no name", size)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid CodeS size should panic")
		}
	}()
	NewCodeS(client, 42)
}

// TestPromptSchemaBlockPinnedPerDB: the prompt carries the database's DDL
// byte for byte, every database's own, and after the first prompt for a
// database building one no longer renders the schema (which alone costs
// 43–98 allocations on the BIRD fixtures).
func TestPromptSchemaBlockPinnedPerDB(t *testing.T) {
	c := testCorpus(t)
	p := NewCodeS(llm.NewSimulator(), 15).(*pipeline)
	seen := make(map[string]bool)
	for i := range c.Dev {
		task := taskFor(t, c, i, c.Dev[i].CleanEvidence)
		if seen[task.DB.Name] {
			continue
		}
		seen[task.DB.Name] = true
		want := "Translate the question to SQL.\n" + task.DB.DDL() +
			"\nEvidence: " + task.Evidence + "\nQuestion: " + task.Example.Question
		for range 2 {
			if got := p.buildPrompt(task); got != want {
				t.Fatalf("%s: prompt diverged from the uncached rendering\n got: %q\nwant: %q", task.DB.Name, got, want)
			}
		}
		render := testing.AllocsPerRun(20, func() { _ = task.DB.DDL() })
		if n := testing.AllocsPerRun(20, func() { _ = p.buildPrompt(task) }); n >= render {
			t.Errorf("%s: buildPrompt allocates %.0f times, rendering the DDL alone %.0f: the schema block is not pinned", task.DB.Name, n, render)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("only %d databases seen", len(seen))
	}
}

// TestValueIndexBuiltOncePerDB pins the retriever's caching contract: the
// BM25 value index is constructed on first use and then shared — repeat
// lookups (and concurrent ones) must return the very same index object,
// not rebuild it.
func TestValueIndexBuiltOncePerDB(t *testing.T) {
	c := testCorpus(t)
	db, ok := c.DB("financial")
	if !ok {
		t.Fatal("no financial DB")
	}
	r := NewRetriever(StrategyBM25)

	first := r.valueIndex(db)
	if first == nil || first.index == nil {
		t.Fatal("valueIndex returned nil index")
	}
	for i := 0; i < 5; i++ {
		if got := r.valueIndex(db); got != first {
			t.Fatalf("valueIndex rebuilt on call %d", i+2)
		}
	}

	// Concurrent searches through the public path must all land on the
	// same cached index (and not race; run with -race).
	var wg sync.WaitGroup
	results := make([]*valueIndex, 8)
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.searchBM25(db, "weekly issuance")
			results[w] = r.valueIndex(db)
		}(w)
	}
	wg.Wait()
	for w, got := range results {
		if got != first {
			t.Fatalf("worker %d saw a different valueIndex", w)
		}
	}
}

// fingerprintRows builds an n-row result in a fixed shuffled order, with
// duplicate rows, NULLs and every kind of value.
func fingerprintRows(n int) *sqlengine.Rows {
	var data [][]sqlengine.Value
	x := uint64(12345)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		var b sqlengine.Value
		switch x >> 61 {
		case 0:
			b = sqlengine.Null()
		case 1:
			b = sqlengine.Float(float64(x>>40) / 8)
		case 2:
			b = sqlengine.Text(fmt.Sprintf("t%d", x>>50))
		default:
			b = sqlengine.Int(int64(x >> 52))
		}
		data = append(data, []sqlengine.Value{sqlengine.Int(int64(x>>33) % int64(n/2+1)), b})
	}
	return sqlengine.NewRows([]string{"a", "b"}, data)
}

// TestFingerprintMatchesInsertionSort pins fingerprint's bytes to those of
// the quadratic loop it used to sort with, and its growth to a sort's: the
// served SQL returns tens of thousands of rows when it loses its LIMIT, and
// eight times the rows must not cost sixty-four times the time.
func TestFingerprintMatchesInsertionSort(t *testing.T) {
	rows := fingerprintRows(3000)
	lines := make([]string, 0, rows.Len())
	for i := 0; i < rows.Len(); i++ {
		var sb strings.Builder
		for k := range rows.Columns {
			sb.WriteString(rows.Cell(i, k).Key())
			sb.WriteByte(0)
		}
		lines = append(lines, sb.String())
	}
	for i := 1; i < len(lines); i++ {
		for j := i; j > 0 && lines[j] < lines[j-1]; j-- {
			lines[j], lines[j-1] = lines[j-1], lines[j]
		}
	}
	if got, want := fingerprint(rows), strings.Join(lines, "\x01"); got != want {
		t.Fatalf("fingerprint of %d shuffled rows differs from the insertion-sorted reference", rows.Len())
	}

	best := func(rows *sqlengine.Rows) time.Duration {
		min := time.Hour
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			fingerprint(rows)
			if d := time.Since(t0); d < min {
				min = d
			}
		}
		return min
	}
	small, large := best(rows), best(fingerprintRows(24000))
	t.Logf("fingerprint: %d rows %v, 24000 rows %v", rows.Len(), small, large)
	if large > 32*small {
		t.Errorf("fingerprint of 8x the rows took %.0fx the time (%v vs %v): quadratic again?", float64(large)/float64(small), large, small)
	}
}
