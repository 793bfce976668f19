package seed

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/evidence"
	"repro/internal/llm"
)

var (
	birdOnce sync.Once
	birdCorp *dataset.Corpus
)

func testCorpus(t *testing.T) *dataset.Corpus {
	t.Helper()
	birdOnce.Do(func() { birdCorp = dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7}) })
	return birdCorp
}

func gptPipeline(t *testing.T) *Pipeline {
	t.Helper()
	return New(ConfigGPT(), llm.NewSimulator(), testCorpus(t))
}

func deepseekPipeline(t *testing.T) *Pipeline {
	t.Helper()
	return New(ConfigDeepSeek(), llm.NewSimulator(), testCorpus(t))
}

func TestExtractKeywords(t *testing.T) {
	p := gptPipeline(t)
	kws, _, err := p.extractKeywords("Among the weekly issuance accounts, how many have a loan of under 200000?")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.ToLower(strings.Join(kws, "|"))
	for _, want := range []string{"weekly issuance", "loan"} {
		if !strings.Contains(joined, want) {
			t.Errorf("keywords missing %q: %v", want, kws)
		}
	}
}

func TestSampleExecutionFindsValues(t *testing.T) {
	p := gptPipeline(t)
	c := testCorpus(t)
	db := c.DBs["financial"]
	samples := p.SampleExecution(db, []string{"Jesenik", "women"})
	foundDistrict, foundGender := false, false
	for _, s := range samples {
		if s.Keyword == "Jesenik" && strings.EqualFold(s.Column, "A2") && s.Value == "Jesenik" {
			foundDistrict = true
		}
		if s.Keyword == "women" && strings.EqualFold(s.Column, "gender") && s.Value == "F" {
			foundGender = true
		}
	}
	if !foundDistrict {
		t.Errorf("sampling did not locate 'Jesenik' in district.A2: %+v", samples)
	}
	if !foundGender {
		t.Errorf("sampling did not map 'women' to gender 'F' via synonyms: %+v", samples)
	}
}

func TestSampleExecutionEditDistance(t *testing.T) {
	p := gptPipeline(t)
	db := testCorpus(t).DBs["financial"]
	// A misspelled district still matches by edit distance.
	samples := p.SampleExecution(db, []string{"Jesenik"})
	if len(samples) == 0 {
		t.Fatal("no samples for exact keyword")
	}
	fuzzy := p.SampleExecution(db, []string{"Jesennik"})
	ok := false
	for _, s := range fuzzy {
		if s.Value == "Jesenik" {
			ok = true
		}
	}
	if !ok {
		t.Errorf("edit-distance retrieval failed for 'Jesennik': %+v", fuzzy)
	}
}

func TestFewShotSelection(t *testing.T) {
	p := gptPipeline(t)
	c := testCorpus(t)
	// Pick a dev question; its train siblings share the template.
	var devQ dataset.Example
	for _, e := range c.Dev {
		if e.DB == "financial" && len(e.Atoms) > 0 {
			devQ = e
			break
		}
	}
	shots := p.SelectFewShots(devQ.Question, devQ.DB)
	if len(shots) != 5 {
		t.Fatalf("shots = %d, want 5", len(shots))
	}
	// The top shot should be lexically related to the query.
	top := strings.ToLower(shots[0].Question)
	overlap := 0
	for _, w := range strings.Fields(strings.ToLower(devQ.Question)) {
		if strings.Contains(top, w) {
			overlap++
		}
	}
	if overlap < 3 {
		t.Errorf("top shot looks unrelated:\nquery: %s\nshot:  %s", devQ.Question, shots[0].Question)
	}
}

func TestGenerateEvidenceValueMap(t *testing.T) {
	p := gptPipeline(t)
	ev, err := p.GenerateEvidence("financial", "Among the weekly issuance accounts, how many have a loan of under 200000?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ev, "POPLATEK TYDNE") {
		t.Errorf("generated evidence misses the weekly issuance code: %q", ev)
	}
	if evidence.HasJoins(ev) {
		t.Errorf("GPT variant must not emit join hints: %q", ev)
	}
}

func TestGenerateEvidenceThreshold(t *testing.T) {
	p := gptPipeline(t)
	ev, err := p.GenerateEvidence("thrombosis_prediction",
		"How many laboratory examinations show that the hematoclit level exceeded the normal range?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ev, "hct >= 52") {
		t.Errorf("generated evidence misses the HCT threshold: %q", ev)
	}
}

func TestGenerateEvidenceSynonym(t *testing.T) {
	p := gptPipeline(t)
	ev, err := p.GenerateEvidence("financial", "How many clients who opened their accounts in the Jesenik branch are women?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ev, "gender = 'F'") {
		t.Errorf("generated evidence misses the women -> 'F' synonym: %q", ev)
	}
}

func TestDeepSeekEmitsJoinHints(t *testing.T) {
	// The deepseek brain drops clauses stochastically (capability noise),
	// so assert over several magnet questions: joins must always appear,
	// and the magnet flag clause must survive in the clear majority.
	p := deepseekPipeline(t)
	questions := []string{
		"Among schools with SAT test takers of over 300, how many are magnet schools or offer a magnet program?",
		"Among schools with SAT test takers of over 400, how many are magnet schools or offer a magnet program?",
		"Among schools with SAT test takers of over 500, how many are magnet schools or offer a magnet program?",
		"Among schools with SAT test takers of over 600, how many are magnet schools or offer a magnet program?",
		"Among schools with SAT test takers of over 700, how many are magnet schools or offer a magnet program?",
	}
	joins, flags := 0, 0
	for _, q := range questions {
		ev, err := p.GenerateEvidence("california_schools", q)
		if err != nil {
			t.Fatal(err)
		}
		if evidence.HasJoins(ev) {
			joins++
		}
		if strings.Contains(ev, "Magnet = 1") {
			flags++
		}
	}
	if joins != len(questions) {
		t.Errorf("deepseek variant should always emit join hints (Table VI): %d/%d", joins, len(questions))
	}
	if flags < 3 {
		t.Errorf("magnet flag clause dropped too often: %d/%d", flags, len(questions))
	}
}

func TestReviseStripsJoins(t *testing.T) {
	p := deepseekPipeline(t)
	ev := "magnet refers to Magnet = 1; join on satscores.cds = schools.CDSCode"
	revised, err := p.Revise(ev)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(revised, "join on") {
		t.Errorf("revision left a join clause: %q", revised)
	}
	if !strings.Contains(revised, "Magnet = 1") {
		t.Errorf("revision dropped a non-join clause: %q", revised)
	}
	// Empty evidence passes through.
	if r, err := p.Revise(""); err != nil || r != "" {
		t.Errorf("empty revision = %q, %v", r, err)
	}
}

func TestGenerateEvidenceDeterministic(t *testing.T) {
	p := gptPipeline(t)
	q := "How many clients who opened their accounts in the Jesenik branch are women?"
	a, err := p.GenerateEvidence("financial", q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.GenerateEvidence("financial", q)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("generation not deterministic:\n%q\n%q", a, b)
	}
}

func TestGenerateEvidenceUnknownDB(t *testing.T) {
	p := gptPipeline(t)
	if _, err := p.GenerateEvidence("nonexistent", "question"); err == nil {
		t.Error("unknown database should error")
	}
}

func TestDescribeDatabaseSpider(t *testing.T) {
	spider := dataset.BuildSpider(7)
	p := New(ConfigGPT(), llm.NewSimulator(), spider)
	db := spider.DBs["pets_1"]
	if db.HasDescriptions() {
		t.Fatal("spider DB should start without docs")
	}
	if err := p.DescribeDatabase(db); err != nil {
		t.Fatal(err)
	}
	if !db.HasDescriptions() {
		t.Fatal("DescribeDatabase produced no docs")
	}
	td, ok := db.Doc("student")
	if !ok {
		t.Fatal("student doc missing")
	}
	sex, ok := td.ColumnDoc("sex")
	if !ok {
		t.Fatal("sex column doc missing")
	}
	if sex.ValueMap["F"] != "female" || sex.ValueMap["M"] != "male" {
		t.Errorf("sex value map = %v, want female/male glosses", sex.ValueMap)
	}
}

func TestSummarizationDropsIrrelevantTables(t *testing.T) {
	p := deepseekPipeline(t)
	c := testCorpus(t)
	db := c.DBs["financial"]
	visible := p.visibleTables(db, "")
	kept, _, err := p.summarizeSchema(db, "How many loans belong to clients in debt?", visible)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) == 0 || len(kept) > len(visible) {
		t.Fatalf("summarization kept %d of %d", len(kept), len(visible))
	}
	names := make(map[string]bool)
	for _, tv := range kept {
		names[strings.ToLower(tv.Table.Name)] = true
	}
	if !names["loan"] {
		t.Errorf("summarization dropped the loan table: %v", names)
	}
}

func TestParseRange(t *testing.T) {
	lo, hi, ok := parseRange("Normal range: 29 < N < 52")
	if !ok || lo != "29" || hi != "52" {
		t.Errorf("parseRange = %q %q %v", lo, hi, ok)
	}
	lo, hi, ok = parseRange("Normal range: N < 180")
	if !ok || lo != "" || hi != "180" {
		t.Errorf("parseRange one-sided = %q %q %v", lo, hi, ok)
	}
	if _, _, ok := parseRange("no colon here"); ok {
		t.Error("malformed range should not parse")
	}
}
