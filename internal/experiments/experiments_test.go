package experiments

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/seed"
	"repro/internal/texttosql"
)

var (
	envOnce sync.Once
	env     *Env
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() { env = NewEnv(7) })
	return env
}

func TestFig2MatchesPaperRates(t *testing.T) {
	tab := Fig2(testEnv(t))
	var missing, erroneous float64
	for _, row := range tab.Rows {
		share, _ := strconv.ParseFloat(strings.TrimSuffix(row[2], "%"), 64)
		switch row[0] {
		case "missing evidence":
			missing = share
		case "erroneous evidence":
			erroneous = share
		}
	}
	// The quota-based injector should land within half a point of the
	// paper's 9.65% / 6.84%.
	if missing < 9.1 || missing > 10.2 {
		t.Errorf("missing rate %.2f%%, paper 9.65%%", missing)
	}
	if erroneous < 6.3 || erroneous > 7.4 {
		t.Errorf("erroneous rate %.2f%%, paper 6.84%%", erroneous)
	}
}

func TestTable1CoversErrorTypes(t *testing.T) {
	tab := Table1(testEnv(t))
	if len(tab.Rows) < 5 {
		t.Errorf("Table I shows only %d error types", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[2] == row[3] {
			t.Errorf("defective and revised evidence identical for %s", row[0])
		}
	}
}

func TestTable2CorrectionHelpsAndIsMonotone(t *testing.T) {
	tab := Table2(testEnv(t))
	if len(tab.Rows) != 4 {
		t.Fatalf("Table II rows = %d, want 4 (CodeS sizes)", len(tab.Rows))
	}
	prev := 101.0
	for _, row := range tab.Rows {
		bad, _ := strconv.ParseFloat(row[1], 64)
		good, _ := strconv.ParseFloat(strings.Fields(row[2])[0], 64)
		if good <= bad {
			t.Errorf("%s: corrected evidence must beat defective (%v vs %v)", row[0], good, bad)
		}
		if good > prev+1e-9 {
			t.Errorf("corrected EX not monotone in size at %s", row[0])
		}
		prev = good
	}
}

func TestTable3CountsAllCategories(t *testing.T) {
	tab := Table3(testEnv(t))
	for _, row := range tab.Rows {
		n, _ := strconv.Atoi(row[1])
		if n == 0 {
			t.Errorf("category %s has zero clauses", row[0])
		}
	}
}

func TestTable6ShowsJoinDifference(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: run without -short")
	}
	e := testEnv(t)
	tab := Table6(e)
	if len(tab.Rows) < 4 {
		t.Fatalf("Table VI incomplete: %d rows", len(tab.Rows))
	}
	var ds, rev string
	for _, row := range tab.Rows {
		switch row[0] {
		case "SEED_deepseek":
			ds = row[1]
		case "SEED_revised":
			rev = row[1]
		}
	}
	if !strings.Contains(ds, "join on") {
		t.Errorf("deepseek evidence lacks join clause: %q", ds)
	}
	if strings.Contains(rev, "join on") {
		t.Errorf("revised evidence still has join clause: %q", rev)
	}
}

// TestTable4Shape asserts the paper's qualitative orderings on a sampled
// run (README "Paper artefact → driver map"): evidence omission degrades
// everyone, DAIL-SQL degrades most, CodeS profits at least as much from SEED
// as from gold evidence, and SEED_revised beats SEED_deepseek for CHESS.
func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: run without -short")
	}
	e := testEnv(t)
	dev := sampleEvery(e.BIRD.Dev, 3)
	gptEv := eval.FromMap(e.BIRDSeedEvidence(seed.VariantGPT))
	dsEv := eval.FromMap(e.BIRDSeedEvidence(seed.VariantDeepSeek))

	type res struct{ none, bird, gpt, ds float64 }
	measure := func(gen texttosql.Generator) res {
		return res{
			none: e.birdRunner.Evaluate(gen, dev, eval.NoEvidence).EX,
			bird: e.birdRunner.Evaluate(gen, dev, eval.ProvidedEvidence).EX,
			gpt:  e.birdRunner.Evaluate(gen, dev, gptEv).EX,
			ds:   e.birdRunner.Evaluate(gen, dev, dsEv).EX,
		}
	}
	chess := measure(texttosql.NewCHESSIRCGUT(e.Client))
	codes := measure(texttosql.NewCodeS(e.Client, 15))
	dail := measure(texttosql.NewDAILSQL(e.Client))

	for name, r := range map[string]res{"chess": chess, "codes": codes, "dail": dail} {
		if r.bird <= r.none {
			t.Errorf("%s: gold evidence should beat no evidence (%v vs %v)", name, r.bird, r.none)
		}
	}
	if dail.bird-dail.none <= chess.bird-chess.none {
		t.Errorf("DAIL-SQL must degrade hardest without evidence (dail %+.1f vs chess %+.1f)",
			dail.bird-dail.none, chess.bird-chess.none)
	}
	if codes.gpt < codes.none {
		t.Errorf("CodeS with SEED_gpt must beat no evidence (%v vs %v)", codes.gpt, codes.none)
	}
	// SEED as substitute: CodeS recovers at least 70% of the gold-evidence
	// gain; CHESS's deepseek variant recovers far less (format
	// sensitivity), staying within 3 points of no-evidence.
	if codes.gpt-codes.none < 0.7*(codes.bird-codes.none) {
		t.Errorf("CodeS SEED gain too small: %+.1f vs gold %+.1f", codes.gpt-codes.none, codes.bird-codes.none)
	}
	if chess.ds > chess.none+3 {
		t.Errorf("CHESS with SEED_deepseek should hover at/below no-evidence (%v vs %v)", chess.ds, chess.none)
	}
}

func TestFig3TraceRuns(t *testing.T) {
	out := Fig3Trace(testEnv(t))
	if !strings.Contains(out, "seed_gpt") || !strings.Contains(out, "seed_deepseek") {
		t.Errorf("trace misses variants: %s", out)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	out := tab.Render()
	for _, want := range []string{"T\n", "a", "bb", "1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSampleEvery(t *testing.T) {
	xs := make([]dataset.Example, 10)
	if got := len(sampleEvery(xs, 3)); got != 4 {
		t.Errorf("sampleEvery(10,3) = %d, want 4", got)
	}
	if got := len(sampleEvery(xs, 1)); got != 10 {
		t.Errorf("sampleEvery(10,1) = %d, want 10", got)
	}
}

// TestEvidenceAccessorsConcurrent exercises the lazy service construction
// and stats snapshot from concurrent goroutines — under -race this guards
// Env's lock discipline around the evidence services.
func TestEvidenceAccessorsConcurrent(t *testing.T) {
	e := testEnv(t)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if m := e.BIRDSeedEvidence(seed.VariantGPT); len(m) == 0 {
				t.Error("empty gpt evidence map")
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if m := e.BIRDRevisedEvidence(); len(m) == 0 {
				t.Error("empty revised evidence map")
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = e.EvidenceStats()
			_ = ThroughputReport(e).Render()
		}()
	}
	wg.Wait()
	if got := len(e.EvidenceStats()); got < 2 {
		t.Errorf("EvidenceStats lists %d services, want >= 2", got)
	}
}

func TestPipelineStageReportAndTracedAccessor(t *testing.T) {
	e := testEnv(t)
	ex := e.BIRD.Dev[0]
	ev, err := e.BIRDSeedEvidenceTraced(context.Background(), seed.VariantGPT, ex.DB, ex.Question)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Text == "" || ev.Trace == nil {
		t.Fatalf("traced accessor = %+v, want evidence with trace", ev)
	}
	// The offline batch accessor and the traced per-question accessor
	// answer from the same service, so the bytes must agree.
	if batch := e.BIRDSeedEvidence(seed.VariantGPT); batch[ex.ID] != ev.Text {
		t.Errorf("traced evidence %q != batch evidence %q", ev.Text, batch[ex.ID])
	}
	report := PipelineStageReport(e).Render()
	for _, stage := range []string{seed.StageKeywords, seed.StageSamples, seed.StageSchema, seed.StageShots, seed.StageGenerate} {
		if !strings.Contains(report, stage) {
			t.Errorf("stage report missing %s:\n%s", stage, report)
		}
	}
	if !strings.Contains(report, string(seed.VariantGPT)) {
		t.Errorf("stage report missing variant column:\n%s", report)
	}
}
