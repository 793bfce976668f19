package eval

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/sqlengine"
	"repro/internal/texttosql"
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

func rows(cols []string, data ...[]sqlengine.Value) *sqlengine.Rows {
	return sqlengine.NewRows(cols, data)
}

func TestResultsEqual(t *testing.T) {
	a := rows([]string{"x"}, []sqlengine.Value{sqlengine.Int(1)}, []sqlengine.Value{sqlengine.Int(2)})
	b := rows([]string{"x"}, []sqlengine.Value{sqlengine.Int(2)}, []sqlengine.Value{sqlengine.Int(1)})
	if !ResultsEqual(a, b, false) {
		t.Error("unordered comparison should accept permuted rows")
	}
	if ResultsEqual(a, b, true) {
		t.Error("ordered comparison should reject permuted rows")
	}
	c := rows([]string{"x"}, []sqlengine.Value{sqlengine.Int(1)})
	if ResultsEqual(a, c, false) {
		t.Error("different cardinality should not compare equal")
	}
	d := rows([]string{"x"}, []sqlengine.Value{sqlengine.Text("1")}, []sqlengine.Value{sqlengine.Int(2)})
	if ResultsEqual(a, d, false) {
		t.Error("1 and '1' are different values")
	}
}

func TestJudgeScoresGoldAsCorrect(t *testing.T) {
	c := testCorpus(t)
	r := NewRunner(c)
	for i := 0; i < len(c.Dev); i += 9 {
		e := c.Dev[i]
		db := c.DBs[e.DB]
		o := r.Judge.Score(db, e, e.GoldSQL)
		if !o.Correct {
			t.Fatalf("gold SQL must score correct for %s", e.ID)
		}
		if ratio := r.efficiency(db, e.GoldSQL, e.GoldSQL); ratio != 1 {
			t.Errorf("gold-vs-gold efficiency ratio = %v, want 1", ratio)
		}
	}
}

// TestEfficiencyReadsTheReference: VES's ratio is computed from the naive
// reference's Cost, not from whatever plan the engine ran. Over two
// 10-row tables joined on a unique key, the planned Costs of the join and
// of the join behind an always-true EXISTS are 30 and 40 (scans plus hash
// probes, plus the body's scan), which would make the ratio sqrt(30/40);
// the reference's are 20+100 and 20+100+10.
func TestEfficiencyReadsTheReference(t *testing.T) {
	eng := sqlengine.NewDatabase("ves")
	eng.MustExec("CREATE TABLE a (k INTEGER)")
	eng.MustExec("CREATE TABLE b (k INTEGER)")
	for i := range 10 {
		eng.MustExec(fmt.Sprintf("INSERT INTO a VALUES (%d)", i))
		eng.MustExec(fmt.Sprintf("INSERT INTO b VALUES (%d)", i))
	}
	db := &schema.DB{Name: "ves", Engine: eng}
	const gold = "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k"
	const slow = gold + " WHERE EXISTS (SELECT 1 FROM a)"
	for sql, want := range map[string]int64{gold: 30, slow: 40} {
		if res := eng.MustExec(sql); res.Cost != want {
			t.Errorf("planned Cost of %q = %d, want %d", sql, res.Cost, want)
		}
	}
	r := NewRunner(&dataset.Corpus{})
	if got, want := r.efficiency(db, gold, slow), math.Sqrt(120.0/130.0); got != want {
		t.Errorf("efficiency = %v, want sqrt(120/130) = %v", got, want)
	}

	// An 8,000-row self equi-join answers on the planned engine, while its
	// naive nested loop exceeds the cost budget: no efficiency credit.
	eng.MustExec("CREATE TABLE c (k INTEGER)")
	big := make([][]sqlengine.Value, 8000)
	for i := range big {
		big[i] = []sqlengine.Value{sqlengine.Int(int64(i))}
	}
	if _, err := eng.BulkInsert("c", big); err != nil {
		t.Fatal(err)
	}
	const join = "SELECT COUNT(*) FROM c AS x JOIN c AS y ON x.k = y.k"
	if _, err := eng.Exec(join); err != nil {
		t.Fatal(err)
	}
	if got := r.efficiency(db, join, join); got != 0 {
		t.Errorf("efficiency of a statement whose reference exceeds the cost budget = %v, want 0", got)
	}
}

func TestJudgeScoresCorruptAsWrongMostly(t *testing.T) {
	c := testCorpus(t)
	j := NewJudge()
	wrong, n := 0, 0
	for i := 0; i < len(c.Dev); i += 5 {
		e := c.Dev[i]
		o := j.Score(c.DBs[e.DB], e, e.CorruptSQL)
		n++
		if !o.Correct {
			wrong++
		}
	}
	if wrong*100 < n*70 {
		t.Errorf("corrupt SQL scored correct too often: %d/%d wrong", wrong, n)
	}
}

func TestJudgeExecError(t *testing.T) {
	c := testCorpus(t)
	j := NewJudge()
	e := c.Dev[0]
	o := j.Score(c.DBs[e.DB], e, "SELECT FROM nonsense")
	if o.Correct || !o.ExecError {
		t.Errorf("unparsable SQL should be an exec error: %+v", o)
	}
}

// goldGen always emits the gold query: the EX ceiling.
type goldGen struct{}

func (goldGen) Name() string                              { return "gold" }
func (goldGen) Generate(t texttosql.Task) (string, error) { return t.Example.GoldSQL, nil }

// corruptGen always emits the corrupt variant: the EX floor.
type corruptGen struct{}

func (corruptGen) Name() string                              { return "corrupt" }
func (corruptGen) Generate(t texttosql.Task) (string, error) { return t.Example.CorruptSQL, nil }

func TestRunnerCeilingAndFloor(t *testing.T) {
	c := testCorpus(t)
	r := NewRunner(c)
	sample := c.Dev[:80]
	top := r.Evaluate(goldGen{}, sample, NoEvidence)
	if top.EX != 100 {
		t.Errorf("gold generator EX = %v, want 100", top.EX)
	}
	if top.VES < 99.9 || top.VES > 100.1 {
		t.Errorf("gold generator VES = %v, want 100", top.VES)
	}
	bottom := r.Evaluate(corruptGen{}, sample, NoEvidence)
	if bottom.EX > 30 {
		t.Errorf("corrupt generator EX = %v, should be low", bottom.EX)
	}
}

func TestRunnerEvidenceConditionsChangeOutcomes(t *testing.T) {
	c := testCorpus(t)
	r := NewRunner(c)
	gen := texttosql.NewDAILSQL(llm.NewSimulator())
	sample := c.Dev[:150]
	none := r.Evaluate(gen, sample, NoEvidence)
	clean := r.Evaluate(gen, sample, CleanEvidenceOf)
	if clean.EX <= none.EX {
		t.Errorf("clean evidence must beat no evidence: %v vs %v", clean.EX, none.EX)
	}
}

func TestRunnerDeterministic(t *testing.T) {
	c := testCorpus(t)
	gen := texttosql.NewCodeS(llm.NewSimulator(), 15)
	sample := c.Dev[:60]
	a := NewRunner(c).Evaluate(gen, sample, ProvidedEvidence)
	b := NewRunner(c).Evaluate(gen, sample, ProvidedEvidence)
	if a.EX != b.EX || a.VES != b.VES {
		t.Errorf("evaluation not deterministic: %v vs %v", a, b)
	}
}

func TestFromMap(t *testing.T) {
	f := FromMap(map[string]string{"x-1": "ev"})
	if f(dataset.Example{ID: "x-1"}) != "ev" || f(dataset.Example{ID: "y"}) != "" {
		t.Error("FromMap lookup wrong")
	}
}

func TestMetricsString(t *testing.T) {
	m := Metrics{N: 10, Correct: 5, EX: 50, VES: 48.5}
	if s := m.String(); s == "" {
		t.Error("empty metrics string")
	}
}
