// Package eval implements the paper's two metrics — execution accuracy
// (EX) and the valid efficiency score (VES) — plus a concurrent evaluation
// runner that measures a text-to-SQL generator over a corpus split under a
// configurable evidence condition (§IV-B).
//
// EX compares execution results rather than SQL text, so semantically
// equivalent queries score as correct. VES extends EX by weighting each
// correct query with R = sqrt(cost_gold / cost_predicted), where a cost is
// the rows the engine's naive reference plan touches — a deterministic
// stand-in for wall-clock time that no choice of physical plan changes.
package eval

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/schema"
	"repro/internal/sqlengine"
	"repro/internal/texttosql"
)

// ResultsEqual compares two result sets. When ordered is true row order
// matters (the gold query has ORDER BY); otherwise rows compare as
// multisets, the BIRD convention.
func ResultsEqual(gold, pred *sqlengine.Rows, ordered bool) bool {
	if gold.Len() != pred.Len() {
		return false
	}
	if gold.Len() > 0 && len(gold.Columns) != len(pred.Columns) {
		return false
	}
	gk := rowKeys(gold)
	pk := rowKeys(pred)
	if !ordered {
		sort.Strings(gk)
		sort.Strings(pk)
	}
	for i := range gk {
		if gk[i] != pk[i] {
			return false
		}
	}
	return true
}

func rowKeys(rows *sqlengine.Rows) []string {
	out := make([]string, rows.Len())
	var buf []byte
	for i := range out {
		buf = buf[:0]
		for k := range rows.Columns {
			buf = rows.Cell(i, k).AppendKey(buf)
			buf = append(buf, 0)
		}
		out[i] = string(buf)
	}
	return out
}

// Outcome is the evaluation of one predicted query.
type Outcome struct {
	Correct bool
	// ExecError records a prediction that failed to parse or execute.
	ExecError bool
}

// Judge evaluates one prediction against an example's gold query by
// execution accuracy alone. It runs the planned engine only, so the
// serving path can judge on the request path; VES's costs are the Runner's.
type Judge struct {
	mu   sync.Mutex
	gold map[string]*goldEntry
}

type goldEntry struct {
	rows    *sqlengine.Rows
	ordered bool
	err     error
}

// NewJudge returns a Judge with an empty gold-result cache.
func NewJudge() *Judge {
	return &Judge{gold: make(map[string]*goldEntry)}
}

// goldFor executes (and caches) the example's gold query.
func (j *Judge) goldFor(db *schema.DB, e dataset.Example) *goldEntry {
	j.mu.Lock()
	entry, ok := j.gold[e.ID]
	j.mu.Unlock()
	if ok {
		return entry
	}
	entry = &goldEntry{
		ordered: strings.Contains(strings.ToUpper(e.GoldSQL), "ORDER BY"),
	}
	// Engine.Exec rides the database's prepared-plan cache: the gold query
	// is parsed and planned once, then replayed for every prediction and
	// evidence condition that scores against it.
	res, err := db.Engine.Exec(e.GoldSQL)
	if err != nil {
		entry.err = err
	} else {
		entry.rows = res.Rows
	}
	j.mu.Lock()
	j.gold[e.ID] = entry
	j.mu.Unlock()
	return entry
}

// Score evaluates a predicted SQL string for an example.
func (j *Judge) Score(db *schema.DB, e dataset.Example, predSQL string) Outcome {
	gold := j.goldFor(db, e)
	if gold.err != nil {
		// A broken gold query is a corpus bug; treat the pair as wrong
		// rather than crashing an entire run.
		return Outcome{}
	}
	res, err := db.Engine.Exec(predSQL)
	if err != nil || res.Rows == nil {
		return Outcome{ExecError: true}
	}
	return j.ScoreRows(db, e, res)
}

// ScoreRows evaluates an already-executed prediction result for an
// example. Callers that execute the prediction themselves (the serving
// path, which needs the rows for the response anyway) use this to judge
// without paying a second execution; the gold side still rides the
// per-example cache.
func (j *Judge) ScoreRows(db *schema.DB, e dataset.Example, res *sqlengine.Result) Outcome {
	gold := j.goldFor(db, e)
	if gold.err != nil {
		// A broken gold query is a corpus bug; treat the pair as wrong
		// rather than crashing an entire run.
		return Outcome{}
	}
	if res == nil || res.Rows == nil {
		return Outcome{ExecError: true}
	}
	return Outcome{Correct: ResultsEqual(gold.rows, res.Rows, gold.ordered)}
}

// Metrics aggregates outcomes over a split.
type Metrics struct {
	// N is the number of evaluated examples.
	N int
	// Correct is the number of execution-accurate predictions.
	Correct int
	// EX is execution accuracy in percent.
	EX float64
	// VES is the valid efficiency score in percent.
	VES float64
	// ExecErrors counts predictions that failed to parse or execute.
	ExecErrors int
	// GenErrors counts generator failures (no SQL produced).
	GenErrors int
}

func (m Metrics) String() string {
	return fmt.Sprintf("EX=%.2f%% VES=%.2f%% (n=%d, execErr=%d, genErr=%d)",
		m.EX, m.VES, m.N, m.ExecErrors, m.GenErrors)
}

// EvidenceFunc supplies the evidence for one example under the current
// experimental condition: none, BIRD-provided, SEED-generated, revised...
type EvidenceFunc func(e dataset.Example) string

// NoEvidence is the w/o-evidence condition.
func NoEvidence(dataset.Example) string { return "" }

// ProvidedEvidence is the w/-evidence condition: whatever the corpus
// shipped with the example (possibly defective on dev).
func ProvidedEvidence(e dataset.Example) string { return e.Evidence }

// CleanEvidenceOf is the corrected-evidence condition used by the
// Table II experiment.
func CleanEvidenceOf(e dataset.Example) string { return e.CleanEvidence }

// FromMap serves precomputed evidence (SEED output) by example ID.
func FromMap(m map[string]string) EvidenceFunc {
	return func(e dataset.Example) string { return m[e.ID] }
}

// Runner evaluates generators over a corpus concurrently.
type Runner struct {
	Corpus *dataset.Corpus
	Judge  *Judge
	// Workers caps evaluation concurrency; 0 means GOMAXPROCS.
	Workers int

	costMu sync.Mutex
	costs  map[costKey]int64 // refCost's cache
}

type costKey struct {
	db  *schema.DB
	sql string
}

// refCost returns the Cost of sql on db's naive reference executor, at
// least 1, cached per (db, SQL); 0 when the reference fails, as a
// statement whose naive plan exceeds the cost budget does.
func (r *Runner) refCost(db *schema.DB, sql string) int64 {
	key := costKey{db, sql}
	r.costMu.Lock()
	cost, ok := r.costs[key]
	r.costMu.Unlock()
	if ok {
		return cost
	}
	if st, err := db.Engine.Prepare(sql); err == nil {
		if res, err := st.ExecReference(); err == nil {
			cost = max(res.Cost, 1)
		}
	}
	r.costMu.Lock()
	if r.costs == nil {
		r.costs = make(map[costKey]int64)
	}
	r.costs[key] = cost
	r.costMu.Unlock()
	return cost
}

// efficiency is VES's ratio for a correct prediction, sqrt(gold cost /
// predicted cost), both the naive reference's; a prediction whose
// reference fails, or whose gold's does, earns nothing.
func (r *Runner) efficiency(db *schema.DB, gold, pred string) float64 {
	g, p := r.refCost(db, gold), r.refCost(db, pred)
	if g == 0 || p == 0 {
		return 0
	}
	return math.Sqrt(float64(g) / float64(p))
}

// NewRunner builds a runner with a fresh judge.
func NewRunner(corpus *dataset.Corpus) *Runner {
	return &Runner{Corpus: corpus, Judge: NewJudge()}
}

// Evaluate runs the generator over the examples under the evidence
// condition and aggregates metrics.
func (r *Runner) Evaluate(gen texttosql.Generator, examples []dataset.Example, evidence EvidenceFunc) Metrics {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outcomes := make([]Outcome, len(examples))
	ratios := make([]float64, len(examples))
	genErrs := make([]bool, len(examples))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range examples {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			e := examples[i]
			db, ok := r.Corpus.DB(e.DB)
			if !ok {
				genErrs[i] = true
				return
			}
			sql, err := gen.Generate(texttosql.Task{Example: e, DB: db, Evidence: evidence(e)})
			if err != nil {
				genErrs[i] = true
				return
			}
			outcomes[i] = r.Judge.Score(db, e, sql)
			if outcomes[i].Correct {
				ratios[i] = r.efficiency(db, e.GoldSQL, sql)
			}
		}(i)
	}
	wg.Wait()

	var m Metrics
	m.N = len(examples)
	var ves float64
	for i, o := range outcomes {
		if genErrs[i] {
			m.GenErrors++
			continue
		}
		if o.ExecError {
			m.ExecErrors++
		}
		if o.Correct {
			m.Correct++
			ves += ratios[i]
		}
	}
	if m.N > 0 {
		m.EX = 100 * float64(m.Correct) / float64(m.N)
		m.VES = 100 * ves / float64(m.N)
	}
	return m
}
