package eval

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sqlengine"
	"repro/internal/texttosql"
)

// goldEcho is the ideal generator: it returns the gold SQL verbatim. It
// isolates the evaluation pipeline itself — parse, plan, execute, compare —
// which is exactly the hot path the planner targets.
type goldEcho struct{}

func (goldEcho) Name() string                              { return "gold-echo" }
func (goldEcho) Generate(t texttosql.Task) (string, error) { return t.Example.GoldSQL, nil }

// BenchmarkEvaluate measures a full Evaluate pass over the BIRD dev split:
// judging every prediction on the planned engine, and costing the correct
// ones on the naive reference (cached per statement after the first pass).
func BenchmarkEvaluate(b *testing.B) {
	corpus := dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7})
	runner := NewRunner(corpus)
	var first Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := runner.Evaluate(goldEcho{}, corpus.Dev, NoEvidence)
		if i == 0 {
			first = m
		} else if m != first {
			b.Fatalf("metrics drifted across runs: %v vs %v", m, first)
		}
	}
}

func benchRows(n, w int) *sqlengine.Rows {
	var cols []string
	for c := 0; c < w; c++ {
		cols = append(cols, fmt.Sprintf("c%d", c))
	}
	data := make([][]sqlengine.Value, 0, n)
	for i := 0; i < n; i++ {
		row := make([]sqlengine.Value, w)
		for c := 0; c < w; c++ {
			switch c % 3 {
			case 0:
				row[c] = sqlengine.Int(int64(i * c))
			case 1:
				row[c] = sqlengine.Float(float64(i) / 3)
			default:
				row[c] = sqlengine.Text(fmt.Sprintf("value-%d-%d", i, c))
			}
		}
		data = append(data, row)
	}
	return sqlengine.NewRows(cols, data)
}

func BenchmarkResultsEqual(b *testing.B) {
	gold := benchRows(200, 5)
	pred := benchRows(200, 5)
	b.Run("unordered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !ResultsEqual(gold, pred, false) {
				b.Fatal("expected equal")
			}
		}
	})
	b.Run("ordered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !ResultsEqual(gold, pred, true) {
				b.Fatal("expected equal")
			}
		}
	})
}
