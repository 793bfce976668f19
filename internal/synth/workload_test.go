package synth

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestWorkloadExecutableAndDeterministic(t *testing.T) {
	src := financialFixture(t)
	db, err := Generate(src, Options{Seed: 11, Rows: ProportionalRows(src, 4000)})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := Workload(db, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 40 {
		t.Fatalf("got %d queries, want 40", len(qs))
	}
	for _, q := range qs {
		if q.Question == "" {
			t.Fatalf("query %q has no question", q.SQL)
		}
		if _, err := db.Engine.Query(q.SQL); err != nil {
			t.Fatalf("workload query %q does not execute: %v", q.SQL, err)
		}
	}

	again, err := Workload(db, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-identical, not just equivalent: the paraphrased workload is
	// what the memory benchmark gates on, so any drift across runs of the
	// same seed would silently change the committed BENCH numbers.
	a, err := json.Marshal(qs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("workload not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestWorkloadParaphrases pins the contract the query memory depends on:
// every query carries paraphrases, and every paraphrase preserves the
// SQL's literals verbatim so qmemory's literal-overlap gate passes.
func TestWorkloadParaphrases(t *testing.T) {
	src := financialFixture(t)
	db, err := Generate(src, Options{Seed: 11, Rows: ProportionalRows(src, 4000)})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := Workload(db, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if len(q.Paraphrases) < 2 {
			t.Fatalf("query %q has %d paraphrases, want >= 2", q.Question, len(q.Paraphrases))
		}
		for _, ph := range q.Paraphrases {
			if ph == q.Question {
				t.Fatalf("paraphrase of %q is the question itself", q.Question)
			}
			for _, lit := range testLiterals(q.SQL) {
				if !strings.Contains(strings.ToLower(ph), strings.ToLower(lit)) {
					t.Fatalf("paraphrase %q of %q drops literal %q", ph, q.SQL, lit)
				}
			}
		}
	}

	ex, err := ParaphraseExamples(db.Name, qs)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, q := range qs {
		want += len(q.Paraphrases)
	}
	if len(ex) != want {
		t.Fatalf("ParaphraseExamples produced %d examples, want %d", len(ex), want)
	}
	// The canonical questions convert one to one, and neither form has
	// atoms: the template is the gold SQL.
	base, err := ToExamples(db.Name, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(qs) {
		t.Fatalf("ToExamples produced %d examples, want %d", len(base), len(qs))
	}
	for _, e := range append(base, ex...) {
		if e.GoldSQL != e.SQLTemplate || e.Question == "" || e.DB != db.Name {
			t.Fatalf("workload example malformed: %+v", e)
		}
	}
}

// testLiterals extracts quoted strings and standalone numbers from SQL,
// mirroring the qmemory literal gate closely enough for the assertion.
func testLiterals(sql string) []string {
	var out []string
	i := 0
	for i < len(sql) {
		c := sql[i]
		if c == '\'' {
			j := i + 1
			var b strings.Builder
			for j < len(sql) {
				if sql[j] == '\'' {
					if j+1 < len(sql) && sql[j+1] == '\'' {
						b.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				b.WriteByte(sql[j])
				j++
			}
			out = append(out, b.String())
			i = j + 1
			continue
		}
		if c >= '0' && c <= '9' && (i == 0 || !isWordByte(sql[i-1])) {
			j := i
			for j < len(sql) && (sql[j] >= '0' && sql[j] <= '9' || sql[j] == '.') {
				j++
			}
			out = append(out, sql[i:j])
			i = j
			continue
		}
		i++
	}
	return out
}

func isWordByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
