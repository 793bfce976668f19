package sqlengine

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// picker turns a byte string into a sequence of bounded choices, so that one
// generator serves both testing/quick (random bytes) and the fuzzer (mutated
// bytes). An exhausted picker keeps answering 0, the plainest choice.
type picker struct {
	data []byte
	i    int
}

func (p *picker) pick(n int) int {
	if p.i >= len(p.data) {
		return 0
	}
	b := p.data[p.i]
	p.i++
	return int(b) % n
}

func (p *picker) of(choices ...string) string { return choices[p.pick(len(choices))] }

// tailCase generates a single-table database and one SELECT whose interest
// is its tail: table z's cells come from a palette of NULL, INTEGER, REAL
// and TEXT values (its columns are INTEGER, which keeps fractional reals
// and non-numeric text as they are, except that c may be REAL, which keeps
// -0.0), the query is either a row tail — DISTINCT, up to two ORDER BY
// terms of every kind evalOrderTerm knows, LIMIT/OFFSET including negative,
// MaxInt64 and computed ones — or an aggregate tail, with or without GROUP
// BY, behind an optional filter that may hit the equality index, a kernel,
// or nothing, and may carry an uncorrelated EXISTS. The set-up statements come first, the CREATE TABLE among
// them.
func tailCase(p *picker) (setup []string, query string) {
	cells := []string{"NULL", "0", "1", "2", "-1", "1.5", "2.5", "'x'", "'y'", "''", "-0.0"}
	var inserts []string
	for i, n := 0, 1+p.pick(24); i < n; i++ {
		inserts = append(inserts, fmt.Sprintf("INSERT INTO z VALUES (%d, %s, %s, %s)", i, p.of(cells...), p.of(cells...), p.of(cells...)))
	}
	where := p.of("", "", " WHERE a = 1", " WHERE a = 'x'", " WHERE a = 7", " WHERE b > 0", " WHERE c IS NULL", " WHERE a = 1 AND b < 2", " WHERE 1 = 0",
		" WHERE b > 5 AND EXISTS (SELECT 1 FROM z)", " WHERE NOT EXISTS (SELECT 1 FROM z WHERE c = 'y') AND a = 1")
	query = selectAround(p, tailCols{id: "id", a: "a", b: "b", c: "c", qa: "z.a"}, " FROM z"+where)
	// Chosen last, so that bytes which run out before it leave c INTEGER.
	create := "CREATE TABLE z (id INTEGER, a INTEGER, b INTEGER, c " + p.of("INTEGER", "REAL") + ")"
	return append([]string{create}, inserts...), query
}

// tailCols names the four columns a generated tail reads — a row id and three
// value columns — and a qualified spelling of the first value column.
type tailCols struct{ id, a, b, c, qa string }

// selectAround generates the select list and the tail of one SELECT around a
// given FROM/WHERE: a row tail or an aggregate tail over columns n (see
// tailCase). It is what tailCase and joinCase share, so both run every tail.
func selectAround(p *picker, n tailCols, from string) string {
	limits := []string{"", " LIMIT 3", " LIMIT 0", " LIMIT 1", " LIMIT 100", " LIMIT -1", " LIMIT -5", " LIMIT 9223372036854775807", " LIMIT 1 + 1"}
	offsets := []string{"", " OFFSET 1", " OFFSET 0", " OFFSET 2", " OFFSET 100", " OFFSET -1", " OFFSET 9223372036854775807"}
	tail := func() string {
		limit := p.of(limits...)
		if limit == "" {
			return ""
		}
		return limit + p.of(offsets...)
	}
	if p.pick(3) == 0 {
		cols := []string{n.a, n.b, n.c}
		aggs := []string{"COUNT(*)", "COUNT(%s)", "SUM(%s)", "TOTAL(%s)", "AVG(%s)", "MIN(%s)", "MAX(%s)", "COUNT(DISTINCT %s)", "GROUP_CONCAT(%s)"}
		agg := func() string {
			a := p.of(aggs...)
			if strings.Contains(a, "%s") {
				a = fmt.Sprintf(a, p.of(cols...))
			}
			return a
		}
		list := agg() + ", " + agg()
		group, order := "", ""
		if g := p.of("", n.a, n.b, n.a+", "+n.b, n.a+" + 1"); g != "" {
			list, group = g+", "+list, " GROUP BY "+g
			order = p.of("", " ORDER BY 1", " ORDER BY 2 DESC, 1", " ORDER BY COUNT(*), 1")
		}
		return "SELECT " + p.of("", "DISTINCT ") + list + from + group + order + tail()
	}
	list := p.of(n.id, n.id+", "+n.a, "*", n.a+", "+n.b, n.b+" AS a, "+n.id, n.c, n.id+" + 1")
	order := ""
	if p.pick(4) > 0 {
		terms := []string{n.a, n.b, n.c, n.id, "1", n.qa, n.a + " + " + n.b, "9", "nosuch"}
		dirs := []string{"", " DESC", " ASC"}
		order = " ORDER BY " + p.of(terms...) + p.of(dirs...)
		if p.pick(2) == 0 {
			order += ", " + p.of(terms...) + p.of(dirs...)
		}
	}
	return "SELECT " + p.of("", "", "DISTINCT ") + list + from + order + tail()
}

// checkTailCase runs the generated query in the planned engine against the
// naive executor.
func checkTailCase(t *testing.T, data []byte) {
	t.Helper()
	setup, query := tailCase(&picker{data: data})
	checkAgainstNaive(t, setup, query)
}

// checkAgainstNaive builds a database from the set-up statements and runs
// query on its planned engine and its naive reference (crossCheck). The
// planned engine runs its kernels and tail consumers on these small tables
// as on any other.
func checkAgainstNaive(t *testing.T, setup []string, query string) {
	t.Helper()
	db := NewDatabase("generated")
	for _, st := range setup {
		db.MustExec(st)
	}
	crossCheck(t, db, query)
}

// Property: whatever the table holds and whatever tail the query has, the
// planned engine returns the naive executor's rows, in its order, at no
// greater Cost.
func TestTailEquivalenceProperty(t *testing.T) {
	f := func(data []byte) bool {
		checkTailCase(t, data)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzSelectTail is the differential fuzz target for the tail: fuzzer bytes
// choose the table contents and the query (tailCase), and the planned engine
// must agree with the naive executor without panicking.
func FuzzSelectTail(f *testing.F) {
	// LIMIT MaxInt64 OFFSET 1 — offset+limit used to wrap negative and
	// panic — over three rows, without and with ORDER BY: row count, nine
	// cells, filter, tail kind, select list, [order terms,] DISTINCT, LIMIT,
	// OFFSET.
	f.Add([]byte{2, 1, 2, 3, 0, 1, 2, 3, 4, 5, 0, 1, 0, 0, 0, 7, 1})
	f.Add([]byte{2, 1, 2, 3, 0, 1, 2, 3, 4, 5, 0, 1, 0, 1, 0, 1, 1, 0, 7, 1})
	// SUM and COUNT(*) over an index miss (WHERE a = 7), and AVG/MIN grouped
	// by a over mixed-kind cells, ordered by ordinal, windowed.
	f.Add([]byte{1, 1, 2, 3, 4, 5, 6, 4, 0, 2, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 0, 1, 5, 7, 1, 6, 8, 2, 0, 1, 5, 9, 7, 3, 4, 0, 1, 5, 0, 0, 4, 2, 5, 1, 1, 2, 0, 1, 1})
	// Two-key sorts without LIMIT over four rows whose a mixes INTEGER and
	// REAL and whose REAL c holds -0.0 beside 0.0: ORDER BY c DESC, id (words:
	// -0.0 and 0.0 tie, id decides) and ORDER BY a, c DESC (the comparator).
	// Row count, twelve cells, filter, tail kind, select list, order terms,
	// DISTINCT, LIMIT, c's type.
	f.Add([]byte{3, 2, 0, 10, 5, 3, 1, 4, 10, 10, 2, 6, 6, 0, 1, 0, 1, 2, 1, 0, 3, 0, 0, 0, 1})
	f.Add([]byte{3, 2, 0, 10, 5, 3, 1, 4, 10, 10, 2, 6, 6, 0, 1, 0, 1, 0, 0, 0, 2, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTailCase(t, data)
	})
}
