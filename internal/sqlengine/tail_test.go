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
// terms of every kind evalOrderTerm knows (one that fails on every row it
// is evaluated on among them), LIMIT/OFFSET including negative,
// MaxInt64 and computed ones — or an aggregate tail, with or without GROUP
// BY, behind an optional filter that may hit the equality index, a kernel,
// or nothing, and may carry an uncorrelated EXISTS. The set-up statements
// come first, the CREATE TABLE among them. With frozen set the table is
// typed instead — a an INTEGER column, b a TEXT column of three strings and
// c one of many — and is to be frozen, so that b is stored as codes and c,
// where its strings are too many to code, as strings: a GROUP BY then keys
// on a typed INTEGER, a code and a plain string.
func tailCase(p *picker) (setup []string, query string, frozen bool) {
	cells := []string{"NULL", "0", "1", "2", "-1", "1.5", "2.5", "'x'", "'y'", "''", "-0.0"}
	var picked [][3]int
	for i, n := 0, 1+p.pick(24); i < n; i++ {
		picked = append(picked, [3]int{p.pick(len(cells)), p.pick(len(cells)), p.pick(len(cells))})
	}
	where := p.of("", "", " WHERE a = 1", " WHERE a = 'x'", " WHERE a = 7", " WHERE b > 0", " WHERE c IS NULL", " WHERE a = 1 AND b < 2", " WHERE 1 = 0",
		" WHERE b > 5 AND EXISTS (SELECT 1 FROM z)", " WHERE NOT EXISTS (SELECT 1 FROM z WHERE c = 'y') AND a = 1")
	query = selectAround(p, tailCols{id: "id", a: "a", b: "b", c: "c", qa: "z.a"}, " FROM z"+where)
	// Chosen last, so that bytes which run out before it leave c INTEGER and
	// the table plain.
	create := "CREATE TABLE z (id INTEGER, a INTEGER, b INTEGER, c " + p.of("INTEGER", "REAL") + ")"
	cell := func(row, col, i int) string { return cells[i] }
	if frozen = p.pick(2) == 1; frozen {
		create = "CREATE TABLE z (id INTEGER, a INTEGER, b TEXT, c TEXT)"
		cell = func(row, col, i int) string {
			switch {
			case i == 0:
				return "NULL"
			case col == 0:
				return fmt.Sprint(i%4 - 1)
			case col == 1:
				return []string{"'x'", "'y'", "''"}[i%3]
			}
			return fmt.Sprintf("'c%d'", i+11*(row%3))
		}
	}
	setup = []string{create}
	for row, c := range picked {
		setup = append(setup, fmt.Sprintf("INSERT INTO z VALUES (%d, %s, %s, %s)", row, cell(row, 0, c[0]), cell(row, 1, c[1]), cell(row, 2, c[2])))
	}
	return setup, query, frozen
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
		first := agg()
		list := first + ", " + agg()
		group, order := "", ""
		if g := p.of("", n.a, n.b, n.a+", "+n.b, n.a+" + 1", n.c); g != "" {
			list, group = g+", "+list, " GROUP BY "+g
			order = p.of("", " ORDER BY 1", " ORDER BY 2 DESC, 1", " ORDER BY COUNT(*), 1")
		}
		distinct, window := p.of("", "DISTINCT "), tail()
		// Chosen after the rest, so that bytes which run out before leave
		// them out: an aggregate over an expression, HAVING over an aggregate
		// of the select list or over one it does not have, and the "which
		// group has the most rows" order.
		list += p.of("", ", MAX("+n.a+" / "+n.b+")", ", SUM("+n.a+" * "+n.b+")")
		having := p.of("", " HAVING "+first+" > 0", " HAVING COUNT(DISTINCT "+n.b+") > 1", " HAVING MIN("+n.c+") IS NOT NULL")
		if most := p.of("", " ORDER BY COUNT(*) DESC, 1 LIMIT 1"); most != "" {
			order, window = most, ""
		}
		return "SELECT " + distinct + list + from + group + having + order + window
	}
	list := p.of(n.id, n.id+", "+n.a, "*", n.a+", "+n.b, n.b+" AS a, "+n.id, n.c, n.id+" + 1")
	order := ""
	if p.pick(4) > 0 {
		terms := []string{n.a, n.b, n.c, n.id, "1", n.qa, n.a + " + " + n.b, "9", "NOSUCH(" + n.a + ")"}
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
	setup, query, frozen := tailCase(&picker{data: data})
	checkAgainstNaive(t, setup, query, frozen)
}

// checkAgainstNaive builds a database from the set-up statements, frozen
// where freeze is set, and runs query on its planned engine and its naive
// reference (crossCheck). The planned engine runs its kernels and tail
// consumers on these small tables as on any other.
func checkAgainstNaive(t *testing.T, setup []string, query string, freeze bool) {
	t.Helper()
	db := NewDatabase("generated")
	for _, st := range setup {
		db.MustExec(st)
	}
	if freeze {
		db.Freeze()
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
	// Over a frozen typed table of eight rows — a INTEGER, b TEXT coded, c
	// TEXT plain — GROUP BY a with COUNT(DISTINCT b), SUM(a) and MAX(a / b),
	// HAVING COUNT(DISTINCT b) > 0, ORDER BY COUNT(*) DESC, 1 LIMIT 1; then
	// GROUP BY b with MIN(c), AVG(a) and SUM(a * b), HAVING MIN(c) IS NOT
	// NULL, ORDER BY 2 DESC, 1 LIMIT 3; then GROUP BY c with COUNT(DISTINCT
	// c) and COUNT(*), ORDER BY COUNT(*), 1. Row count, 24
	// cells, filter, tail kind, two aggregates, GROUP BY, order, DISTINCT,
	// LIMIT[, OFFSET], expression aggregate, HAVING, most-rows order, c's
	// type, frozen.
	f.Add([]byte{7, 1, 7, 8, 2, 9, 10, 3, 7, 1, 4, 8, 9, 5, 7, 2, 6, 8, 3, 7, 1, 1, 9, 2, 10, 0, 0, 7, 1, 2, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1})
	f.Add([]byte{7, 1, 7, 8, 2, 9, 10, 3, 7, 1, 4, 8, 9, 5, 7, 2, 6, 8, 3, 7, 1, 1, 9, 2, 10, 0, 0, 5, 2, 4, 0, 2, 2, 0, 1, 0, 2, 3, 0, 0, 1})
	f.Add([]byte{7, 1, 7, 8, 2, 9, 10, 3, 7, 1, 4, 8, 9, 5, 7, 2, 6, 8, 3, 7, 1, 1, 9, 2, 10, 0, 0, 7, 2, 0, 5, 3, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTailCase(t, data)
	})
}
