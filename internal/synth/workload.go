package synth

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/sqlengine"
)

// Query is one synthesized question/SQL pair, Text2SQL-Flow style: a
// template instantiated with values that actually occur in the generated
// tables, so every query is executable and (usually) non-empty.
type Query struct {
	Question string
	SQL      string
	// Paraphrases are alternative phrasings of Question with the same
	// intent and the same literals — the workload the query-memory
	// benchmark replays to measure semantic (not string-equal) matching.
	Paraphrases []string
}

// Workload synthesizes n question/SQL pairs over the database's generated
// values. Each candidate is validated by execution before it is accepted;
// templates that cannot be instantiated against the schema are skipped.
// Deterministic under seed, independent of n's relation to table sizes.
func Workload(db *schema.DB, n int, seed uint64) ([]Query, error) {
	rng := llm.NewRand(mix64(seed ^ 0x776f726b6c6f6164)) // "workload"
	tables := db.Engine.Tables()
	if len(tables) == 0 {
		return nil, fmt.Errorf("synth: workload over empty database %s", db.Name)
	}

	var out []Query
	seen := make(map[string]struct{})
	// Bounded attempts so a degenerate schema terminates rather than spins.
	for attempts := 0; len(out) < n && attempts < n*40; attempts++ {
		t := tables[rng.Intn(len(tables))]
		if len(t.Rows) == 0 {
			continue
		}
		var q Query
		var ok bool
		switch rng.Intn(6) {
		case 0:
			q, ok = countEqQuery(db, t, rng)
		case 1:
			q, ok = sumWhereQuery(db, t, rng)
		case 2:
			q, ok = avgQuery(db, t, rng)
		case 3:
			q, ok = rangeCountQuery(db, t, rng)
		case 4:
			q, ok = joinCountQuery(db, t, rng)
		case 5:
			q, ok = topKQuery(db, t, rng)
		}
		if !ok {
			continue
		}
		if _, dup := seen[q.SQL]; dup {
			continue
		}
		if _, err := db.Engine.Query(q.SQL); err != nil {
			return nil, fmt.Errorf("synth: workload emitted invalid SQL %q: %w", q.SQL, err)
		}
		seen[q.SQL] = struct{}{}
		out = append(out, q)
	}
	if len(out) < n {
		return nil, fmt.Errorf("synth: only synthesized %d/%d workload queries for %s", len(out), n, db.Name)
	}
	return out, nil
}

// ToExamples converts a workload into dataset examples (no knowledge
// atoms: the template is already the gold SQL), ready for retrieval
// pipelines and the serving benchmark.
func ToExamples(dbName string, qs []Query) ([]dataset.Example, error) {
	out := make([]dataset.Example, len(qs))
	for i, q := range qs {
		e := dataset.Example{
			ID:          fmt.Sprintf("%s-synth-%04d", dbName, i),
			DB:          dbName,
			Question:    q.Question,
			SQLTemplate: q.SQL,
		}
		if err := e.Finalize(); err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// ParaphraseExamples flattens each query's paraphrases into their own
// dataset examples — same gold SQL, IDs suffixed -pN — so a serving
// corpus can expose the paraphrased workload the query memory is
// benchmarked on.
func ParaphraseExamples(dbName string, qs []Query) ([]dataset.Example, error) {
	var out []dataset.Example
	for i, q := range qs {
		for j, ph := range q.Paraphrases {
			e := dataset.Example{
				ID:          fmt.Sprintf("%s-synth-%04d-p%d", dbName, i, j),
				DB:          dbName,
				Question:    ph,
				SQLTemplate: q.SQL,
			}
			if err := e.Finalize(); err != nil {
				return nil, err
			}
			out = append(out, e)
		}
	}
	return out, nil
}

// fullName resolves a column's natural-language name from the description
// files, falling back to the raw column name.
func fullName(db *schema.DB, table, col string) string {
	if doc, ok := db.Doc(table); ok {
		if cd, ok := doc.ColumnDoc(col); ok && cd.FullName != "" {
			return cd.FullName
		}
	}
	return col
}

// sampleValue picks a non-NULL value of one column from the generated rows.
func sampleValue(t *sqlengine.Table, colIdx int, rng *llm.Rand) (sqlengine.Value, bool) {
	for tries := 0; tries < 8; tries++ {
		v := t.Rows[rng.Intn(len(t.Rows))][colIdx]
		if !v.IsNull() {
			return v, true
		}
	}
	return sqlengine.Value{}, false
}

// sqlLiteral renders a value as a SQL literal, escaping quotes.
func sqlLiteral(v sqlengine.Value) string {
	if v.Kind == sqlengine.KindText {
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return v.AsText()
}

// pickColumn returns a random column index satisfying pred, or -1.
func pickColumn(t *sqlengine.Table, rng *llm.Rand, pred func(sqlengine.Column) bool) int {
	var cands []int
	for i, c := range t.Columns {
		if pred(c) {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return -1
	}
	return cands[rng.Intn(len(cands))]
}

func isText(c sqlengine.Column) bool { return strings.EqualFold(c.Type, "TEXT") }
func isNumeric(c sqlengine.Column) bool {
	return strings.EqualFold(c.Type, "INTEGER") || strings.EqualFold(c.Type, "REAL")
}

func countEqQuery(db *schema.DB, t *sqlengine.Table, rng *llm.Rand) (Query, bool) {
	ci := pickColumn(t, rng, func(c sqlengine.Column) bool { return isText(c) && !c.PrimaryKey })
	if ci < 0 {
		return Query{}, false
	}
	v, ok := sampleValue(t, ci, rng)
	if !ok {
		return Query{}, false
	}
	col := t.Columns[ci].Name
	full, lit := fullName(db, t.Name, col), sqlLiteral(v)
	return Query{
		Question: fmt.Sprintf("How many rows in %s have %s equal to %s?", t.Name, full, lit),
		SQL:      fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s = %s", t.Name, col, lit),
		Paraphrases: []string{
			fmt.Sprintf("Count the rows in %s where %s is %s.", t.Name, full, lit),
			fmt.Sprintf("In %s, how many rows have a %s of %s?", t.Name, full, lit),
			fmt.Sprintf("What is the number of %s rows whose %s equals %s?", t.Name, full, lit),
		},
	}, true
}

func sumWhereQuery(db *schema.DB, t *sqlengine.Table, rng *llm.Rand) (Query, bool) {
	ni := pickColumn(t, rng, func(c sqlengine.Column) bool { return isNumeric(c) && !c.PrimaryKey })
	ti := pickColumn(t, rng, func(c sqlengine.Column) bool { return isText(c) && !c.PrimaryKey })
	if ni < 0 || ti < 0 {
		return Query{}, false
	}
	v, ok := sampleValue(t, ti, rng)
	if !ok {
		return Query{}, false
	}
	num, txt := t.Columns[ni].Name, t.Columns[ti].Name
	fnum, ftxt, lit := fullName(db, t.Name, num), fullName(db, t.Name, txt), sqlLiteral(v)
	return Query{
		Question: fmt.Sprintf("What is the total %s of %s rows whose %s is %s?", fnum, t.Name, ftxt, lit),
		SQL:      fmt.Sprintf("SELECT SUM(%s) FROM %s WHERE %s = %s", num, t.Name, txt, lit),
		Paraphrases: []string{
			fmt.Sprintf("Sum the %s over %s rows where %s equals %s.", fnum, t.Name, ftxt, lit),
			fmt.Sprintf("Across %s rows whose %s is %s, what do the %s values add up to?", t.Name, ftxt, lit, fnum),
		},
	}, true
}

func avgQuery(db *schema.DB, t *sqlengine.Table, rng *llm.Rand) (Query, bool) {
	ni := pickColumn(t, rng, func(c sqlengine.Column) bool { return isNumeric(c) && !c.PrimaryKey })
	if ni < 0 {
		return Query{}, false
	}
	num := t.Columns[ni].Name
	fnum := fullName(db, t.Name, num)
	return Query{
		Question: fmt.Sprintf("What is the average %s across all %s rows?", fnum, t.Name),
		SQL:      fmt.Sprintf("SELECT AVG(%s) FROM %s", num, t.Name),
		Paraphrases: []string{
			fmt.Sprintf("What is the mean %s over the whole %s table?", fnum, t.Name),
			fmt.Sprintf("Compute the average value of %s for all rows of %s.", fnum, t.Name),
		},
	}, true
}

func rangeCountQuery(db *schema.DB, t *sqlengine.Table, rng *llm.Rand) (Query, bool) {
	ni := pickColumn(t, rng, func(c sqlengine.Column) bool { return isNumeric(c) && !c.PrimaryKey })
	if ni < 0 {
		return Query{}, false
	}
	v, ok := sampleValue(t, ni, rng)
	if !ok {
		return Query{}, false
	}
	num := t.Columns[ni].Name
	fnum, lit := fullName(db, t.Name, num), sqlLiteral(v)
	return Query{
		Question: fmt.Sprintf("How many %s rows have %s greater than %s?", t.Name, fnum, lit),
		SQL:      fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s > %s", t.Name, num, lit),
		Paraphrases: []string{
			fmt.Sprintf("Count %s rows where %s exceeds %s.", t.Name, fnum, lit),
			fmt.Sprintf("How many rows of %s have a %s above %s?", t.Name, fnum, lit),
		},
	}, true
}

// joinPairBudget bounds the logical |L|·|R| pair count a synthesized join
// may charge. The engine's plan-independent cost model bills every join
// its full pair count against a 50M-row budget, so joins beyond this
// margin would fail at execution no matter how good the physical plan is.
const joinPairBudget = 40_000_000

// joinCountQuery counts child rows joined to a parent filtered on one of
// the parent's text attributes — the workload shape that exercises the
// planner's hash join at scale.
func joinCountQuery(db *schema.DB, t *sqlengine.Table, rng *llm.Rand) (Query, bool) {
	if len(t.ForeignKeys) == 0 {
		return Query{}, false
	}
	fk := t.ForeignKeys[rng.Intn(len(t.ForeignKeys))]
	if strings.EqualFold(fk.ParentTable, t.Name) {
		return Query{}, false
	}
	parent, ok := db.Engine.Table(fk.ParentTable)
	if !ok || len(parent.Rows) == 0 {
		return Query{}, false
	}
	if len(t.Rows)*len(parent.Rows) > joinPairBudget {
		return Query{}, false
	}
	pi := pickColumn(parent, rng, func(c sqlengine.Column) bool { return isText(c) && !c.PrimaryKey })
	if pi < 0 {
		return Query{}, false
	}
	v, okV := sampleValue(parent, pi, rng)
	if !okV {
		return Query{}, false
	}
	pcol := parent.Columns[pi].Name
	fp, lit := fullName(db, parent.Name, pcol), sqlLiteral(v)
	return Query{
		Question: fmt.Sprintf("How many %s rows belong to a %s whose %s is %s?",
			t.Name, parent.Name, fp, lit),
		SQL: fmt.Sprintf("SELECT COUNT(*) FROM %s JOIN %s ON %s.%s = %s.%s WHERE %s.%s = %s",
			t.Name, parent.Name, t.Name, fk.Column, parent.Name, fk.ParentColumn, parent.Name, pcol, lit),
		Paraphrases: []string{
			fmt.Sprintf("Count the %s rows joined to a %s with %s equal to %s.", t.Name, parent.Name, fp, lit),
			fmt.Sprintf("For the %s whose %s is %s, how many %s rows are attached?", parent.Name, fp, lit, t.Name),
		},
	}, true
}

func topKQuery(db *schema.DB, t *sqlengine.Table, rng *llm.Rand) (Query, bool) {
	ni := pickColumn(t, rng, func(c sqlengine.Column) bool { return isNumeric(c) && !c.PrimaryKey })
	var pk string
	for _, c := range t.Columns {
		if c.PrimaryKey {
			pk = c.Name
			break
		}
	}
	if ni < 0 || pk == "" {
		return Query{}, false
	}
	k := 3 + rng.Intn(8)
	num := t.Columns[ni].Name
	fnum := fullName(db, t.Name, num)
	return Query{
		Question: fmt.Sprintf("Which %d %s rows have the highest %s?", k, t.Name, fnum),
		SQL: fmt.Sprintf("SELECT %s FROM %s ORDER BY %s DESC, %s LIMIT %d",
			pk, t.Name, num, pk, k),
		Paraphrases: []string{
			fmt.Sprintf("List the top %d %s rows by %s.", k, t.Name, fnum),
			fmt.Sprintf("Which %d rows of %s rank highest on %s?", k, t.Name, fnum),
		},
	}, true
}
