package schema_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/schema"
	"repro/internal/sqlengine"
	"repro/internal/synth"
)

// distinctTexts is the statement SEED's sample execution (LIMIT 30) and
// the value retrievers (LIMIT 40) each used to run for themselves, with
// NULL dropped: the reference Values must reproduce.
func distinctTexts(t *testing.T, db *schema.DB, table, col string, limit int) []string {
	t.Helper()
	rows, err := db.Engine.Query(fmt.Sprintf("SELECT DISTINCT `%s` FROM `%s` ORDER BY `%s` LIMIT %d", col, table, col, limit))
	if err != nil {
		t.Fatalf("%s.%s: %v", table, col, err)
	}
	var out []string
	for i := 0; i < rows.Len(); i++ {
		if v := rows.Cell(i, 0); !v.IsNull() {
			out = append(out, v.AsText())
		}
	}
	return out
}

func texts(vals []schema.Value) []string {
	var out []string
	for _, v := range vals {
		out = append(out, v.Text)
	}
	return out
}

// checkValues compares every TEXT column's 30- and 40-row views with the
// reference statement and reports how many columns it checked.
func checkValues(t *testing.T, db *schema.DB) int {
	t.Helper()
	cols := 0
	for _, tb := range db.Engine.Tables() {
		for i, c := range tb.Columns {
			if c.Type != "TEXT" {
				if vals := db.Values(tb, i, schema.MaxValues); vals != nil {
					t.Errorf("%s: %s.%s is %s but has values %q", db.Name, tb.Name, c.Name, c.Type, texts(vals))
				}
				continue
			}
			cols++
			for _, n := range []int{30, schema.MaxValues} {
				got, want := texts(db.Values(tb, i, n)), distinctTexts(t, db, tb.Name, c.Name, n)
				if !slices.Equal(got, want) {
					t.Errorf("%s: %s.%s, n = %d: Values = %q, statement = %q", db.Name, tb.Name, c.Name, n, got, want)
				}
			}
			for _, v := range db.Values(tb, i, schema.MaxValues) {
				if v != schema.NewValue(v.Text) {
					t.Errorf("%s: %s.%s: value %+v is not prepared from its text", db.Name, tb.Name, c.Name, v)
				}
			}
		}
	}
	return cols
}

// TestValuesMatchDistinctStatement pins the value inventory against the
// statements its readers ran before it existed, over every TEXT column the
// server serves: BIRD's, Spider's and synth financial's at 2k rows. None
// of those holds NULL in its first rows, so a fixture pins that case.
func TestValuesMatchDistinctStatement(t *testing.T) {
	bird := dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7})
	src := bird.DBs["financial"]
	fin, err := synth.Generate(src, synth.Options{Seed: 7, Rows: synth.ProportionalRows(src, 2_000)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		dbs  map[string]*schema.DB
	}{
		{"bird", bird.DBs},
		{"spider", dataset.BuildSpider(7).DBs},
		{"synth", map[string]*schema.DB{fin.Name: fin}},
	} {
		cols := 0
		for _, db := range c.dbs {
			cols += checkValues(t, db)
		}
		if cols == 0 {
			t.Fatalf("%s: no TEXT columns checked", c.name)
		}
		t.Logf("%s: %d TEXT columns", c.name, cols)
	}

	// NULL sorts first, so on a column holding NULL the first n rows
	// carry n-1 values: a view is rows, not values.
	eng := sqlengine.NewDatabase("nulls")
	eng.MustExec("CREATE TABLE t (id INTEGER, many TEXT, few TEXT)")
	for i := range 50 {
		few := "NULL"
		if i%10 != 0 {
			few = fmt.Sprintf("'f%d'", i%3)
		}
		many := fmt.Sprintf("'v%02d'", i)
		if i == 7 {
			many = "NULL"
		}
		eng.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %s, %s)", i, many, few))
	}
	db := schema.NewDB(eng)
	tb, _ := eng.Table("t")
	if got := db.Values(tb, 1, 30); len(got) != 29 || got[0].Text != "v00" || got[28].Text != "v29" {
		t.Errorf("many, n = 30: %q, want the 29 values v00..v29", texts(got))
	}
	if got := db.Values(tb, 1, schema.MaxValues); len(got) != 39 {
		t.Errorf("many, n = 40: %d values, want 39", len(got))
	}
	if got := texts(db.Values(tb, 2, 30)); !slices.Equal(got, []string{"f0", "f1", "f2"}) {
		t.Errorf("few, n = 30: %q, want f0 f1 f2", got)
	}
	if got := db.Values(tb, 1, 0); len(got) != 0 {
		t.Errorf("n = 0: %q, want none", texts(got))
	}
	if checkValues(t, db) != 2 {
		t.Error("fixture has two TEXT columns")
	}
}
