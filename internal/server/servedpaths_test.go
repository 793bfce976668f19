package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/seed"
	"repro/internal/sqlengine"
	"repro/internal/synth"
)

// servedLiteral matches what differs between two served statements of one
// shape: their literals.
var servedLiteral = regexp.MustCompile(`'[^']*'|\b\d+(\.\d+)?\b`)

// TestServedSynthPaths is the histogram ROADMAP 2(b) asks the kernel list to
// be driven from: the financial schema at 10,000 rows, the bench's 40-question
// workload, one server with seedd's defaults, every question asked once, and
// the physical path the engine reports on each request's sqlengine.execute
// span. The served SQL is the generator's, not the gold SQL, so this is
// where an unkernelised NOT or a join that builds rows to count them shows.
func TestServedSynthPaths(t *testing.T) {
	src, ok := testCorpus(t).DB("financial")
	if !ok {
		t.Fatal("no financial database in BIRD")
	}
	db, err := synth.Generate(src, synth.Options{Seed: 7, Rows: synth.ProportionalRows(src, 10_000)})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := synth.Workload(db, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := synth.ToExamples(db.Name, qs)
	if err != nil {
		t.Fatal(err)
	}
	corpus := &dataset.Corpus{Name: "synth", DBs: map[string]*schema.DB{db.Name: db}, Dev: dev}
	_, ts := newTestServer(t, func(cfg *Config) {
		// cmd/seedd's flag defaults.
		cfg.Corpora = []*dataset.Corpus{corpus}
		cfg.Client = llm.NewSimulator()
		cfg.Variant = seed.VariantGPT
		cfg.Generator = "codes-15b"
		cfg.BatchWindow, cfg.BatchMax = 2*time.Millisecond, 32
		cfg.Burst, cfg.MaxInFlight = 64, 256
		cfg.RequestTimeout = 30 * time.Second
		cfg.StoreSeed = 7
	})

	type served struct{ sql, path string }
	var all []served
	for _, e := range dev {
		resp, body := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q answered %d: %s", e.Question, resp.StatusCode, body)
		}
		var qr api.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		tresp, err := http.Get(ts.URL + "/v1/traces/" + resp.Header.Get(obs.TraceIDHeader))
		if err != nil {
			t.Fatal(err)
		}
		var rec obs.TraceRecord
		err = json.NewDecoder(tresp.Body).Decode(&rec)
		tresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		path := ""
		for _, sp := range rec.Spans {
			if sp.Name == "sqlengine.execute" {
				path, _ = sp.Attrs["path"].(string)
			}
		}
		if path == "" {
			t.Fatalf("%q: no sqlengine.execute span with a path (sql %q)", e.Question, qr.SQL)
		}
		all = append(all, served{sql: qr.SQL, path: path})
	}

	hist := make(map[string]int)
	existsServed := 0
	for _, s := range all {
		hist[s.path+"  "+servedLiteral.ReplaceAllString(s.sql, "?")]++
		sel, err := sqlengine.ParseSelect(s.sql)
		if err != nil {
			t.Fatalf("served SQL does not parse: %s: %v", s.sql, err)
		}
		// Every served statement is a planned SELECT: whatever the size of its
		// tables its tail is a consumer's, or the interpreter's with the clause
		// that declined it — never plain rows.
		if s.path == "rows" {
			t.Errorf("served statement never reached a tail consumer: %s", s.sql)
		}
		// ROADMAP 2(b)'s leftover: an unsafe EXISTS beside a single-table
		// filter is interpreted per row, and the count still runs on positions.
		if and, ok := sel.Where.(*sqlengine.Binary); ok && and.Op == "AND" && len(sel.From) == 1 {
			if _, exists := and.R.(*sqlengine.ExistsExpr); exists {
				existsServed++
				if s.path != "positions/agg" {
					t.Errorf("single-table WHERE … AND EXISTS (…) reports %q, want positions/agg: %s", s.path, s.sql)
				}
			}
		}
	}
	if existsServed == 0 {
		t.Error("no single-table WHERE … AND EXISTS (…) statement was served: its path is no longer pinned")
	}
	lines := make([]string, 0, len(hist))
	for k, n := range hist {
		lines = append(lines, fmt.Sprintf("%3d  %s", n, k))
	}
	sort.Strings(lines)
	t.Logf("served paths over %d questions:\n%s", len(all), strings.Join(lines, "\n"))
}
