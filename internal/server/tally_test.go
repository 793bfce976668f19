package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/seed"
)

// fallbackCeiling is how many distinct statements of the tally may run on
// each path of the interpreter's tail: a count may fall, never rise.
var fallbackCeiling = map[string]int{
	"rows(projection)": 0,
	"rows(order-by)":   0,
	"rows(limit)":      0,
	"rows(aggregate)":  0,
	"rows(group-by)":   0,
	"rows(having)":     0,
}

// fallbackShapes names every statement shape — its SQL with the literals
// replaced — that the tally may find on the interpreter's tail, and why no
// consumer takes it. Every shape of the corpora runs on a consumer.
var fallbackShapes = map[string]string{}

// TestFallbackTally is the tally of finding M7 (ROADMAP.md) as a test: every
// distinct gold and corrupt SQL of BIRD and Spider at seed 7, and every
// distinct SQL a server with seedd's defaults answers each corpus's dev
// questions with, run once on the planned engine and counted by the path
// its tail took (Result.Path). It fails when more statements than
// fallbackCeiling allows take one of the interpreter's rows(…) paths, and
// when a statement on one has a shape fallbackShapes does not name. The
// tally and every shape on the interpreter's tail are logged.
func TestFallbackTally(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and serves BIRD and Spider")
	}
	tally := make(map[string]int)
	shapes := make(map[string]int)
	for _, c := range []*dataset.Corpus{dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7}), dataset.BuildSpider(7)} {
		seen := make(map[string]bool)
		count := func(db, sql string) {
			key := db + "\x00" + sql
			if sql == "" || seen[key] {
				return
			}
			seen[key] = true
			d, ok := c.DB(db)
			if !ok {
				t.Fatalf("%s: no database %s", c.Name, db)
			}
			st, err := d.Engine.Prepare(sql)
			if err != nil {
				tally["prepare error"]++
				return
			}
			res, err := st.Exec()
			switch {
			case err != nil:
				tally["error"]++
			case strings.HasPrefix(res.Path, "rows("):
				tally[res.Path]++
				shapes[res.Path+"  "+servedLiteral.ReplaceAllString(sql, "?")]++
			default:
				tally[res.Path]++
			}
		}
		for _, split := range [][]dataset.Example{c.Train, c.Dev, c.Test} {
			for _, e := range split {
				count(e.DB, e.GoldSQL)
				count(e.DB, e.CorruptSQL)
			}
		}
		for _, s := range servedSQL(t, c) {
			count(s[0], s[1])
		}
	}

	var lines []string
	for _, path := range slices.Sorted(maps.Keys(tally)) {
		lines = append(lines, fmt.Sprintf("%6d  %s", tally[path], path))
	}
	t.Logf("paths of the distinct gold, corrupt and served statements:\n%s", strings.Join(lines, "\n"))
	for path, n := range tally {
		if ceiling, ok := fallbackCeiling[path]; ok && n > ceiling || !ok && strings.HasPrefix(path, "rows(") {
			t.Errorf("%d statements on %s, at most %d allowed", n, path, ceiling)
		}
	}
	for _, shape := range slices.Sorted(maps.Keys(shapes)) {
		_, sql, _ := strings.Cut(shape, "  ")
		if why, ok := fallbackShapes[sql]; ok {
			t.Logf("%3d  %s  (%s)", shapes[shape], shape, why)
		} else {
			t.Errorf("%d statements of a shape with no reason on the interpreter's tail: %s", shapes[shape], shape)
		}
	}
}

// servedSQL serves every dev question of c once, on one server with
// seedd's defaults, and returns the database and SQL of each answer.
func servedSQL(t *testing.T, c *dataset.Corpus) [][2]string {
	t.Helper()
	srv, err := New(Config{
		Corpora:        []*dataset.Corpus{c},
		Client:         llm.NewSimulator(),
		Variant:        seed.VariantGPT,
		Generator:      "codes-15b",
		Burst:          64,
		MaxInFlight:    256,
		RequestTimeout: 30 * time.Second,
		StoreSeed:      7,
		Logger:         quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	var out [][2]string
	for _, e := range c.Dev {
		body, _ := json.Marshal(api.QueryRequest{DB: e.DB, Question: e.Question})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			continue
		}
		var qr api.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]string{e.DB, qr.SQL})
	}
	return out
}
