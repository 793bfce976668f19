package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/seed"
	"repro/internal/sqlengine"
	"repro/internal/synth"
)

// recordLedger re-records testdata/ledger.golden from the code under test:
// go test -run TestLedger ./internal/server/ -record-ledger
var recordLedger = flag.Bool("record-ledger", false, "re-record testdata/ledger.golden")

var ledgerGolden = filepath.Join("testdata", "ledger.golden")

// The ledger's slack: what a statement's bytes per Exec, or a corpus's
// retained heap, may rise by before the ledger fails. Allocations may not
// rise at all.
const (
	execSlackDiv, execSlackB = 64, 64       // 1/64 of the recorded bytes, plus 64 B
	heapSlackDiv, heapSlackB = 32, 64 << 10 // 1/32 of the recorded heap, plus 64 KiB
	ledgerRuns               = 3            // Execs measured per statement
)

// TestLedger is the count ledger: the corpora the bench's bird_warm and
// scan100k_warm workloads serve (BIRD at corpus seed 7; the financial
// schema generated at 100,000 rows with its 40-question workload), built as
// bench/ builds them and served by one in-process server with seedd's
// defaults. Every question is asked twice, as the bench's warm-up leaves
// it, and the second answer is the one recorded. For each question the
// ledger holds what the server executed: its status, and for an answer the
// bytes and allocations of one Stmt.Exec on a warm plan cache, the Cost,
// the result rows and the /v1/query body's bytes with its clocks zeroed.
// For each corpus it holds the heap the corpus retains once built, and once
// served (its equality indexes and plans built). Nothing here reads a
// clock, so the numbers are exact for a Go version, which the golden's
// header names.
//
// The test fails when a statement's allocations rise, its bytes or a
// corpus's heap rise past the slack above, or its status, Cost, rows or
// body move; it logs every moved line and the sums. Re-record with
// -record-ledger, and name every moved line in CHANGES.md.
func TestLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-row corpus")
	}
	lines := []string{fmt.Sprintf("# ledger %s %s/%s: per Exec on a warm plan cache, %d runs", runtime.Version(), runtime.GOOS, runtime.GOARCH, ledgerRuns)}
	lines = append(lines, ledgerCorpus(t, "bird", func() *dataset.Corpus {
		return dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7})
	})...)
	lines = append(lines, ledgerCorpus(t, "scan100k", func() *dataset.Corpus {
		return scanCorpus(t, 100_000)
	})...)
	checkLedger(t, lines)
}

// scanCorpus is the bench's synth corpus: BIRD's financial schema generated
// at rows rows, seed 7, with its 40 canonical questions as the dev split.
func scanCorpus(t *testing.T, rows int) *dataset.Corpus {
	src, ok := dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7}).DB("financial")
	if !ok {
		t.Fatal("no financial database in BIRD")
	}
	db, err := synth.Generate(src, synth.Options{Seed: 7, Rows: synth.ProportionalRows(src, rows)})
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
	return &dataset.Corpus{Name: "synth", DBs: map[string]*schema.DB{db.Name: db}, Dev: dev}
}

// ledgerCorpus builds one corpus, serves its dev questions and returns its
// ledger lines.
func ledgerCorpus(t *testing.T, name string, build func() *dataset.Corpus) []string {
	h0 := heapAfterGC()
	corpus := build()
	built := heapAfterGC() - h0

	srv, err := New(Config{
		// cmd/seedd's flag defaults, as bench/ configures them.
		Corpora:        []*dataset.Corpus{corpus},
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
	type served struct {
		e      dataset.Example
		status int
		qr     api.QueryResponse
	}
	var all []served
	h := srv.Handler()
	for pass := range 2 {
		for i, e := range corpus.Dev {
			body, _ := json.Marshal(api.QueryRequest{DB: e.DB, Question: e.Question})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
			if pass == 0 {
				continue
			}
			s := served{e: e, status: rec.Code}
			if rec.Code == http.StatusOK {
				if err := json.Unmarshal(rec.Body.Bytes(), &s.qr); err != nil {
					t.Fatalf("question %d: %v", i, err)
				}
			}
			all = append(all, s)
		}
	}
	srv.Close()
	servedHeap := heapAfterGC() - h0

	lines := []string{fmt.Sprintf("corpus\t%s\t-\tbuilt=%d\tserved=%d", name, built, servedHeap)}
	for _, s := range all {
		key := fmt.Sprintf("stmt\t%s\t%s", name, s.e.ID)
		if s.status != http.StatusOK {
			lines = append(lines, fmt.Sprintf("%s\tstatus=%d", key, s.status))
			continue
		}
		db, _ := corpus.DB(s.e.DB)
		st, hit, err := db.Engine.PrepareCached(s.qr.SQL)
		if err != nil || !hit {
			t.Fatalf("%s: served SQL prepares with hit=%v, %v: %s", s.e.ID, hit, err, s.qr.SQL)
		}
		allocs, bytes := execCost(t, func() error { _, err := st.Exec(); return err })
		res, err := st.Exec()
		if err != nil {
			t.Fatalf("%s: served SQL fails in process: %v", s.e.ID, err)
		}
		if res.Cost != s.qr.Cost || res.Rows.Len() != s.qr.RowCount {
			t.Errorf("%s: in process cost %d, %d rows; served %d, %d", s.e.ID, res.Cost, res.Rows.Len(), s.qr.Cost, s.qr.RowCount)
		}
		lines = append(lines, fmt.Sprintf("%s\tstatus=200\tallocs=%d\tbytes=%d\tcost=%d\trows=%d\tbody=%d\t%s",
			key, allocs, bytes, res.Cost, res.Rows.Len(), clockFreeBody(&s.qr, res.Rows), s.qr.SQL))
	}
	runtime.KeepAlive(corpus)
	return lines
}

// heapAfterGC is the live heap once a collection has run.
func heapAfterGC() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// execCost is the allocations and bytes of one call of exec, averaged over
// ledgerRuns calls after a first, on one P as testing.AllocsPerRun counts.
func execCost(t *testing.T, exec func() error) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := exec(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range ledgerRuns {
		_ = exec()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / ledgerRuns, (after.TotalAlloc - before.TotalAlloc) / ledgerRuns
}

// clockFreeBody is the length of the /v1/query body the writer sends for
// qr's answer over rows, with every clock in it zeroed: the bytes a client
// is sent, less the digits of timings.
func clockFreeBody(qr *api.QueryResponse, rows *sqlengine.Rows) int {
	resp := *qr
	resp.Timing = api.QueryTiming{}
	if tr := resp.EvidenceTrace; tr != nil {
		c := *tr
		c.WallMicros, c.SerialMicros = 0, 0
		c.Stages = slices.Clone(c.Stages)
		for i := range c.Stages {
			c.Stages[i].StartMicros, c.Stages[i].WallMicros = 0, 0
		}
		resp.EvidenceTrace = &c
	}
	var w countWriter
	b := appendQueryResponse(&w, nil, &resp, rows, 0)
	return w.n + len(b)
}

// countWriter counts the bytes written to it.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// ledgerEntry is one parsed ledger line: its key (kind, corpus, question),
// its named numbers, and its SQL.
type ledgerEntry struct {
	key  string
	nums map[string]int64
	sql  string
}

func parseLedgerLine(line string) ledgerEntry {
	f := strings.Split(line, "\t")
	e := ledgerEntry{key: strings.Join(f[:min(3, len(f))], "\t"), nums: map[string]int64{}}
	for _, x := range f[min(3, len(f)):] {
		name, val, ok := strings.Cut(x, "=")
		n, err := strconv.ParseInt(val, 10, 64)
		if !ok || err != nil {
			e.sql = x
			continue
		}
		e.nums[name] = n
	}
	return e
}

// checkLedger compares lines with the golden, or re-records it under
// -record-ledger. Under another Go version than the golden's only what
// does not depend on it is compared: status, Cost, rows, body and SQL;
// under the race detector, whose instrumentation allocates bytes of its
// own, allocations are compared too, but not bytes or heap.
func checkLedger(t *testing.T, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if *recordLedger {
		if err := os.MkdirAll(filepath.Dir(ledgerGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(ledgerGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	sameGo := wantLines[0] == lines[0]
	if !sameGo {
		t.Logf("ledger recorded as %q, run as %q: allocations, bytes and heap are not compared", wantLines[0], lines[0])
	}
	sizes := sameGo && !raceEnabled
	want := make(map[string]ledgerEntry, len(wantLines))
	for _, l := range wantLines[1:] {
		e := parseLedgerLine(l)
		want[e.key] = e
	}
	sums := map[string][2]int64{} // "corpus name" -> recorded, now
	for _, l := range lines[1:] {
		g := parseLedgerLine(l)
		w, ok := want[g.key]
		if !ok {
			t.Errorf("%s: not in the ledger", g.key)
			continue
		}
		delete(want, g.key)
		if g.sql != w.sql {
			t.Errorf("%s: served SQL moved:\n got  %s\n want %s", g.key, g.sql, w.sql)
			continue
		}
		corpus := strings.Split(g.key, "\t")[1]
		for _, name := range []string{"status", "cost", "rows", "body", "allocs", "bytes", "built", "served"} {
			gv, wv := g.nums[name], w.nums[name]
			if name != "status" {
				s := sums[corpus+" "+name]
				sums[corpus+" "+name] = [2]int64{s[0] + wv, s[1] + gv}
			}
			if gv == wv {
				continue
			}
			var fail bool
			switch name {
			case "status", "cost", "rows", "body":
				fail = true
			case "allocs":
				fail = sameGo && gv > wv
			case "bytes":
				fail = sizes && gv > wv+wv/execSlackDiv+execSlackB
			case "built", "served":
				fail = sizes && gv > wv+wv/heapSlackDiv+heapSlackB
			}
			if fail {
				t.Errorf("%s: %s %d, ledger %d", g.key, name, gv, wv)
			} else {
				t.Logf("%s: %s %d, ledger %d (%+d)", g.key, name, gv, wv, gv-wv)
			}
		}
	}
	for k := range want {
		t.Errorf("%s: in the ledger, not served", k)
	}
	keys := slices.Sorted(maps.Keys(sums))
	for _, k := range keys {
		if s := sums[k]; s[0] != 0 || s[1] != 0 {
			t.Logf("sum %-16s %12d  ledger %12d  (%+d)", k, s[1], s[0], s[1]-s[0])
		}
	}
}
