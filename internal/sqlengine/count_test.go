package sqlengine

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// countPathLines renders the physical execution of each countQueries
// statement on db: the path its tail took and the morsels its filters and
// probes processed. The statements' rows and both executors' Cost are their
// engine9000 lines.
func countPathLines(db *Database) []string {
	lines := make([]string, 0, len(countQueries))
	for _, q := range countQueries {
		line := "count9000\t" + q
		if res, err := db.Exec(q); err != nil {
			line += "\terror: " + err.Error()
		} else {
			line += fmt.Sprintf("\tpath %s batches %d", res.Path, res.Batches)
		}
		lines = append(lines, line)
	}
	return lines
}

// TestCountOnlyBattery holds the COUNT(*) battery to what the engine
// answered before a COUNT(*)-only tail counted its input instead of listing
// it: on the 9,000-row fixture, each statement's rows, both executors' Cost,
// and its path and morsels, as testdata/answers.golden records them; on a
// 60-row fixture, the planned engine against the naive reference.
func TestCountOnlyBattery(t *testing.T) {
	small := buildEngineDB(5, 60)
	for _, q := range countQueries {
		crossCheck(t, small, q)
	}
	raw, err := os.ReadFile(goldenAnswers)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(raw), "\n") {
		if kind, rest, ok := strings.Cut(line, "\t"); ok && (kind == "engine9000" || kind == "count9000") {
			sql, _, _ := strings.Cut(rest, "\t")
			want[kind+"\t"+sql] = line
		}
	}
	db := buildEngineDB(5, 9000)
	got := countPathLines(db)
	for _, q := range countQueries {
		got = append(got, answerLine("engine9000\t"+q, db, q))
	}
	for _, line := range got {
		kind, rest, _ := strings.Cut(line, "\t")
		sql, _, _ := strings.Cut(rest, "\t")
		if w := want[kind+"\t"+sql]; line != w {
			t.Errorf("%s moved:\n got  %s\n want %s", sql, line, w)
		}
	}
}

// TestCountAllocations pins what counting is for: a COUNT(*) whose last
// operator is a filter or a hash join's probe adds up the vectors it keeps
// and lists nothing, so an execution allocates the same bytes (within 1 KiB)
// over 10k rows and over 100k. Listing cost 8 bytes a kept row or a left
// row: 720 KiB more at 100k.
func TestCountAllocations(t *testing.T) {
	queries := []struct{ sql, path string }{
		{"SELECT COUNT(*) FROM f WHERE NOT (grp = 'a')", "positions/agg"},
		{"SELECT COUNT(*) FROM f JOIN d ON f.grp = d.grp", "pairs/agg"},
		{"SELECT COUNT(*) FROM f LEFT JOIN d ON f.grp = d.grp", "pairs/agg"},
	}
	bytesAt := func(n int) []float64 {
		db := buildEngineDB(3, n)
		out := make([]float64, len(queries))
		for i, q := range queries {
			st, err := db.Prepare(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = bytesPerRun(5, func() {
				if res, err := st.Exec(); err != nil || res.Path != q.path || res.Rows.Cell(0, 0).I == 0 {
					t.Fatalf("%q over %d rows: %v, err %v, want a non-zero count on %s", q.sql, n, res, err, q.path)
				}
			})
		}
		return out
	}
	at10k, at100k := bytesAt(10_000), bytesAt(100_000)
	for i, q := range queries {
		if d := at100k[i] - at10k[i]; d > 1024 || d < -1024 {
			t.Errorf("%q allocates %.0f B over 10k rows and %.0f B over 100k, want the same within 1 KiB", q.sql, at10k[i], at100k[i])
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs calls after a warm-up, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
