// Command dbgen scales a fixture database to an arbitrary row count with
// referentially consistent synthetic data, and synthesizes an executable
// question/SQL workload over the generated values. It is the offline face
// of internal/synth: everything is a pure function of -seed, so two runs
// with identical flags produce byte-identical tables and workloads.
//
// Usage:
//
//	dbgen -db financial -total 1000000 -seed 42      # summary + fingerprint
//	dbgen -db financial -total 100000 -workload 50   # also print the workload
//	dbgen -db california_schools -out /tmp/corpus    # dump tables as CSV
//
// The fingerprint printed on every run hashes all generated bytes; equal
// fingerprints mean byte-identical corpora, which makes seed discipline
// checkable from the shell (run twice, diff one line).
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/schema"
	"repro/internal/synth"
)

func main() {
	dbName := flag.String("db", "financial", "fixture database to scale (any BIRD corpus database)")
	corpusSeed := flag.Uint64("corpus-seed", 7, "seed for the fixture corpus the models are inferred from")
	seed := flag.Uint64("seed", 42, "generation seed: same seed, same bytes")
	total := flag.Int("total", 100_000, "total rows across all tables (split proportionally, dimensions capped)")
	workloadN := flag.Int("workload", 0, "synthesize this many question/SQL pairs and print them as JSON lines")
	out := flag.String("out", "", "directory to dump generated tables as CSV (empty = no dump)")
	workers := flag.Int("workers", 0, "generation workers (0 = GOMAXPROCS; never affects output bytes)")
	flag.Parse()

	corpus := dataset.BuildBIRD(dataset.BIRDOptions{Seed: *corpusSeed, CleanDev: true})
	src, ok := corpus.DB(*dbName)
	if !ok {
		var names []string
		for n := range corpus.DBs {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "unknown database %q; available: %v\n", *dbName, names)
		os.Exit(2)
	}

	start := time.Now()
	db, err := synth.Generate(src, synth.Options{
		Seed:    *seed,
		Rows:    synth.ProportionalRows(src, *total),
		Workers: *workers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	genDur := time.Since(start)
	if err := synth.VerifyFK(db); err != nil {
		fmt.Fprintf(os.Stderr, "generated corpus is not FK-consistent: %v\n", err)
		os.Exit(1)
	}

	rows := 0
	for _, t := range db.Engine.Tables() {
		fmt.Printf("%-12s %8d rows\n", t.Name, t.Len())
		rows += t.Len()
	}
	fmt.Printf("total        %8d rows in %.2fs (%.0f rows/s)\n", rows, genDur.Seconds(), float64(rows)/genDur.Seconds())
	fmt.Printf("fingerprint  %#016x\n", synth.Fingerprint(db))

	if *workloadN > 0 {
		qs, err := synth.Workload(db, *workloadN, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		enc := json.NewEncoder(os.Stdout)
		for _, q := range qs {
			if err := enc.Encode(q); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	if *out != "" {
		if err := dumpCSV(db, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("tables dumped to %s\n", *out)
	}
}

// dumpCSV writes one CSV file per table: header row of column names, then
// data rows rendered with Value.AsText (NULL as empty cell).
func dumpCSV(db *schema.DB, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range db.Engine.Tables() {
		f, err := os.Create(filepath.Join(dir, t.Name+".csv"))
		if err != nil {
			return err
		}
		w := csv.NewWriter(f)
		if err := w.Write(t.ColumnNames()); err != nil {
			f.Close()
			return err
		}
		rec := make([]string, len(t.Columns))
		for ri := 0; ri < t.Len(); ri++ {
			for i := range rec {
				if v := t.Cell(ri, i); v.IsNull() {
					rec[i] = ""
				} else {
					rec[i] = v.AsText()
				}
			}
			if err := w.Write(rec); err != nil {
				f.Close()
				return err
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
