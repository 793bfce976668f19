// Command sqlsh is an interactive SQL shell over a synthetic corpus
// database, backed by the reproduction's own SQL engine.
//
// Usage:
//
//	sqlsh -db financial
//	> SELECT COUNT(*) FROM client WHERE gender = 'F';
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/sqlengine"
)

func main() {
	dbName := flag.String("db", "financial", "database name within the corpus")
	corpusName := flag.String("corpus", "bird", "corpus: bird or spider")
	seedFlag := flag.Uint64("seed", 7, "corpus generation seed")
	flag.Parse()

	var corpus *dataset.Corpus
	if *corpusName == "spider" {
		corpus = dataset.BuildSpider(*seedFlag)
	} else {
		corpus = dataset.BuildBIRD(dataset.BIRDOptions{Seed: *seedFlag})
	}
	db, ok := corpus.DB(*dbName)
	if !ok {
		var names []string
		for k := range corpus.DBs {
			names = append(names, k)
		}
		fmt.Fprintf(os.Stderr, "no database %q; available: %v\n", *dbName, names)
		os.Exit(2)
	}
	fmt.Printf("connected to %s (%d tables); end statements with ';', .schema prints DDL, .timing toggles timing, .trace on|off prints span trees, .quit exits\n",
		db.Name, len(db.Engine.Tables()))

	scanner := bufio.NewScanner(os.Stdin)
	var buf strings.Builder
	timing := false
	tracing := false
	fmt.Print("> ")
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if arg, ok := strings.CutPrefix(trimmed, ".trace"); ok {
			switch strings.TrimSpace(arg) {
			case "on":
				tracing = true
			case "off":
				tracing = false
			default:
				tracing = !tracing
			}
			state := "off"
			if tracing {
				state = "on"
			}
			fmt.Printf("trace %s (span tree per statement: prepare, plan-cache hit, execute, rows, cost)\n", state)
			fmt.Print("> ")
			continue
		}
		switch trimmed {
		case ".quit", ".exit":
			return
		case ".schema":
			fmt.Println(db.DDL())
			fmt.Print("> ")
			continue
		case ".tables":
			fmt.Println(strings.Join(db.Engine.TableNames(), " "))
			fmt.Print("> ")
			continue
		case ".timing":
			timing = !timing
			state := "off"
			if timing {
				state = "on"
			}
			fmt.Printf("timing %s (prepare vs execute, via the prepared-plan cache, plus morsels, workers and the tail's path)\n", state)
			fmt.Print("> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if !strings.Contains(line, ";") {
			fmt.Print("... ")
			continue
		}
		sql := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(buf.String()), ";"))
		buf.Reset()
		if sql != "" {
			run(db, sql, timing, tracing)
		}
		fmt.Print("> ")
	}
}

func run(db *schema.DB, sql string, timing, tracing bool) {
	var res *sqlengine.Result
	var err error
	var prepTime, execTime time.Duration
	var cacheHit bool
	var tr *obs.Trace
	var root *obs.Span
	ctx := context.Background()
	if tracing {
		ctx, tr = obs.NewTrace(ctx, "", "")
		root = tr.StartRoot("statement", "")
		root.SetAttr("sql", sql)
		ctx = obs.ContextWithSpan(ctx, root)
	}
	if timing || tracing {
		// Go through PrepareCached explicitly so the two phases —
		// parse/plan (amortised by the plan cache) and execution — are
		// separable, and the cache verdict is per-call rather than
		// inferred from stats deltas.
		_, psp := obs.StartSpan(ctx, "sqlengine.prepare")
		start := time.Now()
		var stmt *sqlengine.Stmt
		stmt, cacheHit, err = db.Engine.PrepareCached(sql)
		prepTime = time.Since(start)
		psp.SetAttr("plan_cache_hit", cacheHit)
		if err != nil {
			psp.Fail(err)
		} else {
			psp.End()
			_, esp := obs.StartSpan(ctx, "sqlengine.execute")
			start = time.Now()
			res, err = stmt.Exec()
			execTime = time.Since(start)
			if err != nil {
				esp.Fail(err)
			} else {
				if res.Rows != nil {
					esp.SetAttr("rows", len(res.Rows.Data))
				}
				esp.SetAttr("cost", res.Cost)
				esp.SetAttr("batches", res.Batches)
				esp.SetAttr("parallel_workers", res.Workers)
				esp.SetAttr("path", res.Path)
				esp.End()
			}
		}
	} else {
		res, err = db.Engine.Exec(sql)
	}
	if tracing {
		if err != nil {
			root.Fail(err)
		} else {
			root.End()
		}
		errMsg := ""
		if err != nil {
			errMsg = err.Error()
		}
		defer func() { fmt.Print(obs.RenderTree(tr.Finish("statement", 0, errMsg))) }()
	}
	if timing {
		defer func() {
			if err != nil {
				return
			}
			source := "planned"
			if cacheHit {
				source = "plan cache hit"
			}
			// Physical execution: the morsels filters and probes ran in (none
			// below the engine's batch threshold: the interpreter, serially),
			// the widest parallel fan-out any operator reached, and for a
			// SELECT the path its tail took (Result.Path).
			mode := "serial"
			if res.Batches > 0 {
				mode = fmt.Sprintf("%d morsels", res.Batches)
			}
			if res.Workers > 1 {
				mode += fmt.Sprintf(", %d workers", res.Workers)
			}
			if res.Path != "" {
				mode += ", path " + res.Path
			}
			fmt.Printf("timing: prepare %v (%s), execute %v (%s)\n",
				prepTime.Round(time.Microsecond), source, execTime.Round(time.Microsecond), mode)
		}()
	}
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if res.Rows == nil {
		fmt.Printf("ok (%d rows affected, cost %d)\n", res.RowsAffected, res.Cost)
		return
	}
	fmt.Println(strings.Join(res.Rows.Columns, " | "))
	for _, row := range res.Rows.Data {
		parts := make([]string, len(row))
		for i, v := range row {
			if v.IsNull() {
				parts[i] = "NULL"
			} else {
				parts[i] = v.AsText()
			}
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	fmt.Printf("(%d rows, cost %d)\n", len(res.Rows.Data), res.Cost)
}
