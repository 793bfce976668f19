// Quickstart: generate evidence for one question and watch it change what
// a text-to-SQL model produces.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/seed"
	"repro/internal/texttosql"
)

func main() {
	// 1. Build the synthetic BIRD corpus: databases, description files,
	// questions. Everything is deterministic for a given seed.
	corpus := dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7})
	client := llm.NewSimulator()

	// 2. Set up SEED (the paper's GPT-variant architecture) and a
	// downstream text-to-SQL model (CodeS-15B).
	pipeline := seed.New(seed.ConfigGPT(), client, corpus)
	codes := texttosql.NewCodeS(client, 15)

	// 3. Pick a dev question that needs value-illustration knowledge.
	var ex dataset.Example
	for _, e := range corpus.Dev {
		if e.DB == "financial" && len(e.Atoms) > 1 {
			ex = e
			break
		}
	}
	db := corpus.DBs[ex.DB]
	fmt.Println("question:", ex.Question)

	// 4. Without evidence, the model has to guess the cryptic codes.
	sqlNone, err := codes.Generate(texttosql.Task{Example: ex, DB: db})
	must(err)
	fmt.Println("\nwithout evidence:\n ", sqlNone)

	// 5. SEED generates evidence from the schema, description files and
	// sampled values — no human in the loop. The traced form also returns
	// an EvidenceTrace: keyword extraction, sampling and few-shot
	// selection run in order while schema summarization runs beside them,
	// and the trace records each stage's wall time and token spend.
	ev, trace, err := pipeline.GenerateEvidenceTraced(context.Background(), ex.DB, ex.Question)
	must(err)
	fmt.Println("\nSEED evidence:\n ", ev)
	fmt.Println("\nhow it was made (stage | wall | tokens):")
	for _, st := range trace.Stages {
		fmt.Printf("  %-18s %6dus %6d tok\n", st.Stage, st.WallMicros, st.Tokens)
	}
	fmt.Printf("  whole run: %dus wall for %dus of stage time (%.2fx overlap)\n",
		trace.WallMicros, trace.SerialMicros, trace.Overlap())

	sqlSeed, err := codes.Generate(texttosql.Task{Example: ex, DB: db, Evidence: ev})
	must(err)
	fmt.Println("\nwith SEED evidence:\n ", sqlSeed)

	// 6. Execute both against the database and compare with the gold
	// query — the EX metric in miniature.
	gold := run(db, ex.GoldSQL)
	fmt.Println("\ngold result:    ", gold)
	fmt.Println("no-evidence run:", run(db, sqlNone))
	fmt.Println("SEED run:       ", run(db, sqlSeed))
}

// run executes sql and renders the first rows compactly.
func run(db *schema.DB, sql string) string {
	rows, err := db.Engine.Query(sql)
	if err != nil {
		return "error: " + err.Error()
	}
	var parts []string
	for i, r := range rows.Data {
		if i >= 3 {
			parts = append(parts, "...")
			break
		}
		var cells []string
		for _, v := range r {
			cells = append(cells, v.AsText())
		}
		parts = append(parts, strings.Join(cells, "|"))
	}
	return fmt.Sprintf("%d row(s): %s", len(rows.Data), strings.Join(parts, "; "))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
