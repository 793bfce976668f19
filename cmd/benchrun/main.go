// Command benchrun regenerates the paper's tables and figures from the
// synthetic corpora.
//
// Usage:
//
//	benchrun -exp table4            # one experiment
//	benchrun -exp all -sample 4     # everything, sampled dev for speed
//	benchrun -exp all -stats        # plus service throughput + plan cache reports
//	benchrun -exp table7 -seed 11 -store-dir DIR   # other corpus seed; evidence replayed from DIR on repeat runs
//
// Experiments: fig2, fig3, table1, table2, table3, table4, table5,
// table6, table7, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig2, fig3, table1..table7, all)")
	seedFlag := flag.Uint64("seed", 7, "corpus generation seed")
	sample := flag.Int("sample", 1, "evaluate every n-th dev example (1 = full split)")
	stats := flag.Bool("stats", false, "print the evidence-service throughput and plan-cache reports at the end")
	storeDir := flag.String("store-dir", "", "durable evidence store directory for the experiment drivers (same layout as seedd -store-dir): repeat runs replay instead of regenerating")
	flag.Parse()

	ids := []string{"fig2", "table1", "table2", "table3", "table4", "table5", "table6", "table7", "fig3"}
	if *exp != "all" {
		// Checked before the Env exists: os.Exit skips its deferred Close.
		if !slices.Contains(ids, *exp) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		ids = []string{*exp}
	}
	var env *experiments.Env
	if *storeDir != "" {
		env = experiments.NewEnvWithStore(*seedFlag, *storeDir)
	} else {
		env = experiments.NewEnv(*seedFlag)
	}
	defer env.Close()
	run := func(id string) {
		start := time.Now()
		switch id {
		case "fig2":
			fmt.Println(experiments.Fig2(env).Render())
		case "fig3":
			fmt.Println(experiments.Fig3Trace(env))
		case "table1":
			fmt.Println(experiments.Table1(env).Render())
		case "table2":
			fmt.Println(experiments.Table2(env).Render())
		case "table3":
			fmt.Println(experiments.Table3(env).Render())
		case "table4":
			fmt.Println(experiments.Table4(env, *sample).Render())
		case "table5":
			fmt.Println(experiments.Table5(env).Render())
		case "table6":
			fmt.Println(experiments.Table6(env).Render())
		case "table7":
			fmt.Println(experiments.Table7(env, *sample).Render())
		}
		fmt.Printf("[%s took %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	for _, id := range ids {
		run(id)
	}
	if *stats {
		fmt.Println(experiments.ThroughputReport(env).Render())
		fmt.Println(experiments.PipelineStageReport(env).Render())
		fmt.Println(experiments.PlanCacheReport(env).Render())
	}
}
