// Command bench is the repository's one benchmark: six workloads over the
// whole serving and evaluation stack, twelve end-to-end metrics on each,
// and per-layer numbers from a traced run. README.md has the tables.
//
//	go run ./bench                       # all six workloads, 8 interleaved rounds
//	go run ./bench -trace out.json       # ... then 2 traced rounds and the layer replay
//	go run ./bench -repeat 2             # the whole set twice, compared against the bounds
//	go run ./bench -smoke                # 1 round, one pass, 10k-row corpus
//	bash bench/run.sh --workload bird_warm --seed 3 --seconds 20 --trace 0   # what BENCHMARK.json runs
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

const (
	scratchRoot  = ".bench_build" // the only directory the bench writes to
	defaultTrace = 2              // traced rounds per workload
	maxRounds    = 12
	// A driver run sets its workload up at least driverSetups times and
	// goes on, up to maxSetups, while that has taken less than
	// setupBudget: setup_s is the median, and a set-up of half a second
	// needs more than three samples for a steady one.
	driverSetups    = 3
	maxSetups       = 9
	setupBudget     = 4 * time.Second
	maxDriverRounds = 60
)

func main() {
	seedF := flag.Uint64("seed", 7, "traffic seed: op order within a round")
	corpusSeed := flag.Uint64("corpus-seed", 7, "data seed: reaches dataset.BuildBIRD, synth.Generate and synth.Workload")
	rounds := flag.Int("rounds", 8, "untraced measured rounds per workload")
	workloadF := flag.String("workload", "", "run this workload alone and print the driver's JSON line last")
	seconds := flag.Int("seconds", 0, "with -workload: measure for about this long (rounds = seconds / the workload's nominal round)")
	traceF := flag.String("trace", "0", "0: untraced; 1: add traced rounds and the layer replay; a path: the same, and write the spans there")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and compare the first two against the bounds")
	smoke := flag.Bool("smoke", false, "1 round, one pass, 10k-row corpus")
	updateGolden := flag.Bool("update-golden", false, "record this run as "+goldenPath+" (run from the repository root)")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(2, "unexpected argument %q", flag.Arg(0))
	}

	p := plan{
		opt:      options{seed: *seedF, corpusSeed: *corpusSeed, smoke: *smoke},
		rounds:   min(max(*rounds, 1), maxRounds),
		setups:   1,
		progress: os.Stderr,
	}
	for _, s := range specs {
		p.workloads = append(p.workloads, s.name)
	}
	if *traceF != "0" && *traceF != "" {
		p.traceRounds = defaultTrace
	}
	if *smoke {
		p.rounds = 1
		p.traceRounds = min(p.traceRounds, 1)
	}
	driver := *workloadF != ""
	if driver {
		sp, ok := specOf(*workloadF)
		if !ok {
			fail(2, "unknown workload %q", *workloadF)
		}
		p.workloads = []string{sp.name}
		p.setups, p.setupBudget = driverSetups, setupBudget
		if *seconds > 0 {
			p.rounds = min(max(int(math.Round(float64(*seconds)/sp.nominal.Seconds())), 3), maxDriverRounds)
		}
		if p.traceRounds > 0 {
			// A traced run reports layers only; one untraced round is
			// the base the tracing overhead is taken against.
			p.rounds, p.setups, p.setupBudget = 1, 1, 0
		}
	}

	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fail(1, "%v", err)
	}
	p.opt.scratch = mustMkdirTemp(scratchRoot, "run-")
	ok, err := run(p, driver, *repeat, *traceF, *updateGolden)
	os.RemoveAll(p.opt.scratch)
	if err != nil {
		fail(1, "%v", err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// run executes the plan (repeat times), prints what it measured and
// reports whether every run was correct and, with two or more, whether
// the first two agree within the bounds.
func run(p plan, driver bool, repeat int, tracePath string, updateGolden bool) (ok bool, err error) {
	ok = true
	var reps []*report
	for range max(repeat, 1) {
		rep, err := execute(p)
		if err != nil {
			return false, err
		}
		if updateGolden {
			err = rep.writeGolden()
		} else {
			err = rep.checkGolden()
		}
		if err != nil {
			return false, err
		}
		rep.printHeader(os.Stdout)
		rep.printEndToEnd(os.Stdout)
		rep.printLayers(os.Stdout)
		rep.printProblems(os.Stdout)
		ok = ok && rep.exitCode() == 0
		reps = append(reps, rep)
	}
	if len(reps) >= 2 && !compareRuns(os.Stdout, reps) {
		fmt.Println("FAIL repeat: a metric differs between two runs of the same code by more than its bound")
		ok = false
	}
	last := reps[len(reps)-1]
	if tracePath != "0" && tracePath != "1" && tracePath != "" {
		if err := writeSpans(tracePath, last.spans); err != nil {
			return false, err
		}
	}
	if driver {
		if err := last.printDriverLine(os.Stdout); err != nil {
			return false, err
		}
	}
	return ok, nil
}
