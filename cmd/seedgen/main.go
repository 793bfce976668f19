// Command seedgen runs the SEED pipeline over a corpus split and prints
// the generated evidence, one line per question. Generation goes through
// the evserve service: a bounded worker pool fans the split out, identical
// questions are deduplicated in flight, and repeats hit the evidence cache.
//
// Usage:
//
//	seedgen -corpus bird -variant gpt -limit 10
//	seedgen -corpus spider -variant deepseek
//	seedgen -corpus bird -workers 8 -cache 4096   # batch tuning
//	seedgen -corpus bird -store-dir /var/lib/seedd   # share seedd's corpus
//
// With -store-dir, generation reads and writes the same durable evidence
// store layout seedd uses (StoreDir/<corpus>): questions the daemon has
// already served cost a cache lookup here, and evidence generated offline
// is served warm by the next daemon start — one evidence corpus shared
// between offline runs and online serving. The store holds a directory
// flock, so pointing seedgen at a directory a running seedd owns fails
// fast instead of corrupting the log; a store built under a different
// -seed refuses to open (manifest mismatch) instead of serving stale
// evidence.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/evserve"
	"repro/internal/evstore"
	"repro/internal/llm"
	"repro/internal/seed"
)

func main() {
	corpusName := flag.String("corpus", "bird", "corpus: bird or spider")
	variant := flag.String("variant", "gpt", "SEED variant: gpt or deepseek")
	limit := flag.Int("limit", 20, "maximum questions to process (0 = all)")
	seedFlag := flag.Uint64("seed", 7, "corpus generation seed")
	revise := flag.Bool("revise", false, "also print the SEED_revised form")
	workers := flag.Int("workers", 0, "evidence worker pool size (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 4096, "evidence cache capacity in entries (negative disables)")
	stats := flag.Bool("stats", false, "print the per-stage pipeline cost table (runs, wall time, tokens)")
	storeDir := flag.String("store-dir", "", "durable evidence store directory (same layout as seedd -store-dir; empty = in-memory only)")
	flag.Parse()

	var corpus *dataset.Corpus
	switch *corpusName {
	case "bird":
		corpus = dataset.BuildBIRD(dataset.BIRDOptions{Seed: *seedFlag})
	case "spider":
		corpus = dataset.BuildSpider(*seedFlag)
	default:
		fmt.Fprintf(os.Stderr, "unknown corpus %q\n", *corpusName)
		os.Exit(2)
	}

	cfg := seed.ConfigGPT()
	if *variant == "deepseek" {
		cfg = seed.ConfigDeepSeek()
	}
	client := llm.NewSimulator()
	p := seed.New(cfg, client, corpus)

	if *corpusName == "spider" {
		for _, db := range corpus.DBs {
			if err := p.DescribeDatabase(db); err != nil {
				fmt.Fprintf(os.Stderr, "describing %s: %v\n", db.Name, err)
				os.Exit(1)
			}
		}
		fmt.Println("-- generated description files for all spider databases")
	}

	svcOpts := evserve.Options{
		// One namespace rule shared with serving and the experiment
		// drivers, so a shared store replays cleanly in every direction.
		Variant:        evserve.CacheNamespace(string(cfg.Variant), *corpusName),
		GenerateTraced: p.GenerateEvidenceTraced,
		Workers:        *workers,
		CacheCapacity:  *cacheSize,
	}
	var store *evstore.Store
	if *storeDir != "" {
		// Same layout seedd uses: one store per corpus, keys carry the
		// variant, so offline and online runs share one evidence corpus.
		var err error
		store, err = evstore.Open(filepath.Join(*storeDir, *corpusName), evstore.Options{
			Manifest: evstore.Manifest(*corpusName, *seedFlag),
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "opening store: %v\n", err)
			os.Exit(1)
		}
		defer store.Close()
		svcOpts.Store = store
	}
	svc := evserve.New(svcOpts)
	defer svc.Close()

	split := corpus.Dev
	if *limit > 0 && *limit < len(split) {
		split = split[:*limit]
	}
	reqs := make([]evserve.Request, len(split))
	for i, e := range split {
		reqs[i] = evserve.Request{DB: e.DB, Question: e.Question}
	}
	start := time.Now()
	results, err := svc.GenerateAll(context.Background(), reqs)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "batch: %v\n", err)
		os.Exit(1)
	}

	for i, r := range results {
		e := split[i]
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, r.Err)
			continue
		}
		fmt.Printf("[%s] %s\n  evidence: %s\n", e.ID, e.Question, r.Evidence)
		if *revise {
			rev, err := p.Revise(r.Evidence)
			if err == nil {
				fmt.Printf("  revised:  %s\n", rev)
			}
		}
	}

	ledger := client.LedgerSnapshot()
	svcStats := svc.Stats()
	fmt.Printf("\n-- %d questions in %v (%.0f q/s), %d simulated LLM calls\n",
		len(split), elapsed.Round(time.Millisecond),
		float64(len(split))/elapsed.Seconds(), ledger.TotalCalls())
	fmt.Printf("-- %s\n", svcStats)
	if store != nil {
		sst := store.Stats()
		fmt.Printf("-- store %s: %d records (%d restored into cache), %d appended this run, replay %v\n",
			store.Dir(), sst.Records, svcStats.Restored, svcStats.StoreAppends,
			time.Duration(sst.ReplayMicros)*time.Microsecond)
	}
	for model, u := range ledger.PerModel {
		fmt.Printf("--   %s: %d calls, %d prompt tokens, %d completion tokens\n",
			model, u.Calls, u.PromptTokens, u.CompletionTokens)
	}

	if *stats {
		fmt.Printf("\n-- per-stage pipeline cost (%s)\n", cfg.Variant)
		fmt.Printf("--   %-18s %6s %12s %12s %9s\n",
			"stage", "runs", "mean wall", "total wall", "tokens")
		for _, sa := range svcStats.Stages {
			fmt.Printf("--   %-18s %6d %12s %12s %9d\n",
				sa.Stage, sa.Count,
				(time.Duration(sa.MeanMicros()) * time.Microsecond).Round(time.Microsecond),
				(time.Duration(sa.WallMicros) * time.Microsecond).Round(time.Microsecond),
				sa.Tokens)
		}
	}
}
