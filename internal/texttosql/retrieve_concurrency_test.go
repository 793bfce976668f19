package texttosql

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/schema"
)

// TestFindFragConcurrent drives a single Retriever — the configuration the
// serving subsystem runs, one retriever shared by every request of a
// session — from many goroutines at once, across both strategies, while
// the databases' value inventories and the BM25 value indexes are still
// cold (a corpus of its own, not the shared test corpus). Run with -race;
// every worker must also observe identical resolutions, since retrieval
// is deterministic.
func TestFindFragConcurrent(t *testing.T) {
	c := dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7})
	atoms := []dataset.Atom{
		{Kind: dataset.Synonym, Term: "women", ValueDerivable: true},
		{Kind: dataset.ValueMap, Term: "weekly issuance", ValueDerivable: true},
		{Kind: dataset.ColumnRef, Term: "gender", ValueDerivable: true},
		{Kind: dataset.ValueMap, Term: "no such thing anywhere", ValueDerivable: true},
	}
	var dbs []*schema.DB
	for _, db := range c.DBs {
		dbs = append(dbs, db)
	}
	for _, strat := range []Strategy{StrategyScan, StrategyBM25} {
		r := NewRetriever(strat)
		const workers = 16
		results := make([][]string, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, db := range dbs {
					for _, a := range atoms {
						frag, ok := r.FindFrag(db, a)
						results[w] = append(results[w], fmt.Sprintf("%s/%s=%q,%v", db.Name, a.Term, frag, ok))
					}
				}
			}(w)
		}
		wg.Wait()
		for w := 1; w < workers; w++ {
			if len(results[w]) != len(results[0]) {
				t.Fatalf("strategy %v: worker %d saw %d results, worker 0 saw %d",
					strat, w, len(results[w]), len(results[0]))
			}
			for i := range results[w] {
				if results[w][i] != results[0][i] {
					t.Errorf("strategy %v: worker %d diverged at %d: %s vs %s",
						strat, w, i, results[w][i], results[0][i])
				}
			}
		}
	}
}

// TestRetrieverWarmMatchesLazy pins Warm's contract: warming a database
// up front must leave the retriever in the same state lazy first use
// builds, and repeated or concurrent warms must not rebuild anything.
func TestRetrieverWarmMatchesLazy(t *testing.T) {
	c := testCorpus(t)
	db := c.DBs["financial"]

	warm := NewRetriever(StrategyBM25)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); warm.Warm(db) }()
	}
	wg.Wait()
	idx := warm.valueIndex(db)
	if idx == nil || idx.index.Len() == 0 {
		t.Fatal("Warm did not build the BM25 value index")
	}
	if again := warm.valueIndex(db); again != idx {
		t.Fatal("valueIndex rebuilt after Warm")
	}

	lazy := NewRetriever(StrategyBM25)
	for _, a := range []dataset.Atom{
		{Kind: dataset.Synonym, Term: "women", ValueDerivable: true},
		{Kind: dataset.ValueMap, Term: "weekly issuance", ValueDerivable: true},
	} {
		wf, wok := warm.FindFrag(db, a)
		lf, lok := lazy.FindFrag(db, a)
		if wf != lf || wok != lok {
			t.Errorf("warmed retriever resolves %q to %q,%v; lazy resolves %q,%v",
				a.Term, wf, wok, lf, lok)
		}
	}

	scan := NewRetriever(StrategyScan)
	scan.Warm(db)
	if frag, ok := scan.FindFrag(db, dataset.Atom{Kind: dataset.Synonym, Term: "women", ValueDerivable: true}); !ok || frag != "'F'" {
		t.Errorf("warmed scan retriever: FindFrag(women) = %q, %v", frag, ok)
	}
}
