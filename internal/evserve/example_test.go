package evserve_test

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/evserve"
	"repro/internal/pipeline"
)

// ExampleService_Generate shows the request path: the first call runs the
// wrapped generator, repeats are served from the cache.
func ExampleService_Generate() {
	var pipelineRuns atomic.Int64
	svc := evserve.New(evserve.Options{
		Variant: "seed_gpt",
		GenerateTraced: func(_ context.Context, db, question string) (string, *pipeline.Trace, error) {
			pipelineRuns.Add(1)
			return "free rate = FreeMealCount / Enrollment", nil, nil
		},
	})
	defer svc.Close()

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		ev, _ := svc.Generate(ctx, "california_schools", "What is the highest free rate?")
		fmt.Println(ev)
	}
	st := svc.Stats()
	fmt.Printf("pipeline runs: %d, cache hits: %d\n", pipelineRuns.Load(), st.Cache.Hits)
	// Output:
	// free rate = FreeMealCount / Enrollment
	// free rate = FreeMealCount / Enrollment
	// free rate = FreeMealCount / Enrollment
	// pipeline runs: 1, cache hits: 2
}

// ExampleService_GenerateAll shows the batch API: a whole split goes
// through at most Workers generations at a time and comes back in
// submission order.
func ExampleService_GenerateAll() {
	svc := evserve.New(evserve.Options{
		Variant: "seed_gpt",
		Workers: 4,
		GenerateTraced: func(_ context.Context, db, question string) (string, *pipeline.Trace, error) {
			return "evidence for: " + question, nil, nil
		},
	})
	defer svc.Close()

	results, err := svc.GenerateAll(context.Background(), []evserve.Request{
		{DB: "financial", Question: "How many accounts are there?"},
		{DB: "financial", Question: "Which district has the most loans?"},
	})
	fmt.Println("batch error:", err)
	for _, r := range results {
		fmt.Println(r.Evidence)
	}
	// Output:
	// batch error: <nil>
	// evidence for: How many accounts are there?
	// evidence for: Which district has the most loans?
}

// ExampleCache shows the LRU on its own: capacity bounds the
// population and the least recently used entry is evicted first.
func ExampleCache() {
	c := evserve.NewCache(2)
	c.Put(evserve.KeyFor("db", "seed_gpt", "q1"), evserve.Entry{Evidence: "ev1"})
	c.Put(evserve.KeyFor("db", "seed_gpt", "q2"), evserve.Entry{Evidence: "ev2"})
	c.Get(evserve.KeyFor("db", "seed_gpt", "q1"))                                 // refresh q1
	c.Put(evserve.KeyFor("db", "seed_gpt", "q3"), evserve.Entry{Evidence: "ev3"}) // evicts q2

	_, q1 := c.Get(evserve.KeyFor("db", "seed_gpt", "q1"))
	_, q2 := c.Get(evserve.KeyFor("db", "seed_gpt", "q2"))
	fmt.Println("q1 cached:", q1)
	fmt.Println("q2 cached:", q2)
	// Output:
	// q1 cached: true
	// q2 cached: false
}
