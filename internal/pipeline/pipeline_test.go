package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// diamond builds the canonical test graph:
//
//	a ─┬─ b ─┐
//	   └─ c ─┴─ d
func diamond(t *testing.T, memo *Memo) (*Graph, Ref[int]) {
	t.Helper()
	g := NewGraph("diamond")
	a := AddStage(g, "a", func(c *Ctx) (int, error) { return c.Input().(int), nil })
	var bOpts []Option
	bOpts = append(bOpts, After(a))
	if memo != nil {
		bOpts = append(bOpts, Memoized(memo, func(input any) (string, bool) {
			return fmt.Sprint(input), true
		}))
	}
	b := AddStage(g, "b", func(c *Ctx) (int, error) {
		c.AddTokens(10)
		return In(c, a) * 2, nil
	}, bOpts...)
	cc := AddStage(g, "c", func(c *Ctx) (int, error) { return In(c, a) + 1, nil }, After(a))
	d := AddStage(g, "d", func(c *Ctx) (int, error) { return In(c, b) + In(c, cc), nil }, After(b, cc))
	return g, d
}

func TestDiamondExecutes(t *testing.T) {
	g, d := diamond(t, nil)
	run, err := g.Execute(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := Out(run, d); got != 5*2+5+1 {
		t.Fatalf("d = %d, want 16", got)
	}
	tr := run.Trace()
	if len(tr.Stages) != 4 {
		t.Fatalf("trace has %d stages, want 4", len(tr.Stages))
	}
	// Registration order, with deps recorded.
	names := make([]string, len(tr.Stages))
	for i, st := range tr.Stages {
		names[i] = st.Stage
	}
	if strings.Join(names, ",") != "a,b,c,d" {
		t.Errorf("trace order = %v", names)
	}
	if got := tr.Stage("d").Deps; len(got) != 2 {
		t.Errorf("d deps = %v", got)
	}
	if tr.Stage("b").Tokens != 10 {
		t.Errorf("b tokens = %d, want 10", tr.Stage("b").Tokens)
	}
	var sum int64
	for _, st := range tr.Stages {
		sum += st.WallMicros
	}
	if tr.SerialMicros != sum {
		t.Errorf("SerialMicros = %d, want sum of stage walls %d", tr.SerialMicros, sum)
	}
}

func TestIndependentStagesOverlap(t *testing.T) {
	// Two 40ms sleeps with no mutual dependency must overlap: wall well
	// under the 80ms serial cost. Sleeps make this robust on one CPU.
	g := NewGraph("par")
	s1 := AddStage(g, "s1", func(c *Ctx) (int, error) { time.Sleep(40 * time.Millisecond); return 1, nil })
	s2 := AddStage(g, "s2", func(c *Ctx) (int, error) { time.Sleep(40 * time.Millisecond); return 2, nil })
	sum := AddStage(g, "sum", func(c *Ctx) (int, error) { return In(c, s1) + In(c, s2), nil }, After(s1, s2))
	start := time.Now()
	run, err := g.Execute(context.Background(), nil)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got := Out(run, sum); got != 3 {
		t.Fatalf("sum = %d", got)
	}
	if wall > 70*time.Millisecond {
		t.Errorf("independent stages did not overlap: wall %v (serial would be 80ms)", wall)
	}
	if ov := run.Trace().Overlap(); ov < 1.5 {
		t.Errorf("overlap = %.2f, want >= 1.5", ov)
	}
}

func TestStageErrorCancelsRun(t *testing.T) {
	g := NewGraph("fail")
	bad := AddStage(g, "bad", func(c *Ctx) (int, error) { return 0, errors.New("boom") })
	slow := AddStage(g, "slow", func(c *Ctx) (int, error) {
		select {
		case <-c.Context().Done():
			return 0, c.Context().Err()
		case <-time.After(5 * time.Second):
			return 1, nil
		}
	})
	_ = AddStage(g, "after", func(c *Ctx) (int, error) { return In(c, bad) + In(c, slow), nil }, After(bad, slow))
	start := time.Now()
	run, err := g.Execute(context.Background(), nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want boom", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("failure did not cancel the slow sibling")
	}
	// The failed stage's trace is preserved for diagnosis.
	if tr := run.Trace(); tr.Stage("bad") == nil || tr.Stage("bad").Err == "" {
		t.Errorf("failed stage missing from trace: %+v", tr)
	}
}

func TestContextCancellationAborts(t *testing.T) {
	g := NewGraph("ctx")
	_ = AddStage(g, "wait", func(c *Ctx) (int, error) {
		<-c.Context().Done()
		return 0, c.Context().Err()
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	if _, err := g.Execute(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMemoizationServesWarmRuns(t *testing.T) {
	memo := NewMemo(16, 1)
	var executions atomic.Int64
	g := NewGraph("memo")
	st := AddStage(g, "expensive", func(c *Ctx) (string, error) {
		executions.Add(1)
		c.AddTokens(7)
		return "v:" + fmt.Sprint(c.Input()), nil
	}, Memoized(memo, func(input any) (string, bool) { return fmt.Sprint(input), true }))

	run1, err := g.Execute(context.Background(), "q")
	if err != nil {
		t.Fatal(err)
	}
	run2, err := g.Execute(context.Background(), "q")
	if err != nil {
		t.Fatal(err)
	}
	if executions.Load() != 1 {
		t.Fatalf("stage executed %d times, want 1", executions.Load())
	}
	if Out(run1, st) != Out(run2, st) {
		t.Error("memoized value differs")
	}
	tr2 := run2.Trace()
	if !tr2.Stage("expensive").CacheHit {
		t.Error("warm run not marked cache hit")
	}
	if tr2.Stage("expensive").Tokens != 0 {
		t.Errorf("memo hit charged %d tokens, want 0", tr2.Stage("expensive").Tokens)
	}
	if tr2.CacheHits() != 1 {
		t.Errorf("CacheHits = %d", tr2.CacheHits())
	}
	// A different input misses.
	if _, err := g.Execute(context.Background(), "other"); err != nil {
		t.Fatal(err)
	}
	if executions.Load() != 2 {
		t.Errorf("distinct input did not execute: %d", executions.Load())
	}
	if st := memo.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("memo stats = %+v, want 1 hit / 2 misses", st)
	}
}

func TestConcurrentExecutes(t *testing.T) {
	// Many goroutines share one graph + memo; -race is the assertion.
	memo := NewMemo(64, 4)
	g, d := diamond(t, memo)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				run, err := g.Execute(context.Background(), i%5)
				if err != nil {
					t.Error(err)
					return
				}
				want := (i%5)*2 + (i % 5) + 1
				if got := Out(run, d); got != want {
					t.Errorf("d = %d, want %d", got, want)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestAddStagePanics(t *testing.T) {
	assertPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	assertPanic("duplicate stage", func() {
		g := NewGraph("dup")
		AddStage(g, "x", func(c *Ctx) (int, error) { return 0, nil })
		AddStage(g, "x", func(c *Ctx) (int, error) { return 0, nil })
	})
	assertPanic("unknown dependency", func() {
		g := NewGraph("unknown")
		AddStage(g, "x", func(c *Ctx) (int, error) { return 0, nil }, After(Ref[int]{name: "ghost"}))
	})
}

func TestUndeclaredInFailsRun(t *testing.T) {
	// Reading a stage not declared in After(...) is a scheduling race; the
	// body's panic is converted to a run error rather than crashing the
	// worker pool.
	g := NewGraph("undeclared")
	a := AddStage(g, "a", func(c *Ctx) (int, error) { return 1, nil })
	AddStage(g, "b", func(c *Ctx) (int, error) { return In(c, a), nil }) // no After(a)
	_, err := g.Execute(context.Background(), nil)
	if err == nil || !strings.Contains(err.Error(), "without declaring") {
		t.Fatalf("err = %v, want undeclared-dependency panic converted to error", err)
	}
}

func TestEmptyGraphErrors(t *testing.T) {
	if _, err := NewGraph("empty").Execute(context.Background(), nil); err == nil {
		t.Fatal("empty graph should fail to execute")
	}
}

func TestTraceTreeRendersDepths(t *testing.T) {
	g, _ := diamond(t, nil)
	run, err := g.Execute(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := run.Trace().Tree()
	for _, stage := range []string{"a", "b", "c", "d"} {
		if !strings.Contains(tree, stage) {
			t.Errorf("tree missing stage %s:\n%s", stage, tree)
		}
	}
	// d depends on b and c which depend on a: d must be indented deeper
	// than a.
	var aIndent, dIndent int
	for _, line := range strings.Split(tree, "\n") {
		trimmed := strings.TrimLeft(line, " ")
		if strings.HasPrefix(trimmed, "└─ a ") {
			aIndent = len(line) - len(trimmed)
		}
		if strings.HasPrefix(trimmed, "└─ d ") {
			dIndent = len(line) - len(trimmed)
		}
	}
	if dIndent <= aIndent {
		t.Errorf("d indent %d should exceed a indent %d:\n%s", dIndent, aIndent, tree)
	}
}

func TestAggregator(t *testing.T) {
	g, _ := diamond(t, nil)
	agg := NewAggregator()
	agg.Observe(nil) // ignored
	for i := 0; i < 3; i++ {
		run, err := g.Execute(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		agg.Observe(run.Trace())
	}
	snap := agg.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d stages, want 4", len(snap))
	}
	if snap[0].Stage != "a" || snap[0].Count != 3 {
		t.Errorf("first stage agg = %+v", snap[0])
	}
	var b StageAgg
	for _, s := range snap {
		if s.Stage == "b" {
			b = s
		}
	}
	if b.Tokens != 30 {
		t.Errorf("b tokens total = %d, want 30", b.Tokens)
	}
	runs, _ := agg.Runs()
	if runs != 3 {
		t.Errorf("runs = %d", runs)
	}
	sorted := agg.SortedSnapshot()
	for i := 1; i < len(sorted); i++ {
		if sorted[i].WallMicros > sorted[i-1].WallMicros {
			t.Errorf("SortedSnapshot not descending by wall: %+v", sorted)
		}
	}
}

func TestMemoKeyOptOut(t *testing.T) {
	memo := NewMemo(16, 1)
	var executions atomic.Int64
	g := NewGraph("optout")
	AddStage(g, "s", func(c *Ctx) (int, error) {
		executions.Add(1)
		return 1, nil
	}, Memoized(memo, func(input any) (string, bool) { return "", false }))
	for i := 0; i < 3; i++ {
		if _, err := g.Execute(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
	if executions.Load() != 3 {
		t.Errorf("opted-out stage memoized anyway: %d executions", executions.Load())
	}
}
