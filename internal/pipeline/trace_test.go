package pipeline

import (
	"strings"
	"testing"
)

// diamond is a finished trace of the graph
//
//	a ─┬─ b ─┐
//	   └─ c ─┴─ d
func diamond(wall int64) *Trace {
	return &Trace{
		Graph: "diamond",
		Stages: []StageTrace{
			{Stage: "a", WallMicros: wall},
			{Stage: "b", Deps: []string{"a"}, StartMicros: wall, WallMicros: 2 * wall, Tokens: 10},
			{Stage: "c", Deps: []string{"a"}, StartMicros: wall, WallMicros: wall},
			{Stage: "d", Deps: []string{"b", "c"}, StartMicros: 3 * wall, WallMicros: wall},
		},
		WallMicros:   4 * wall,
		SerialMicros: 5 * wall,
	}
}

func TestTraceTreeRendersDepths(t *testing.T) {
	tree := diamond(10).Tree()
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
	if !strings.Contains(tree, "overlap=1.25x") {
		t.Errorf("tree header lacks the 5/4 overlap:\n%s", tree)
	}
}

func TestAggregator(t *testing.T) {
	agg := NewAggregator()
	agg.Observe(nil) // ignored
	for i := int64(1); i <= 3; i++ {
		agg.Observe(diamond(i))
	}
	snap := agg.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d stages, want 4", len(snap))
	}
	if snap[0].Stage != "a" || snap[0].Count != 3 {
		t.Errorf("first stage agg = %+v", snap[0])
	}
	b := snap[1]
	if b.Stage != "b" || b.Tokens != 30 || b.WallMicros != 12 || b.MeanMicros() != 4 {
		t.Errorf("b agg = %+v, want 30 tokens over 12us, mean 4us", b)
	}
}
