package llm

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func echoTask(prompt string, m Model, rng *Rand) (string, error) {
	return "echo: " + prompt, nil
}

func TestLookup(t *testing.T) {
	m, err := Lookup("deepseek-r1")
	if err != nil {
		t.Fatal(err)
	}
	if m.ContextWindow != 8192 {
		t.Errorf("deepseek-r1 window = %d, want 8192 (the paper's stated API cap)", m.ContextWindow)
	}
	if _, err := Lookup("gpt-99"); err == nil {
		t.Error("unknown model should error")
	}
}

func TestCompleteDeterministic(t *testing.T) {
	sim := NewSimulator()
	task := func(prompt string, m Model, rng *Rand) (string, error) {
		if rng.Chance(0.5) {
			return "heads", nil
		}
		return "tails", nil
	}
	req := Request{Model: "gpt-4o", Prompt: "flip", Task: task}
	r1, err := sim.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Text != r2.Text {
		t.Errorf("same request must give same response: %q vs %q", r1.Text, r2.Text)
	}
	// Different salt draws independent noise; over many salts both outcomes
	// appear.
	seen := map[string]bool{}
	for _, salt := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		r, err := sim.Complete(Request{Model: "gpt-4o", Prompt: "flip", Salt: salt, Task: task})
		if err != nil {
			t.Fatal(err)
		}
		seen[r.Text] = true
	}
	if !seen["heads"] || !seen["tails"] {
		t.Errorf("salted calls should vary: %v", seen)
	}
}

func TestTruncationLosesInformation(t *testing.T) {
	sim := NewSimulator()
	needle := "NEEDLE_AT_FRONT"
	long := needle + " " + strings.Repeat("filler ", 9000)
	resp, err := sim.Complete(Request{Model: "deepseek-r1", Prompt: long, Task: echoTask})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(resp.Text, needle) {
		t.Error("an over-window prompt must lose its front")
	}
	if got := CountTokens(strings.TrimPrefix(resp.Text, "echo: ")); got > 8192 {
		t.Errorf("truncated prompt still over window: %d tokens", got)
	}
	// The same prompt fits gpt-4o's window whole.
	resp, err = sim.Complete(Request{Model: "gpt-4o", Prompt: long, Task: echoTask})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, needle) {
		t.Error("a prompt within the window must reach the task whole")
	}
}

func TestLedger(t *testing.T) {
	sim := NewSimulator()
	for i := 0; i < 3; i++ {
		if _, err := sim.Complete(Request{Model: "gpt-4o-mini", Prompt: "hello world", Task: echoTask}); err != nil {
			t.Fatal(err)
		}
	}
	led := sim.LedgerSnapshot()
	u := led.PerModel["gpt-4o-mini"]
	if u.Calls != 3 {
		t.Errorf("calls = %d, want 3", u.Calls)
	}
	if u.PromptTokens != 3*CountTokens("hello world") {
		t.Errorf("prompt tokens = %d", u.PromptTokens)
	}
	if led.TotalCalls() != 3 {
		t.Errorf("TotalCalls = %d", led.TotalCalls())
	}
}

func TestMissingTask(t *testing.T) {
	sim := NewSimulator()
	if _, err := sim.Complete(Request{Model: "gpt-4o", Prompt: "x"}); err == nil {
		t.Error("nil task should error")
	}
}

func TestCountTokens(t *testing.T) {
	if CountTokens("") != 0 {
		t.Error("empty string has 0 tokens")
	}
	if CountTokens("one two three") != 3 {
		t.Errorf("short words are 1 token each: %d", CountTokens("one two three"))
	}
	long := CountTokens("antidisestablishmentarianism")
	if long < 2 {
		t.Errorf("long words cost more than 1 token: %d", long)
	}
}

// fieldsCountTokens is CountTokens as written before it walked its
// fields: over the strings strings.Fields allocates.
func fieldsCountTokens(s string) int {
	n := 0
	for _, f := range strings.Fields(s) {
		n += tokenCost(f)
	}
	return n
}

// TestCountTokensMatchesFields: the walk counts what strings.Fields
// counts — ASCII and Unicode spaces (NEL, NBSP, the U+2000 run, ideographic
// space), invalid UTF-8 (never a space), runs of spaces at either end —
// and allocates nothing.
func TestCountTokensMatchesFields(t *testing.T) {
	cases := []string{
		"", " ", "one", " one  two\tthree\n", "antidisestablishmentarianism is long",
		"a\vb\fc\rd", "x\u0085y\u00a0z", "wide\u2003spaces\u3000here\u2028and\u2029there",
		"\xffbad\xfe bytes\xc3", "日本語のテキスト と 空白", "\u200bzero-width is not a space",
		"trailing   ", "   leading", "mixé\u00a0\u00a0café",
	}
	spaces := []string{" ", "\t", "\n", "\u0085", "\u00a0", "\u2003", "\u3000", "\u1680"}
	words := []string{"a", "select", "antidisestablishment", "é", "日本", "\xff", "x_y"}
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 1000; i++ {
		var b strings.Builder
		for n := rng.Intn(10); n > 0; n-- {
			if rng.Intn(2) == 0 {
				b.WriteString(spaces[rng.Intn(len(spaces))])
			} else {
				b.WriteString(words[rng.Intn(len(words))])
			}
		}
		cases = append(cases, b.String())
	}
	for _, s := range cases {
		if got, want := CountTokens(s), fieldsCountTokens(s); got != want {
			t.Fatalf("CountTokens(%q) = %d, strings.Fields form %d", s, got, want)
		}
	}
	prompt := strings.Repeat("Question: how many clients opened accounts\u00a0in 1996?\n", 40)
	if n := testing.AllocsPerRun(20, func() { CountTokens(prompt) }); n != 0 {
		t.Errorf("CountTokens allocates %.0f times", n)
	}
}

// Property: token count is additive across concatenation with a space.
func TestCountTokensAdditive(t *testing.T) {
	f := func(a, b string) bool {
		a = strings.Join(strings.Fields(a), " ")
		b = strings.Join(strings.Fields(b), " ")
		if a == "" || b == "" {
			return true
		}
		return CountTokens(a+" "+b) == CountTokens(a)+CountTokens(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Rand.Float64 stays in [0,1) and is reproducible per seed.
func TestRandProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r1, r2 := NewRand(seed), NewRand(seed)
		for i := 0; i < 16; i++ {
			v1, v2 := r1.Float64(), r2.Float64()
			if v1 != v2 || v1 < 0 || v1 >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRandChanceExtremes(t *testing.T) {
	r := NewRand(42)
	if r.Chance(0) {
		t.Error("Chance(0) must be false")
	}
	if !r.Chance(1) {
		t.Error("Chance(1) must be true")
	}
	if r.Pick(0) != -1 {
		t.Error("Pick(0) = -1")
	}
}

// TestLedgerConcurrentComplete hammers one simulator from many goroutines,
// the access pattern concurrent evserve generations produce. Run under -race this
// guards the ledger's lock discipline; the final counts check that no
// recording was lost.
func TestLedgerConcurrentComplete(t *testing.T) {
	s := NewSimulator()
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_, err := s.Complete(Request{
					Model:  "gpt-4o",
					Prompt: "concurrent prompt",
					Salt:   string(rune('a' + g)),
					Task:   echoTask,
				})
				if err != nil {
					t.Errorf("Complete: %v", err)
					return
				}
				if i%10 == 0 {
					_ = s.LedgerSnapshot() // concurrent reads must be safe too
				}
			}
		}(g)
	}
	wg.Wait()
	ledger := s.LedgerSnapshot()
	if got := ledger.TotalCalls(); got != goroutines*perG {
		t.Errorf("ledger recorded %d calls, want %d", got, goroutines*perG)
	}
}

// TestRegistryConcurrentAccess exercises RegisterModel against Lookup
// from concurrent goroutines.
func TestRegistryConcurrentAccess(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := "race-model-" + string(rune('a'+g))
			for i := 0; i < 25; i++ {
				RegisterModel(Model{Name: name, ContextWindow: 1000, Capability: 0.5, InstructionFollowing: 0.5})
				if _, err := Lookup(name); err != nil {
					t.Errorf("Lookup(%s): %v", name, err)
					return
				}
				_, _ = Lookup("gpt-4o")
			}
		}(g)
	}
	wg.Wait()
}
