package seed

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/synth"
	"repro/internal/textutil"
)

// matchScoreRef is the string-pair matcher SampleExecution ran before
// inventories and keywords were prepared: the reference the prepared
// scorer must reproduce bit for bit. It lowers per pair and calls the
// unbounded textutil.Similarity, itself checked against the full
// reference DP in textutil's tests.
func matchScoreRef(kw, v string) float64 {
	lk, lv := strings.ToLower(kw), strings.ToLower(v)
	if lk == lv {
		return 1.0
	}
	if len(lk) >= 3 && strings.Contains(lv, lk) {
		return 0.85
	}
	if len(lv) >= 3 && strings.Contains(lk, lv) {
		return 0.8
	}
	for _, syn := range synonyms(lk) {
		if syn == lv {
			return 0.9
		}
	}
	if s := textutil.Similarity(lk, lv); s >= 0.75 {
		return s * 0.9
	}
	return 0
}

// adversarialKeywords stress the prepared scorer where lowering, byte
// versus rune length and UTF-8 decoding could make it diverge from the
// string-pair reference.
var adversarialKeywords = []string{
	"", "a", "é", "ÉCOLE", "İstanbul", "ß", "SS", "\xff", "ab\xfecd", "�",
	"women", "Women", "female", "abcd", "éé", "Jesennik", "POPLATEK TYDNE",
}

// adversarialValues join every real inventory in the sweep: case and
// Unicode twins of the keywords above, the m = 4, d = 1 boundary pair for
// "abcd" (similarity exactly 0.75), a pair whose length difference is the
// whole distance ("abcxd"), and pairs just past them.
var adversarialValues = []string{
	"", "F", "M", "female", "école", "ecole", "istanbul", "i̇stanbul", "ss", "ß",
	"�", "\xff", "abxd", "abxy", "abcxd", "abcxyd", "xéé", "xééx", "ÉCOLE",
}

func newValues(texts []string) []schema.Value {
	out := make([]schema.Value, len(texts))
	for i, s := range texts {
		out[i] = schema.NewValue(s)
	}
	return out
}

// TestMatchScoreMatchesStringReference sweeps the prepared scorer against
// the string-pair reference by float64 bits: every BIRD dev keyword of
// both variants against every column inventory of its database plus the
// adversarial values, and the adversarial keywords against every
// inventory of every database. It also pins the byte-length containment
// rule and the 0.75 boundary.
func TestMatchScoreMatchesStringReference(t *testing.T) {
	c := testCorpus(t)
	row := make([]int, 8)
	pairs := 0
	check := func(kw *keyword, vals []schema.Value) {
		for i := range vals {
			v := &vals[i]
			got, want := matchScore(kw, v, row), matchScoreRef(kw.text, v.Text)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("matchScore(%q, %q) = %v, string reference %v", kw.text, v.Text, got, want)
			}
			pairs++
		}
	}
	adv := newValues(adversarialValues)
	for _, v := range []struct {
		name string
		cfg  Config
	}{{"gpt", ConfigGPT()}, {"deepseek", ConfigDeepSeek()}} {
		p := New(v.cfg, llm.NewSimulator(), c)
		inventories := func(db *schema.DB) [][]schema.Value {
			out := [][]schema.Value{adv}
			for _, t := range db.Engine.Tables() {
				for i, col := range t.Columns {
					if col.Type == "TEXT" {
						out = append(out, db.Values(t, i, sampleValues))
					}
				}
			}
			return out
		}
		seen := make(map[string]bool)
		for i, ex := range c.Dev {
			if testing.Short() && i%8 != 0 {
				continue
			}
			kws, _, err := p.extractKeywords(ex.Question)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range kws {
				if key := ex.DB + "\x00" + k; !seen[key] {
					seen[key] = true
					kw := newKeyword(k)
					for _, vals := range inventories(c.DBs[ex.DB]) {
						check(&kw, vals)
					}
				}
			}
		}
		for _, k := range adversarialKeywords {
			kw := newKeyword(k)
			for _, db := range c.DBs {
				for _, vals := range inventories(db) {
					check(&kw, vals)
				}
			}
		}
	}
	t.Logf("%d (keyword, value) pairs agree", pairs)

	// Containment counts bytes of the lowered text: "éé" is two runes but
	// four bytes, so it is contained in "xééx" (0.85), where a rune count
	// would have sent it to edit distance (d = 2 of 4, no score).
	kw, v := newKeyword("éé"), schema.NewValue("xééx")
	if got := matchScore(&kw, &v, row); got != 0.85 {
		t.Errorf("matchScore(éé, xééx) = %v, want 0.85 (byte-length containment)", got)
	}
	// m = 4, d = 1 sits exactly on the cutoff: similarity 0.75 scores.
	kw, v = newKeyword("abcd"), schema.NewValue("abxd")
	if got, want := matchScore(&kw, &v, row), 0.75*0.9; got != want {
		t.Errorf("matchScore(abcd, abxd) = %v, want %v (boundary scores)", got, want)
	}
	v = schema.NewValue("abxy")
	if got := matchScore(&kw, &v, row); got != 0 {
		t.Errorf("matchScore(abcd, abxy) = %v, want 0", got)
	}
	// One insertion: the length difference alone is the distance, and the
	// length bound must let the pair through (1 - 1/5 = 0.8).
	v = schema.NewValue("abcxd")
	if got, want := matchScore(&kw, &v, row), matchScoreRef("abcd", "abcxd"); got == 0 || got != want {
		t.Errorf("matchScore(abcd, abcxd) = %v, want %v", got, want)
	}
}

// TestScoringDistanceIsExactCutoff pins the bound matchScore hands the
// kernel: the largest d with 1 - d/m >= minEditSim in float64.
func TestScoringDistanceIsExactCutoff(t *testing.T) {
	for m := 1; m <= 512; m++ {
		d := scoringDistance(m)
		if 1-float64(d)/float64(m) < minEditSim || d < m && 1-float64(d+1)/float64(m) >= minEditSim {
			t.Fatalf("scoringDistance(%d) = %d is not the cutoff", m, d)
		}
	}
}

// TestLowerIsIdempotent justifies lowering once: the string-pair matcher
// lowered its inputs and then Similarity lowered them again, while the
// prepared scorer lowers once. strings.ToLower maps rune by rune (an
// invalid byte becomes U+FFFD), so idempotence on every rune, plus random
// strings with invalid bytes, covers every input.
func TestLowerIsIdempotent(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		once := strings.ToLower(string(r))
		if strings.ToLower(once) != once {
			t.Fatalf("ToLower not idempotent on %U: %q -> %q", r, once, strings.ToLower(once))
		}
	}
	f := func(b []byte) bool {
		once := strings.ToLower(string(b))
		return strings.ToLower(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// BenchmarkColdStages times SEED's two CPU-bound cold stages in isolation,
// cycling through the BIRD dev questions with their keywords extracted up
// front: sample_execution (the value matcher) and select_few_shots (the
// train-pool scan). sample_execution_100k runs the matcher over the
// 100k-row synthetic financial database; its set-up takes seconds, so it
// is skipped under -short.
func BenchmarkColdStages(b *testing.B) {
	c := dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7})
	p := New(ConfigGPT(), llm.NewSimulator(), c)
	kws := make([][]string, len(c.Dev))
	for i, ex := range c.Dev {
		var err error
		if kws[i], _, err = p.extractKeywords(ex.Question); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("sample_execution", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ex := c.Dev[i%len(c.Dev)]
			p.SampleExecution(c.DBs[ex.DB], kws[i%len(c.Dev)])
		}
	})
	b.Run("select_few_shots", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ex := c.Dev[i%len(c.Dev)]
			p.SelectFewShots(ex.Question, ex.DB)
		}
	})
	b.Run("sample_execution_100k", func(b *testing.B) {
		if testing.Short() {
			b.Skip("generates a 100k-row database; skipped in -short")
		}
		src, _ := c.DB("financial")
		db, err := synth.Generate(src, synth.Options{Seed: 7, Rows: synth.ProportionalRows(src, 100_000)})
		if err != nil {
			b.Fatal(err)
		}
		qs, err := synth.Workload(db, 40, 7)
		if err != nil {
			b.Fatal(err)
		}
		dev, err := synth.ToExamples(db.Name, qs)
		if err != nil {
			b.Fatal(err)
		}
		sp := New(ConfigGPT(), llm.NewSimulator(), &dataset.Corpus{Name: "synth", DBs: map[string]*schema.DB{db.Name: db}, Dev: dev})
		skws := make([][]string, len(dev))
		for i, ex := range dev {
			if skws[i], _, err = sp.extractKeywords(ex.Question); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp.SampleExecution(db, skws[i%len(dev)])
		}
	})
}
