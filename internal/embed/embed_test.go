package embed

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"repro/internal/dataset"
	"repro/internal/textutil"
)

func TestEmbedDeterministic(t *testing.T) {
	m := NewModel()
	a := m.Embed("How many schools are in Alameda county?")
	b := m.Embed("How many schools are in Alameda county?")
	if !equal(a, b) {
		t.Error("identical text must embed identically")
	}
}

func TestEmbedUnitNorm(t *testing.T) {
	m := NewModel()
	v := m.Embed("weekly issuance accounts with a loan under 200000")
	var sq float64
	for _, x := range v.val {
		sq += float64(x) * float64(x)
	}
	if math.Abs(sq-1) > 1e-4 {
		t.Errorf("norm^2 = %v, want 1", sq)
	}
}

// Cosine returns the cosine similarity of two vectors in [-1, 1]. Vectors
// from Embed are unit length, so this is their dot product.
func Cosine(a, b Vector) float64 {
	q := a.Dense()
	return b.Dot(&q)
}

func TestCosineSelfIsOne(t *testing.T) {
	m := NewModel()
	v := m.Embed("List the elements with double bonds")
	if c := Cosine(v, v); math.Abs(c-1) > 1e-4 {
		t.Errorf("self-cosine = %v", c)
	}
}

func TestSimilarQuestionsRankHigher(t *testing.T) {
	m := NewModel()
	query := "How many clients opened their accounts in Jesenik branch were women?"
	candidates := []string{
		"How many clients opened accounts in the Pisek branch were men?", // near-duplicate
		"List all molecules with double bonds",                           // unrelated
		"What is the highest eligible free rate in Alameda county?",      // unrelated
	}
	q := m.Embed(query)
	near := Cosine(q, m.Embed(candidates[0]))
	for _, c := range candidates[1:] {
		if far := Cosine(q, m.Embed(c)); far >= near {
			t.Errorf("near-duplicate cosine %v, unrelated %q %v; want the near-duplicate higher", near, c, far)
		}
	}
}

// Property: cosine of any two embeddings stays within [-1, 1] + epsilon.
func TestCosineBounds(t *testing.T) {
	m := NewModel()
	f := func(a, b string) bool {
		c := Cosine(m.Embed(a), m.Embed(b))
		return c <= 1.0001 && c >= -1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: embedding is invariant to trivial whitespace padding.
func TestEmbedWhitespaceInvariant(t *testing.T) {
	m := NewModel()
	f := func(s string) bool {
		return equal(m.Embed(s), m.Embed("  "+s+"  "))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestEmbedMemoised pins that memoised embeddings are identical to fresh
// computation, across repeat calls and past the memo reset boundary.
func TestEmbedMemoised(t *testing.T) {
	m := NewModel()
	texts := []string{
		"How many accounts issue statements weekly?",
		"List the clients with loans in south Bohemia",
		"",
		"weekly weekly weekly",
	}
	for _, s := range texts {
		fresh := embedText(s)
		if !equal(m.Embed(s), fresh) {
			t.Fatalf("first Embed(%q) differs from direct computation", s)
		}
		if !equal(m.Embed(s), fresh) {
			t.Fatalf("memoised Embed(%q) differs from direct computation", s)
		}
	}
}

// TestEmbedConcurrent exercises the memo under -race.
func TestEmbedConcurrent(t *testing.T) {
	m := NewModel()
	want := m.Embed("shared question")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if !equal(m.Embed("shared question"), want) {
					t.Error("memoised vector drifted")
					return
				}
				m.Embed(fmt.Sprintf("unique question %d-%d", w, i))
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkEmbed contrasts cold embedding with memo hits.
func BenchmarkEmbed(b *testing.B) {
	const q = "How many accounts issue statements weekly in south Bohemia?"
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			embedText(q)
		}
	})
	b.Run("memoised", func(b *testing.B) {
		m := NewModel()
		m.Embed(q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Embed(q)
		}
	})
}

// equal reports whether two vectors hold the same cells.
func equal(a, b Vector) bool {
	return slices.Equal(a.idx, b.idx) && slices.Equal(a.val, b.val)
}

// denseDot is the reference dot product: every one of the Dim cells, in
// index order.
func denseDot(a, b *[Dim]float32) float64 {
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	return dot
}

// ngramDense is embedDense with each word's trigrams taken from
// NGrams, as they were before addTrigrams hashed them in place:
// the reference TestTrigramsMatchNGrams holds it to.
func ngramDense(text string) [Dim]float32 {
	var v [Dim]float32
	words := textutil.Tokenize(text)
	for _, w := range words {
		addFeature(&v, 1.0, "w:", textutil.Stem(w))
	}
	for i := 0; i+1 < len(words); i++ {
		addFeature(&v, 0.7, "b:", words[i], "_", words[i+1])
	}
	for _, w := range words {
		for _, g := range NGrams(w, 3) {
			addFeature(&v, 0.3, "g:", g)
		}
	}
	normalise(&v)
	return v
}

// NGrams returns the character n-grams of s (lower-cased, including
// word-boundary markers), the grams the embedding hashed before
// addTrigrams. They are substrings of one padded, lower-cased copy of s,
// which is valid UTF-8 (see textutil.Tokenize), so each is exactly its n
// runes.
func NGrams(s string, n int) []string {
	if n <= 0 {
		return nil
	}
	padded := " " + strings.ToLower(s) + " "
	runes := utf8.RuneCountInString(padded)
	if runes < n {
		return []string{padded}
	}
	out := make([]string, 0, runes-n+1)
	end := 0
	for range n {
		_, w := utf8.DecodeRuneInString(padded[end:])
		end += w
	}
	for start := 0; ; {
		out = append(out, padded[start:end])
		if end == len(padded) {
			return out
		}
		_, w := utf8.DecodeRuneInString(padded[start:])
		start += w
		_, w = utf8.DecodeRuneInString(padded[end:])
		end += w
	}
}

// runeNGrams is NGrams as it was written before grams were sliced: each
// gram converted back from a []rune window.
func runeNGrams(s string, n int) []string {
	if n <= 0 {
		return nil
	}
	runes := []rune(" " + strings.ToLower(s) + " ")
	if len(runes) < n {
		return []string{string(runes)}
	}
	out := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		out = append(out, string(runes[i:i+n]))
	}
	return out
}

// TestNGrams holds the sliced reference to the rune-window one, on text
// where slicing and converting could part: invalid UTF-8, a capital whose
// lower case is shorter in bytes, combining marks and multi-byte runes.
func TestNGrams(t *testing.T) {
	grams := NGrams("ab", 3)
	want := []string{" ab", "ab "}
	if !reflect.DeepEqual(grams, want) {
		t.Errorf("NGrams = %v, want %v", grams, want)
	}
	if NGrams("x", 0) != nil {
		t.Error("n=0 should return nil")
	}
	for _, s := range []string{"", "molecule TR024", "\xff", "ab\xffcd", "\xe2\x82", "İstanbul İİ", "ÉCOLE école", "á́b", "日本語", "ẞ straße", "ΣΑΣ"} {
		for _, n := range []int{1, 2, 3, 5} {
			if got, want := NGrams(s, n), runeNGrams(s, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("NGrams(%q, %d) = %q, want %q", s, n, got, want)
			}
		}
	}
}

// TestTrigramsMatchNGrams holds the embedding, whose trigrams addTrigrams
// hashes in place, to the NGrams-based reference bit for bit: every
// question of BIRD's and Spider's splits at seed 7, and words of one, two
// and three runes, multi-byte runes, digits and underscores.
func TestTrigramsMatchNGrams(t *testing.T) {
	texts := []string{"a", "ab", "abc", "é", "éa", "aé", "日本語", "x_1 2 ÀÉÎ straße ΣΑΣ", "İstanbul K", ""}
	for _, c := range []*dataset.Corpus{dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7}), dataset.BuildSpider(7)} {
		for _, split := range [][]dataset.Example{c.Train, c.Dev, c.Test} {
			for _, e := range split {
				texts = append(texts, e.Question)
			}
		}
	}
	for _, q := range texts {
		if got, want := embedDense(q), ngramDense(q); got != want {
			t.Fatalf("%q embeds apart from the NGrams reference", q)
		}
	}
	if len(texts) < 1000 {
		t.Fatalf("only %d texts", len(texts))
	}
}

// TestSparseDotMatchesDense checks the gather-dot over stored non-zeros
// against denseDot bit for bit: every BIRD dev question against every
// train question (the few-shot scan), and hand-built vectors whose
// buckets cancel to zero or hold -0, tiny and subnormal values, or
// nothing at all.
func TestSparseDotMatchesDense(t *testing.T) {
	c := dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7})
	train := make([]string, len(c.Train))
	for i, ex := range c.Train {
		train[i] = ex.Question
	}
	pool := NewPool(train)
	denseTrain := make([][Dim]float32, len(train))
	for j, q := range train {
		denseTrain[j] = embedDense(q)
		if pool.At(j).Dense() != denseTrain[j] {
			t.Fatalf("pool member %d does not scatter back to its dense embedding", j)
		}
	}
	m := NewModel()
	for _, ex := range c.Dev {
		d := embedDense(ex.Question)
		v := m.Embed(ex.Question)
		if v.Dense() != d {
			t.Fatalf("Embed(%q) does not scatter back to its dense embedding", ex.Question)
		}
		for j := range train {
			want := math.Float64bits(denseDot(&d, &denseTrain[j]))
			if got := math.Float64bits(pool.At(j).Dot(&d)); got != want {
				t.Fatalf("dev %s x train %d: gather-dot %x, dense %x", ex.ID, j, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(32))
	var hand [][Dim]float32
	var cancelled [Dim]float32
	for i := 0; i+1 < Dim; i += 3 {
		cancelled[i] = 0.3
		cancelled[i] -= 0.3 // +0, never -0: the embedder's buckets cancel this way
		cancelled[i+1] = float32(rng.NormFloat64())
	}
	var negZero, tiny, subnormal [Dim]float32
	for i := range negZero {
		if i%2 == 0 {
			negZero[i] = float32(math.Copysign(0, -1))
		} else {
			negZero[i] = -float32(rng.Float64())
		}
		tiny[i] = float32(rng.NormFloat64() * 1e-20)
		if rng.Intn(4) == 0 {
			subnormal[i] = math.Float32frombits(rng.Uint32() & 0x807fffff) // zero exponent
		}
	}
	hand = append(hand, cancelled, negZero, tiny, subnormal, embedDense(""), [Dim]float32{},
		embedDense("How many schools are in Alameda county?"))
	for a := range hand {
		for b := range hand {
			v := appendNonZero(Vector{}, &hand[b])
			want := math.Float64bits(denseDot(&hand[a], &hand[b]))
			if got := math.Float64bits(v.Dot(&hand[a])); got != want {
				t.Fatalf("hand-built %d x %d: gather-dot %x, dense %x", a, b, got, want)
			}
			if got := math.Float64bits(Cosine(appendNonZero(Vector{}, &hand[a]), v)); got != want {
				t.Fatalf("hand-built %d x %d: Cosine %x, dense %x", a, b, got, want)
			}
		}
	}
	if v := m.Embed(""); len(v.idx) != 0 || Cosine(v, m.Embed("weekly issuance")) != 0 {
		t.Errorf("a text with no features embeds to %d cells, cosine %v; want none, 0", len(v.idx), Cosine(v, m.Embed("weekly issuance")))
	}
}
