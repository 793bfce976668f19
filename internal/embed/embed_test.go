package embed

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmbedDeterministic(t *testing.T) {
	m := NewModel()
	a := m.Embed("How many schools are in Alameda county?")
	b := m.Embed("How many schools are in Alameda county?")
	if a != b {
		t.Error("identical text must embed identically")
	}
}

func TestEmbedUnitNorm(t *testing.T) {
	m := NewModel()
	v := m.Embed("weekly issuance accounts with a loan under 200000")
	var sq float64
	for _, x := range v {
		sq += float64(x) * float64(x)
	}
	if math.Abs(sq-1) > 1e-4 {
		t.Errorf("norm^2 = %v, want 1", sq)
	}
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
	order := m.Rank(query, candidates)
	if order[0] != 0 {
		t.Errorf("near-duplicate should rank first, got order %v", order)
	}
}

func TestRankStableUnderTies(t *testing.T) {
	m := NewModel()
	order := m.Rank("zzz unrelated", []string{"same text", "same text", "same text"})
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("tie-breaking should preserve index order: %v", order)
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
		return m.Embed(s) == m.Embed("  "+s+"  ")
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
		if m.Embed(s) != fresh {
			t.Fatalf("first Embed(%q) differs from direct computation", s)
		}
		if m.Embed(s) != fresh {
			t.Fatalf("memoised Embed(%q) differs from direct computation", s)
		}
	}
}

// TestRankVectorsMatchesRank pins that Rank and RankVectors agree.
func TestRankVectorsMatchesRank(t *testing.T) {
	m := NewModel()
	cands := []string{
		"weekly statement issuance",
		"monthly loan payments",
		"school district enrolment",
		"weekly issuance of statements",
	}
	vecs := make([]Vector, len(cands))
	for i, c := range cands {
		vecs[i] = m.Embed(c)
	}
	q := "which accounts issue weekly statements"
	a, b := m.Rank(q, cands), m.RankVectors(q, vecs)
	if len(a) != len(b) {
		t.Fatalf("length mismatch: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Rank %v != RankVectors %v", a, b)
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
				if m.Embed("shared question") != want {
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

// TestDot4MatchesDot checks each Dot4 result against Dot bit for bit, over
// random, embedded and subnormal vectors (subnormal products and sums are
// where a reordered or fused chain would first round differently).
func TestDot4MatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	random := func(scale float64) Vector {
		var v Vector
		for i := range v {
			v[i] = float32(rng.NormFloat64() * scale)
		}
		return v
	}
	subnormal := func() Vector {
		var v Vector
		for i := range v {
			v[i] = math.Float32frombits(rng.Uint32() & 0x807fffff) // zero exponent
		}
		return v
	}
	m := NewModel()
	var vecs []Vector
	for i := 0; i < 16; i++ {
		vecs = append(vecs, random(1), random(1e-20), subnormal())
	}
	vecs = append(vecs, m.Embed("How many schools are in Alameda county?"),
		m.Embed("weekly issuance accounts"), Vector{})
	for a := range vecs {
		for b := 0; b+3 < len(vecs); b++ {
			var got [4]float64
			got[0], got[1], got[2], got[3] = vecs[a].Dot4(&vecs[b], &vecs[b+1], &vecs[b+2], &vecs[b+3])
			for k, g := range got {
				if want := vecs[a].Dot(&vecs[b+k]); math.Float64bits(g) != math.Float64bits(want) {
					t.Fatalf("Dot4 lane %d (vectors %d, %d) = %v, Dot = %v", k, a, b+k, g, want)
				}
			}
		}
	}
}
