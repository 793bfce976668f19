package bm25

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

var corpus = []string{
	"POPLATEK TYDNE weekly issuance",
	"POPLATEK MESICNE monthly issuance",
	"POPLATEK PO OBRATU issuance after transaction",
	"Alameda county school district",
	"magnet school program",
}

func TestTopKRanksRelevantFirst(t *testing.T) {
	idx := New(corpus)
	res := idx.TopK("weekly issuance", 3)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if res[0].Index != 0 {
		t.Errorf("weekly doc should rank first, got %d", res[0].Index)
	}
}

func TestTopKOmitsZeroScores(t *testing.T) {
	idx := New(corpus)
	res := idx.TopK("zzzz qqqq", 5)
	if len(res) != 0 {
		t.Errorf("nonsense query should match nothing, got %v", res)
	}
}

func TestTopKRespectsK(t *testing.T) {
	idx := New(corpus)
	res := idx.TopK("issuance", 2)
	if len(res) > 2 {
		t.Errorf("k=2 returned %d results", len(res))
	}
}

func TestEmptyIndex(t *testing.T) {
	idx := New(nil)
	if idx.Len() != 0 {
		t.Error("empty index length")
	}
	if res := idx.TopK("anything", 3); len(res) != 0 {
		t.Errorf("empty index returned %v", res)
	}
}

func TestScoreMonotonicInTermMatches(t *testing.T) {
	idx := New(corpus)
	one := idx.Score("weekly", 0)
	two := idx.Score("weekly issuance", 0)
	if two <= one {
		t.Errorf("adding a matching term should not lower the score: %v -> %v", one, two)
	}
}

func TestStemmedMatching(t *testing.T) {
	idx := New([]string{"the school has many students"})
	res := idx.TopK("schools student", 1)
	if len(res) != 1 {
		t.Fatalf("stemmed query should match: %v", res)
	}
}

// Property: scores are non-negative and TopK is sorted descending.
func TestScoreProperties(t *testing.T) {
	idx := New(corpus)
	f := func(q string) bool {
		res := idx.TopK(q, -1)
		prev := -1.0
		for i, r := range res {
			if r.Score < 0 {
				return false
			}
			if i > 0 && r.Score > prev {
				return false
			}
			prev = r.Score
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// bruteTopK is the oracle TopK must match: Score on every document, full
// sort under the retrieval order, cut.
func bruteTopK(idx *Index, query string, k int) []Result {
	var results []Result
	for i := 0; i < idx.Len(); i++ {
		if s := idx.Score(query, i); s > 0 {
			results = append(results, Result{Index: i, Score: s})
		}
	}
	sort.Slice(results, func(a, c int) bool { return worse(results[c], results[a]) })
	if k >= 0 && len(results) > k {
		results = results[:k]
	}
	return results
}

func sameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s pos %d: got %v want %v", label, i, got[i], want[i])
		}
	}
}

// randomDocs draws n documents of 0-12 words over the first vocab words
// of a synthetic vocabulary; about one in ten is empty.
func randomDocs(rng *rand.Rand, vocab, n int) []string {
	docs := make([]string, n)
	for i := range docs {
		if rng.Intn(10) == 0 {
			continue
		}
		parts := make([]string, 1+rng.Intn(12))
		for j := range parts {
			parts[j] = fmt.Sprintf("w%dx", rng.Intn(vocab))
		}
		docs[i] = strings.Join(parts, " ")
	}
	return docs
}

// TestTopKHeapMatchesSort pins the bounded-heap selection over posting
// lists against the brute-force oracle for every k on randomised document
// sets: same hits, same order, same scores.
func TestTopKHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	words := []string{"account", "loan", "status", "district", "client",
		"weekly", "monthly", "issuance", "gender", "school", "driver", "rate"}
	for trial := 0; trial < 25; trial++ {
		nDocs := 1 + rng.Intn(60)
		docs := make([]string, nDocs)
		for i := range docs {
			n := 2 + rng.Intn(8)
			parts := make([]string, n)
			for j := range parts {
				parts[j] = words[rng.Intn(len(words))]
			}
			docs[i] = strings.Join(parts, " ")
		}
		idx := New(docs)
		query := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		for _, k := range []int{0, 1, 2, 5, nDocs, nDocs * 2, -1} {
			sameResults(t, fmt.Sprintf("k=%d", k), idx.TopK(query, k), bruteTopK(idx, query, k))
		}
	}
}

// TestTopKEquivalenceProperty is the bit-identity contract over seeded
// random corpora (vocabulary 5-500 words, 0-2,000 documents, repeated
// query terms, empty documents): TopK equals the brute-force oracle built
// from Score, and an index grown by Add scores == one built by New.
func TestTopKEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sizes := []int{0, 1, 7, 60, 400, 2000}
	for trial, vocab := range []int{5, 5, 18, 40, 120, 500} {
		n := sizes[trial]
		docs := randomDocs(rng, vocab, n)
		built, grown := New(docs), New(nil)
		for _, d := range docs {
			grown.Add(d)
		}
		if built.Len() != n || grown.Len() != n {
			t.Fatalf("Len: built %d grown %d want %d", built.Len(), grown.Len(), n)
		}
		for q := 0; q < 8; q++ {
			parts := make([]string, 1+rng.Intn(6))
			for j := range parts {
				parts[j] = fmt.Sprintf("w%dx", rng.Intn(vocab+2)) // sometimes unknown
			}
			parts = append(parts, parts[0]) // a repeated query term
			query := strings.Join(parts, " ")
			for _, k := range []int{1, 5, 8, n + 3} {
				label := fmt.Sprintf("vocab=%d n=%d q=%q k=%d", vocab, n, query, k)
				want := bruteTopK(built, query, k)
				sameResults(t, label, built.TopK(query, k), want)
				sameResults(t, label+" (Add)", grown.TopK(query, k), want)
			}
			for i := 0; i < n; i += 1 + n/50 {
				if a, g := built.Score(query, i), grown.Score(query, i); a != g {
					t.Fatalf("Score(%q, %d): New %v, Add %v", query, i, a, g)
				}
			}
		}
	}
}

// TestNewDoesNotAliasDocs: the caller may reuse its slice after New.
func TestNewDoesNotAliasDocs(t *testing.T) {
	docs := append([]string(nil), corpus...)
	idx := New(docs)
	want := idx.TopK("weekly issuance", 3)
	for i := range docs {
		docs[i] = "magnet"
	}
	sameResults(t, "after overwrite", idx.TopK("weekly issuance", 3), want)
}

// TestTopKHugeK: k sizes nothing; a caller-supplied 1<<40 on a small index
// returns every scoring document.
func TestTopKHugeK(t *testing.T) {
	idx := New(corpus)
	sameResults(t, "k=1<<40", idx.TopK("issuance school", 1<<40), bruteTopK(idx, "issuance school", -1))
}

// valueDocs are "table column value" documents, the shape texttosql's
// value index is built over.
func valueDocs(n int) []string {
	rng := rand.New(rand.NewSource(5))
	tables := []string{"account", "client", "district", "loan", "trans"}
	cols := []string{"frequency", "gender", "name", "status", "k_symbol", "region"}
	docs := make([]string, n)
	for i := range docs {
		docs[i] = fmt.Sprintf("%s %s value%d %s", tables[rng.Intn(len(tables))],
			cols[rng.Intn(len(cols))], rng.Intn(n), cols[rng.Intn(len(cols))])
	}
	return docs
}

// TestAllocations pins what the other workloads pay for this index: a
// build of 1,000 value-shaped documents allocates no more than the
// scan-every-document index it replaced (measured there: 8,364), and a
// TopK allocates a small constant that does not grow with Len.
func TestAllocations(t *testing.T) {
	docs := valueDocs(1000)
	if got := testing.AllocsPerRun(5, func() { New(docs) }); got > 8364 {
		t.Errorf("New(1000 value docs): %.0f allocs, the index it replaced made 8364", got)
	}
	const query = "client gender value7"
	small, large := New(docs[:100]), New(docs)
	a := testing.AllocsPerRun(20, func() { small.TopK(query, 5) })
	c := testing.AllocsPerRun(20, func() { large.TopK(query, 5) })
	if a != c || c > 24 {
		t.Errorf("TopK allocs: %.0f at 100 docs, %.0f at 1000; want equal and <= 24", a, c)
	}
}

func benchDocs(n int) []string {
	rng := rand.New(rand.NewSource(7))
	words := []string{"account", "loan", "status", "district", "client",
		"weekly", "monthly", "issuance", "gender", "school", "driver", "rate",
		"payment", "duration", "owner", "branch", "region", "code"}
	docs := make([]string, n)
	for i := range docs {
		parts := make([]string, 3+rng.Intn(10))
		for j := range parts {
			parts[j] = words[rng.Intn(len(words))]
		}
		docs[i] = strings.Join(parts, " ")
	}
	return docs
}

var sink []Result

// BenchmarkTopK is a k=5 retrieval (what the CodeS baseline asks for)
// over an 18-word vocabulary — the densest posting lists this code sees.
func BenchmarkTopK(b *testing.B) {
	const query = "weekly issuance account district"
	idx := New(benchDocs(5000))
	b.Run("heap-k5", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = idx.TopK(query, 5)
		}
	})
	for _, n := range []int{500, 5000} {
		idx := New(benchDocs(n))
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = idx.TopK(query, 5)
			}
		})
	}
}

// BenchmarkBuild builds the index over value-shaped documents, as
// texttosql does once per database (and bird_cold once per round).
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{500, 5000} {
		docs := valueDocs(n)
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(docs)
			}
		})
	}
}
