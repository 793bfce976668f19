// Package embed provides deterministic sentence embeddings standing in for
// the all-mpnet-base-v2 model that SEED uses for few-shot example selection
// (paper §III-C). Vectors are hashed bags of word unigrams, word bigrams
// and character trigrams, L2-normalised; cosine similarity between such
// vectors ranks lexically and thematically related questions highly, which
// is the only property SEED's similarity-based selection needs.
package embed

import (
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/textutil"
)

// Dim is the embedding dimensionality. 256 keeps hash collisions rare for
// question-sized inputs while staying cheap to compare.
const Dim = 256

// Vector is a fixed-size dense embedding.
type Vector [Dim]float32

// Model converts text to vectors. The zero Model is ready to use; it exists
// as a type (rather than free functions) so pipelines can hold it where the
// paper holds an embedding model handle.
//
// Embed memoises: the embedding is deterministic, and the pipelines embed
// the same texts over and over (every evidence variant re-embeds the same
// dev questions; Rank re-embeds its candidate pool on every call), so a
// bounded cache turns repeat embeddings into a map lookup. The memo is
// concurrency-safe — evidence-service workers share one Model.
type Model struct {
	mu   sync.Mutex
	memo map[string]Vector
}

// memoCap bounds the embedding memo. When full the memo resets rather than
// tracking recency: embedding workloads are corpus-sized (thousands of
// questions), so a reset is rare and refilling is cheap.
const memoCap = 8192

// NewModel returns the deterministic embedding model.
func NewModel() *Model { return &Model{} }

// Embed maps text to an L2-normalised vector. Identical text always yields
// an identical vector; repeat calls are served from the memo.
func (m *Model) Embed(text string) Vector {
	m.mu.Lock()
	if v, ok := m.memo[text]; ok {
		m.mu.Unlock()
		return v
	}
	m.mu.Unlock()

	v := embedText(text)

	m.mu.Lock()
	if m.memo == nil || len(m.memo) >= memoCap {
		m.memo = make(map[string]Vector, 256)
	}
	m.memo[text] = v
	m.mu.Unlock()
	return v
}

// embedText is the uncached embedding computation.
func embedText(text string) Vector {
	var v Vector
	words := textutil.Tokenize(text)
	for _, w := range words {
		addFeature(&v, "w:"+textutil.Stem(w), 1.0)
	}
	for i := 0; i+1 < len(words); i++ {
		addFeature(&v, "b:"+words[i]+"_"+words[i+1], 0.7)
	}
	for _, w := range words {
		for _, g := range textutil.NGrams(w, 3) {
			addFeature(&v, "g:"+g, 0.3)
		}
	}
	normalise(&v)
	return v
}

// addFeature hashes a feature into two buckets with opposite signs
// (feature hashing with sign trick) to reduce collision bias.
func addFeature(v *Vector, feat string, weight float32) {
	h := fnv.New64a()
	h.Write([]byte(feat))
	sum := h.Sum64()
	idx := int(sum % Dim)
	sign := float32(1)
	if (sum>>32)&1 == 1 {
		sign = -1
	}
	v[idx] += sign * weight
}

func normalise(v *Vector) {
	var sq float64
	for _, x := range v {
		sq += float64(x) * float64(x)
	}
	if sq == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(sq))
	for i := range v {
		v[i] *= inv
	}
}

// Cosine returns the cosine similarity of two vectors in [-1, 1]. Vectors
// from Embed are unit length, so this is their dot product.
func Cosine(a, b Vector) float64 { return a.Dot(&b) }

// Dot is Cosine without the two 1 KiB argument copies, for scans over
// stored vectors. The sum runs in index order, so it is the same float64.
func (a *Vector) Dot(b *Vector) float64 {
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	return dot
}

// Dot4 is four Dots against a in one pass: four independent chains, each
// summed in index order, so each result is the float64 Dot returns. (A
// product of two float32s is exact in float64, so no fusing can change
// it.) Scans over stored vectors use it to overlap the four additions.
func (a *Vector) Dot4(b0, b1, b2, b3 *Vector) (d0, d1, d2, d3 float64) {
	for i := range a {
		x := float64(a[i])
		d0 += x * float64(b0[i])
		d1 += x * float64(b1[i])
		d2 += x * float64(b2[i])
		d3 += x * float64(b3[i])
	}
	return d0, d1, d2, d3
}

// Rank orders candidate texts by descending cosine similarity to query and
// returns candidate indices. Ties break by lower index, keeping results
// deterministic. Candidate embeddings come from the memo, so ranking the
// same pool against many queries embeds each candidate once; callers that
// already hold vectors should use RankVectors directly.
func (m *Model) Rank(query string, candidates []string) []int {
	vecs := make([]Vector, len(candidates))
	for i, c := range candidates {
		vecs[i] = m.Embed(c)
	}
	return m.RankVectors(query, vecs)
}

// RankVectors is Rank over precomputed candidate vectors: it orders the
// candidates by descending cosine similarity to query and returns their
// indices, ties broken by lower index.
func (m *Model) RankVectors(query string, vecs []Vector) []int {
	qv := m.Embed(query)
	type scored struct {
		idx int
		sim float64
	}
	items := make([]scored, len(vecs))
	for i, cv := range vecs {
		items[i] = scored{i, Cosine(qv, cv)}
	}
	// Insertion sort keeps determinism and is fast at few-shot scales.
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && (items[j].sim > items[j-1].sim ||
			(items[j].sim == items[j-1].sim && items[j].idx < items[j-1].idx)); j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.idx
	}
	return out
}
