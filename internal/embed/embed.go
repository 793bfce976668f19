// Package embed provides deterministic sentence embeddings standing in for
// the all-mpnet-base-v2 model that SEED uses for few-shot example selection
// (paper §III-C). Vectors are hashed bags of word unigrams, word bigrams
// and character trigrams, L2-normalised; cosine similarity between such
// vectors ranks lexically and thematically related questions highly, which
// is the only property SEED's similarity-based selection needs.
//
// A vector is kept one way, as its non-zero cells: the Model's memo holds
// one Vector per text it has embedded, and a Pool packs a fixed set.
package embed

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/textutil"
)

// Dim is the embedding dimensionality. 256 keeps hash collisions rare for
// question-sized inputs while staying cheap to compare, and lets a uint8
// index any cell.
const Dim = 256

// Vector is an embedding stored as its non-zero cells in ascending index
// order (cell idx[k] holds val[k]): a BIRD question sets 43 / 58 / 81 of
// the Dim cells at p10 / p50 / p90. It shares its arrays with the memo or
// Pool it came from, so callers must not modify it.
type Vector struct {
	idx []uint8
	val []float32
}

// Dense scatters v into all Dim cells: the form a query takes while it is
// scored against stored vectors with Dot.
func (v Vector) Dense() [Dim]float32 {
	var d [Dim]float32
	for k, i := range v.idx {
		d[i] = v.val[k]
	}
	return d
}

// Dot is the cosine similarity of v and the scattered unit vector q, summed
// over v's non-zeros in index order. That is bit for bit the dense sum over
// all Dim cells: each float32×float32 product is exact in float64, and a
// skipped term is ±0, which no running sum from +0 changes (+0 + −0 = +0).
func (v Vector) Dot(q *[Dim]float32) float64 {
	val := v.val[:len(v.idx)]
	var dot float64
	for k, i := range v.idx {
		dot += float64(q[i]) * float64(val[k])
	}
	return dot
}

// Cosine returns the cosine similarity of two vectors in [-1, 1]. Vectors
// from Embed are unit length, so this is their dot product.
func Cosine(a, b Vector) float64 {
	q := a.Dense()
	return b.Dot(&q)
}

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

// embedText is the uncached embedding computation, in exact-size arrays.
func embedText(text string) Vector {
	d := embedDense(text)
	n := 0
	for _, x := range d {
		if x != 0 {
			n++
		}
	}
	return appendNonZero(Vector{make([]uint8, 0, n), make([]float32, 0, n)}, &d)
}

// appendNonZero appends d's non-zero cells to v's arrays, in index order.
func appendNonZero(v Vector, d *[Dim]float32) Vector {
	for i, x := range d {
		if x != 0 {
			v.idx = append(v.idx, uint8(i))
			v.val = append(v.val, x)
		}
	}
	return v
}

// embedDense computes the embedding in all Dim cells.
func embedDense(text string) [Dim]float32 {
	var v [Dim]float32
	words := textutil.Tokenize(text)
	for _, w := range words {
		addFeature(&v, 1.0, "w:", textutil.Stem(w))
	}
	for i := 0; i+1 < len(words); i++ {
		addFeature(&v, 0.7, "b:", words[i], "_", words[i+1])
	}
	for _, w := range words {
		addTrigrams(&v, w)
	}
	normalise(&v)
	return v
}

// addTrigrams hashes word w's character trigrams — textutil.NGrams(w, 3)'s
// grams, the windows of three runes over w lower-cased with a space at
// each end — each as addFeature's parts, the padding among them, so that
// neither the padded word nor its grams are built. A word of one rune is
// one gram, the padded word itself. Tokenize's words are lower case
// already, and lower-casing one again allocates nothing.
func addTrigrams(v *[Dim]float32, w string) {
	w = strings.ToLower(w)
	// gram hashes the window [start, end) of the padded word, of n bytes.
	n := len(w) + 2
	gram := func(start, end int) {
		lead, tail := "", ""
		if start == 0 {
			lead, start = " ", 1
		}
		if end == n {
			tail, end = " ", n-1
		}
		addFeature(v, 0.3, "g:", lead, w[start-1:end-1], tail)
	}
	if len(w) == 0 {
		gram(0, n)
		return
	}
	// The window starts at rune start of the padded word and ends after the
	// rune that end begins.
	start, end := 0, n
	if _, size := utf8.DecodeRuneInString(w); size < len(w) {
		_, next := utf8.DecodeRuneInString(w[size:])
		end = 1 + size + next
	}
	for {
		gram(start, end)
		if end == n {
			return
		}
		if start == 0 {
			start = 1
		} else {
			_, size := utf8.DecodeRuneInString(w[start-1:])
			start += size
		}
		if end == n-1 {
			end = n
		} else {
			_, size := utf8.DecodeRuneInString(w[end-1:])
			end += size
		}
	}
}

// addFeature hashes a feature, the concatenation of parts, into two
// buckets with opposite signs (feature hashing with sign trick) to reduce
// collision bias. The hash is 64-bit FNV-1a (hash/fnv's New64a) run over
// the parts in turn, so nothing is concatenated.
func addFeature(v *[Dim]float32, weight float32, parts ...string) {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	sum := uint64(offset64)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			sum ^= uint64(p[i])
			sum *= prime64
		}
	}
	idx := int(sum % Dim)
	sign := float32(1)
	if (sum>>32)&1 == 1 {
		sign = -1
	}
	v[idx] += sign * weight
}

func normalise(v *[Dim]float32) {
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

// Pool packs a fixed set of texts' vectors into one index array and one
// value array. Its members are embedded once, outside any Model's memo.
type Pool struct {
	off []int32 // member i's cells are [off[i], off[i+1])
	idx []uint8
	val []float32
}

// NewPool embeds texts into a Pool; member i is texts[i].
func NewPool(texts []string) *Pool {
	p := &Pool{off: make([]int32, 1, len(texts)+1)}
	var v Vector
	for _, t := range texts {
		d := embedDense(t)
		v = appendNonZero(v, &d)
		p.off = append(p.off, int32(len(v.idx)))
	}
	p.idx, p.val = slices.Clone(v.idx), slices.Clone(v.val)
	return p
}

// At is member i's vector, a view into the pool's arrays.
func (p *Pool) At(i int) Vector {
	lo, hi := p.off[i], p.off[i+1]
	return Vector{p.idx[lo:hi:hi], p.val[lo:hi:hi]}
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
	q := m.Embed(query).Dense()
	out, sims := make([]int, len(vecs)), make([]float64, len(vecs))
	for i, v := range vecs {
		out[i], sims[i] = i, v.Dot(&q)
	}
	slices.SortStableFunc(out, func(a, b int) int { return cmp.Compare(sims[b], sims[a]) })
	return out
}
