// Package bm25 implements Okapi BM25 ranked retrieval over small document
// collections. The CodeS baseline (paper §IV-C3) uses a BM25 index over
// database values and description text to ground its SQL generation, and
// the query memory uses one over question phrasings; this package is that
// index.
//
// Layout: an inverted index. Each stemmed term maps to a posting list of
// (document, term frequency) pairs in document order, and each document
// keeps only its token count — neither its text nor its tokens are
// retained. A term's document frequency is the length of its list. New
// carves every list out of one backing array; Add appends one document
// and grows only the lists it touches.
//
// Contract callers may rely on: a document's score is
//
//	sum over query tokens q, in query order, duplicates included, of
//	idf(q) * tf * (k1+1) / (tf + k1*(1-b+b*len/avgLen))
//	idf(q) = ln(1 + (N-df+0.5)/(df+0.5))
//
// computed in float64 in exactly that order, so Score and TopK agree to
// the bit and do not depend on how the index was built (New or Add).
// TopK ranks by (score descending, document index ascending), a total
// order, so its result does not depend on visit order either.
package bm25

import (
	"cmp"
	"container/heap"
	"math"
	"slices"
	"sort"

	"repro/internal/textutil"
)

// Standard Okapi BM25 parameters.
const (
	k1 = 1.5
	b  = 0.75
)

// posting is one document's entry in a term's list.
type posting struct{ doc, tf int32 }

// Index is a BM25 inverted index. Build it with New, extend it with Add,
// query with TopK. Queries may run concurrently with each other but not
// with Add.
type Index struct {
	terms    map[string]int32 // stemmed term -> position in lists
	lists    [][]posting      // per term, ascending doc
	lens     []int32          // token count per document
	totalLen int
	avgLen   float64 // totalLen / Len, floored at 1e-9 so all-empty corpora divide safely
}

// New builds an index over docs. Documents are tokenised and stemmed with
// the textutil pipeline. docs is not retained.
func New(docs []string) *Index {
	idx := &Index{terms: make(map[string]int32), lens: make([]int32, 0, len(docs))}
	// Tokenise each document once, keeping only term ids, so every list can
	// be sized exactly and carved from one array.
	var ids []int32
	for _, d := range docs {
		ids = idx.appendDoc(ids, d)
	}
	df := make([]int32, len(idx.terms))
	total := 0
	idx.postings(ids, 0, func(t int32, _ posting) { df[t]++; total++ })
	backing := make([]posting, total)
	idx.lists = make([][]posting, len(df))
	off := 0
	for t, n := range df {
		// Capacity ends at the carve, so a later Add reallocates this list
		// rather than writing into its neighbour.
		idx.lists[t] = backing[off : off : off+int(n)]
		off += int(n)
	}
	idx.postings(ids, 0, idx.post)
	return idx
}

// Add appends one document; its index is the previous Len.
func (idx *Index) Add(doc string) {
	first := len(idx.lens)
	ids := idx.appendDoc(nil, doc)
	for len(idx.lists) < len(idx.terms) {
		idx.lists = append(idx.lists, nil)
	}
	idx.postings(ids, first, idx.post)
}

func (idx *Index) post(t int32, p posting) { idx.lists[t] = append(idx.lists[t], p) }

// appendDoc records doc's length and appends its term ids, equal ids
// adjacent, registering unseen terms. Sorting the tokens in place is what
// groups them: documents are a handful of tokens, and a map per document
// is what made building the index expensive.
func (idx *Index) appendDoc(ids []int32, doc string) []int32 {
	toks := Terms(doc)
	idx.lens = append(idx.lens, int32(len(toks)))
	idx.totalLen += len(toks)
	idx.avgLen = math.Max(float64(idx.totalLen)/float64(len(idx.lens)), 1e-9)
	slices.Sort(toks)
	for _, tok := range toks {
		t, ok := idx.terms[tok]
		if !ok {
			t = int32(len(idx.terms))
			idx.terms[tok] = t
		}
		ids = append(ids, t)
	}
	return ids
}

// postings calls fn with each (term, document, frequency) in ids, which
// holds the term ids of documents first, first+1, ... as appendDoc left
// them.
func (idx *Index) postings(ids []int32, first int, fn func(t int32, p posting)) {
	for d := first; d < len(idx.lens); d++ {
		doc := ids[:idx.lens[d]]
		ids = ids[len(doc):]
		for i := 0; i < len(doc); {
			j := i + 1
			for j < len(doc) && doc[j] == doc[i] {
				j++
			}
			fn(doc[i], posting{int32(d), int32(j - i)})
			i = j
		}
	}
}

// Len returns the number of indexed documents.
func (idx *Index) Len() int { return len(idx.lens) }

// Terms tokenises and stems text the way documents and queries are
// indexed, for callers that prepare a query before taking a lock.
func Terms(text string) []string {
	toks := textutil.Tokenize(text)
	for i, t := range toks {
		toks[i] = textutil.Stem(t)
	}
	return toks
}

// idf is a term's inverse document frequency under the current corpus.
func (idx *Index) idf(df int) float64 {
	n, d := float64(len(idx.lens)), float64(df)
	return math.Log(1 + (n-d+0.5)/(d+0.5))
}

// termScore is one query token's contribution to one document: the single
// place the formula is written, so Score and TopK cannot drift apart.
func (idx *Index) termScore(idf float64, p posting) float64 {
	f, dl := float64(p.tf), float64(idx.lens[p.doc])
	denom := f + k1*(1-b+b*dl/idx.avgLen)
	return idf * f * (k1 + 1) / denom
}

// Score computes the BM25 score of query against document i.
func (idx *Index) Score(query string, i int) float64 {
	var score float64
	for _, q := range Terms(query) {
		t, known := idx.terms[q]
		if !known {
			continue
		}
		list := idx.lists[t]
		j, found := slices.BinarySearchFunc(list, int32(i), func(p posting, doc int32) int {
			return cmp.Compare(p.doc, doc)
		})
		if found {
			score += idx.termScore(idx.idf(len(list)), list[j])
		}
	}
	return score
}

// Result is one ranked retrieval hit.
type Result struct {
	Index int
	Score float64
}

// TopK returns the k highest-scoring documents for query, highest first.
// Zero-score documents are omitted; ties break by document index for
// determinism. A negative k returns every scoring document.
func (idx *Index) TopK(query string, k int) []Result { return idx.TopKTerms(Terms(query), k) }

// TopKTerms is TopK over a query already prepared by Terms. It merges the
// posting lists of the query's tokens in document order — one cursor per
// token, duplicates included, so a document's contributions add up in
// query order — and a bounded min-heap keeps the best k. Only documents
// sharing a term with the query are visited, and nothing is allocated per
// document.
func (idx *Index) TopKTerms(terms []string, k int) []Result {
	if n := len(idx.lens); k < 0 || k > n {
		k = n
	}
	if k == 0 {
		return nil
	}
	type cursor struct {
		idf  float64
		rest []posting
	}
	cursors := make([]cursor, 0, len(terms))
	for _, q := range terms {
		if t, known := idx.terms[q]; known {
			cursors = append(cursors, cursor{idx.idf(len(idx.lists[t])), idx.lists[t]})
		}
	}
	h := make(resultMinHeap, 0, k)
	// Each pass scores the lowest pending document and finds the one after
	// it; the first pass (no document is -1) only finds.
	for doc, next := int32(-1), int32(0); next != math.MaxInt32; doc = next {
		r := Result{Index: int(doc)}
		next = math.MaxInt32
		for i := range cursors {
			c := &cursors[i]
			if len(c.rest) > 0 && c.rest[0].doc == doc {
				r.Score += idx.termScore(c.idf, c.rest[0])
				c.rest = c.rest[1:]
			}
			if len(c.rest) > 0 && c.rest[0].doc < next {
				next = c.rest[0].doc
			}
		}
		if r.Score <= 0 {
			continue
		}
		if len(h) < k {
			heap.Push(&h, r)
			continue
		}
		// Replace the current worst only when r outranks it under the
		// (score desc, index asc) total order.
		if worse(h[0], r) {
			h[0] = r
			heap.Fix(&h, 0)
		}
	}
	results := []Result(h)
	sort.Slice(results, func(a, c int) bool { return worse(results[c], results[a]) })
	return results
}

// worse reports whether a ranks strictly below b in the deterministic
// retrieval order: higher score first, lower index on ties.
func worse(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Index > b.Index
}

// resultMinHeap keeps the current top-k with the worst-ranked result at the
// root, so one comparison decides whether a new document displaces it.
type resultMinHeap []Result

func (h resultMinHeap) Len() int            { return len(h) }
func (h resultMinHeap) Less(i, j int) bool  { return worse(h[i], h[j]) }
func (h resultMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultMinHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *resultMinHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
