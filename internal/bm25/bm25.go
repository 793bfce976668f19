// Package bm25 implements Okapi BM25 ranked retrieval over small document
// collections. The CodeS baseline (paper §IV-C3) uses a BM25 index over
// database values and description text to ground its SQL generation, and
// the query memory uses one over question phrasings; this package is that
// index.
//
// Layout: an inverted index. Each stemmed term maps to a posting list of
// (document, term frequency) pairs in document order, and each document
// keeps its term ids in token order — its text is not retained, and a
// term's key is a copy, not a slice of the document it came from. A term's
// document frequency is the length of its list. New carves every list out
// of one backing array; Add appends one document and grows only the lists
// it touches.
//
// Contract callers may rely on: a document's score is
//
//	sum over query tokens q, in query order, duplicates included, of
//	idf(q) * tf * (k1+1) / (tf + k1*(1-b+b*len/avgLen))
//	idf(q) = ln(1 + (N-df+0.5)/(df+0.5))
//
// computed in float64 in exactly that order, so Score, SelfScore and TopK
// agree to the bit and do not depend on how the index was built (New or
// Add).
// TopK ranks by (score descending, document index ascending), a total
// order, so its result does not depend on visit order either.
package bm25

import (
	"cmp"
	"math"
	"slices"
	"strings"

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
	ids      []int32          // every document's term ids in token order, documents in order
	starts   []int32          // document d's ids are ids[starts[d]:][:lens[d]]
	lens     []int32          // token count per document
	totalLen int
	avgLen   float64 // totalLen / Len, floored at 1e-9 so all-empty corpora divide safely
}

// New builds an index over docs. Documents are tokenised and stemmed with
// the textutil pipeline. docs is not retained.
func New(docs []string) *Index {
	idx := &Index{terms: make(map[string]int32), starts: make([]int32, 0, len(docs)), lens: make([]int32, 0, len(docs))}
	// Tokenise each document once, keeping only term ids; grouping a sorted
	// copy of them sizes every list exactly, so all are carved from one
	// array.
	for _, d := range docs {
		idx.appendDoc(d)
	}
	grouped := idx.grouped(0)
	df := make([]int32, len(idx.terms))
	total := 0
	idx.postings(grouped, 0, func(t int32, _ posting) { df[t]++; total++ })
	backing := make([]posting, total)
	idx.lists = make([][]posting, len(df))
	off := 0
	for t, n := range df {
		// Capacity ends at the carve, so a later Add reallocates this list
		// rather than writing into its neighbour.
		idx.lists[t] = backing[off : off : off+int(n)]
		off += int(n)
	}
	idx.postings(grouped, 0, idx.post)
	return idx
}

// Add appends one document; its index is the previous Len.
func (idx *Index) Add(doc string) {
	first := len(idx.lens)
	idx.appendDoc(doc)
	for len(idx.lists) < len(idx.terms) {
		idx.lists = append(idx.lists, nil)
	}
	idx.postings(idx.grouped(first), first, idx.post)
}

func (idx *Index) post(t int32, p posting) { idx.lists[t] = append(idx.lists[t], p) }

// appendDoc records doc's length and appends its term ids in token order,
// registering unseen terms under a copy of the token.
func (idx *Index) appendDoc(doc string) {
	toks := Terms(doc)
	idx.starts = append(idx.starts, int32(len(idx.ids)))
	idx.lens = append(idx.lens, int32(len(toks)))
	idx.totalLen += len(toks)
	idx.avgLen = math.Max(float64(idx.totalLen)/float64(len(idx.lens)), 1e-9)
	for _, tok := range toks {
		t, ok := idx.terms[tok]
		if !ok {
			t = int32(len(idx.terms))
			idx.terms[strings.Clone(tok)] = t
		}
		idx.ids = append(idx.ids, t)
	}
}

// grouped copies the term ids of documents first, first+1, ... with each
// document's sorted, so equal ids sit together: documents are a handful
// of tokens, and a map per document is what made building the index
// expensive.
func (idx *Index) grouped(first int) []int32 {
	if first == len(idx.lens) {
		return nil
	}
	base := idx.starts[first]
	ids := slices.Clone(idx.ids[base:])
	for d := first; d < len(idx.lens); d++ {
		slices.Sort(ids[idx.starts[d]-base:][:idx.lens[d]])
	}
	return ids
}

// postings calls fn with each (term, document, frequency) in ids, which
// holds the term ids of documents first, first+1, ... as grouped left
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
		if t, known := idx.terms[q]; known {
			score += idx.docScore(t, i)
		}
	}
	return score
}

// SelfScore is Score(text, i) for the text document i was indexed from:
// the same terms in the same order, read from the ids the index kept
// instead of tokenising the text again, so the same sum to the bit.
func (idx *Index) SelfScore(i int) float64 {
	var score float64
	for _, t := range idx.ids[idx.starts[i]:][:idx.lens[i]] {
		score += idx.docScore(t, i)
	}
	return score
}

// docScore is term t's contribution to document i, zero when i does not
// hold t. Adding that zero changes no sum: every contribution is positive,
// so a sum is never -0.
func (idx *Index) docScore(t int32, i int) float64 {
	list := idx.lists[t]
	j, found := slices.BinarySearchFunc(list, int32(i), func(p posting, doc int32) int {
		return cmp.Compare(p.doc, doc)
	})
	if !found {
		return 0
	}
	return idx.termScore(idx.idf(len(list)), list[j])
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
	var buf [16]cursor // a question's terms fit without allocating
	cursors := buf[:0]
	for _, q := range terms {
		if t, known := idx.terms[q]; known {
			cursors = append(cursors, cursor{idx.idf(len(idx.lists[t])), idx.lists[t]})
		}
	}
	h := make([]Result, 0, k)
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
		// Once k are kept, r replaces the current worst only when it
		// outranks it under the (score desc, index asc) total order.
		if len(h) < k || worse(h[0], r) {
			h = offer(h, r, k)
		}
	}
	slices.SortFunc(h, func(a, c Result) int {
		switch {
		case worse(c, a):
			return -1
		case worse(a, c):
			return 1
		}
		return 0
	})
	return h
}

// worse reports whether a ranks strictly below b in the deterministic
// retrieval order: higher score first, lower index on ties.
func worse(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Index > b.Index
}

// offer keeps r in h, the current top-k: a min-heap under worse once it
// holds k results, with the worst-ranked at the root, so one comparison
// decides whether a new document displaces it. The first k results are
// kept as they come and made a heap when the k-th arrives; after that r
// replaces the root. No Result is boxed, as container/heap's interface
// would box it. It is a call of its own, not code in TopKTerms' loop:
// inlined there, the heap code slowed the merge by about a third.
func offer(h []Result, r Result, k int) []Result {
	if len(h) < k {
		if h = append(h, r); len(h) == k {
			for i := k/2 - 1; i >= 0; i-- {
				siftDown(h, i)
			}
		}
		return h
	}
	h[0] = r
	siftDown(h, 0)
	return h
}

// siftDown moves h[i] down to its place in the min-heap under worse.
func siftDown(h []Result, i int) {
	for {
		least, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && worse(h[l], h[least]) {
			least = l
		}
		if r < len(h) && worse(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
