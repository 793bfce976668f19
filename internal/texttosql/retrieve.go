package texttosql

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/bm25"
	"repro/internal/dataset"
	"repro/internal/schema"
	"repro/internal/textutil"
)

// Retriever grounds question terms in database values. Two strategies
// mirror the baselines' machinery: StrategyScan is CHESS's information
// retriever (distinct-value scan with LIKE and edit-distance matching, the
// same primitives as SEED's sample SQL execution); StrategyBM25 is CodeS's
// BM25 index refined with the longest-common-substring method. Both read
// each column's values from schema.DB.Values.
type Retriever struct {
	strategy Strategy

	mu      sync.Mutex
	indexes map[*schema.DB]*indexEntry // build-once BM25 value index
}

// indexEntry wraps a lazily built value index so concurrent first lookups
// construct it exactly once, without holding the retriever lock for the
// duration of the build (the build may pull the value inventory).
type indexEntry struct {
	once sync.Once
	idx  *valueIndex
}

// Strategy selects the retrieval mechanism.
type Strategy int

// Retrieval strategies.
const (
	StrategyScan Strategy = iota
	StrategyBM25
)

// valueIndex is a BM25 index over "table column value" documents.
type valueIndex struct {
	index  *bm25.Index
	tables []string
	cols   []string
	values []string
}

// NewRetriever returns a retriever with the given strategy.
func NewRetriever(s Strategy) *Retriever {
	return &Retriever{strategy: s, indexes: make(map[*schema.DB]*indexEntry)}
}

// Warm eagerly loads the per-database state retrieval reads — the
// database's value inventory and, under StrategyBM25, the BM25 value
// index — so a serving session pays the build cost once at load time
// instead of on its first request. Warm is idempotent and safe for
// concurrent use.
func (r *Retriever) Warm(db *schema.DB) {
	db.WarmValues()
	if r.strategy == StrategyBM25 {
		r.valueIndex(db)
	}
}

// FindFrag grounds the atom's term in stored values, returning a SQL
// fragment for its slot. It never consults the atom's answer fields — only
// its term and kind.
func (r *Retriever) FindFrag(db *schema.DB, a dataset.Atom) (string, bool) {
	table, col, val, sim := r.search(db, a.Term)
	if sim < 0.75 {
		return "", false
	}
	switch a.Kind {
	case dataset.ColumnRef:
		return table + "." + col, true
	case dataset.ValueMap, dataset.Synonym:
		if isBareNumber(val) {
			return val, true
		}
		return "'" + val + "'", true
	default:
		return "", false
	}
}

// search finds the best (table, column, value) match for a term.
func (r *Retriever) search(db *schema.DB, term string) (table, col, val string, sim float64) {
	switch r.strategy {
	case StrategyBM25:
		return r.searchBM25(db, term)
	default:
		return r.searchScan(db, term)
	}
}

// searchScan is the CHESS-IR style scan: every text column's distinct
// values matched by equality, containment and edit distance, with a
// column-name proximity boost.
func (r *Retriever) searchScan(db *schema.DB, term string) (string, string, string, float64) {
	termStems := make(map[string]bool)
	for _, w := range textutil.ContentWords(term) {
		termStems[textutil.Stem(w)] = true
	}
	lt := strings.ToLower(term)
	var bt, bc, bv string
	best := 0.0
	for _, t := range db.Engine.Tables() {
		for i, c := range t.Columns {
			if c.Type != "TEXT" {
				continue
			}
			for _, v := range db.Values(t, i, schema.MaxValues) {
				s := valueAffinity(term, lt, v.Lower)
				if s <= 0 {
					continue
				}
				for _, w := range textutil.NormalizeIdent(c.Name) {
					if termStems[textutil.Stem(w)] {
						s += 0.15
						break
					}
				}
				if s > best {
					best, bt, bc, bv = s, t.Name, c.Name, v.Text
				}
			}
		}
	}
	return bt, bc, bv, best
}

// searchBM25 is the CodeS path: BM25 over value documents, refined by the
// longest common substring between the term and the candidate value.
func (r *Retriever) searchBM25(db *schema.DB, term string) (string, string, string, float64) {
	idx := r.valueIndex(db)
	if idx.index.Len() == 0 {
		return "", "", "", 0
	}
	// Query expansion with world-knowledge synonyms: BM25 alone cannot
	// bridge "women" -> 'F'.
	query := term
	for _, w := range textutil.ContentWords(term) {
		for _, syn := range textutil.Synonyms(w) {
			query += " " + syn
		}
	}
	hits := idx.index.TopK(query, 5)
	var bt, bc, bv string
	best := 0.0
	for _, h := range hits {
		v := idx.values[h.Index]
		_, lcs := textutil.LongestCommonSubstring(term, v)
		score := 0.0
		switch {
		case strings.EqualFold(term, v):
			score = 1.0
		case lcs >= 3:
			score = 0.6 + 0.4*float64(lcs)/float64(maxInt(len(term), len(v)))
		}
		// Synonym knowledge closes lexical gaps BM25 cannot.
		for _, w := range textutil.ContentWords(term) {
			for _, syn := range textutil.Synonyms(w) {
				if strings.EqualFold(syn, v) {
					score = 0.9
				}
			}
		}
		if score > best {
			best, bt, bc, bv = score, idx.tables[h.Index], idx.cols[h.Index], v
		}
	}
	return bt, bc, bv, best
}

// valueAffinity scores a term (lt is its lower-case form) against one
// stored value's lower-case form lv, mirroring the scan-retrieval
// primitives (exact, containment, synonym, edit distance).
func valueAffinity(term, lt, lv string) float64 {
	switch {
	case lt == lv:
		return 1.0
	case len(lt) >= 3 && strings.Contains(lv, lt):
		return 0.85
	case len(lv) >= 3 && strings.Contains(lt, lv):
		return 0.8
	}
	for _, w := range textutil.ContentWords(term) {
		for _, syn := range textutil.Synonyms(w) {
			if syn == lv {
				return 0.9
			}
		}
	}
	if s := textutil.Similarity(lt, lv); s >= 0.8 {
		return s * 0.95
	}
	return 0
}

func (r *Retriever) valueIndex(db *schema.DB) *valueIndex {
	r.mu.Lock()
	e, ok := r.indexes[db]
	if !ok {
		e = &indexEntry{}
		r.indexes[db] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.idx = buildValueIndex(db) })
	return e.idx
}

func buildValueIndex(db *schema.DB) *valueIndex {
	var docs, tables, cols, values []string
	for _, t := range db.Engine.Tables() {
		for i, c := range t.Columns {
			if c.Type != "TEXT" {
				continue
			}
			for _, v := range db.Values(t, i, schema.MaxValues) {
				docs = append(docs, t.Name+" "+c.Name+" "+v.Text)
				tables = append(tables, t.Name)
				cols = append(cols, c.Name)
				values = append(values, v.Text)
			}
		}
	}
	return &valueIndex{index: bm25.New(docs), tables: tables, cols: cols, values: values}
}

// lookupDocs resolves doc-derivable atoms (value maps, ranges, documented
// formulas) from the database's description files, the way CHESS's
// information retriever surfaces description context.
func lookupDocs(db *schema.DB, a dataset.Atom) (string, bool) {
	termStems := make(map[string]bool)
	for _, w := range textutil.ContentWords(a.Term) {
		termStems[textutil.Stem(w)] = true
		for _, syn := range textutil.Synonyms(w) {
			termStems[textutil.Stem(syn)] = true
		}
	}
	covered := func(phrase string) bool {
		words := textutil.ContentWords(phrase)
		if len(words) == 0 {
			return false
		}
		hit := 0
		for _, w := range words {
			if termStems[textutil.Stem(w)] {
				hit++
			}
		}
		return float64(hit)/float64(len(words)) >= 0.67
	}
	for _, t := range db.Engine.Tables() {
		td, ok := db.Doc(t.Name)
		if !ok {
			continue
		}
		for _, cd := range td.Columns {
			switch a.Kind {
			case dataset.ValueMap, dataset.Synonym:
				for _, code := range sortedCodes(cd.ValueMap) {
					meaning := cd.ValueMap[code]
					if !covered(meaning) {
						continue
					}
					if isBareNumber(code) {
						if col, found := t.Column(cd.Column); found && col.Type != "TEXT" {
							return code, true
						}
					}
					return "'" + code + "'", true
				}
			case dataset.Threshold:
				if cd.Range == "" || !strings.Contains(cd.Range, "Normal range") {
					continue
				}
				if !covered(cd.FullName) {
					continue
				}
				if frag, ok := rangeFrag(cd, a.Term); ok {
					return frag, true
				}
			case dataset.Formula:
				if cd.Range == "" || strings.Contains(cd.Range, "Normal range") {
					continue
				}
				i := strings.Index(cd.Range, "=")
				if i < 0 {
					continue
				}
				name := strings.TrimSpace(cd.Range[:i])
				if covered(name) {
					return strings.TrimSpace(cd.Range[i+1:]), true
				}
			}
		}
	}
	return "", false
}

// rangeFrag converts a documented normal range plus a direction-bearing
// term into a predicate fragment.
func rangeFrag(cd schema.ColumnDoc, term string) (string, bool) {
	expr := cd.Range[strings.Index(cd.Range, ":")+1:]
	parts := strings.Split(expr, "<")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	var lo, hi string
	switch len(parts) {
	case 2:
		if parts[0] == "N" {
			hi = parts[1]
		} else {
			lo = parts[0]
		}
	case 3:
		lo, hi = parts[0], parts[2]
	default:
		return "", false
	}
	lt := strings.ToLower(term)
	above := strings.Contains(lt, "exceed") || strings.Contains(lt, "above") ||
		strings.Contains(lt, "beyond") || strings.Contains(lt, "over")
	below := strings.Contains(lt, "below") || strings.Contains(lt, "under")
	switch {
	case above && hi != "":
		return fmt.Sprintf("%s >= %s", cd.Column, hi), true
	case below && lo != "":
		return fmt.Sprintf("%s <= %s", cd.Column, lo), true
	}
	return "", false
}

func sortedCodes(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func isBareNumber(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if (s[i] < '0' || s[i] > '9') && s[i] != '.' && s[i] != '-' {
			return false
		}
	}
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
