// Package qmemory is the confidence-gated semantic query memory: it
// learns from past *successful* (question, evidence, SQL,
// result-fingerprint) tuples and serves them back for new phrasings of
// the same intent — skipping evidence generation and the LLM entirely.
//
// Retrieval is hybrid (ekaya-engine's text2sql-plan pattern): a question
// that is a stored phrasing is found by one map probe; any other is
// matched against every stored phrasing by cosine similarity over the
// deterministic embedding model plus a BM25 lexical score from the
// postings of its terms, and the best-scoring pattern is a candidate only
// if it clears a similarity floor, a literal-overlap gate (every literal
// in the stored SQL must appear in the question — a paraphrase of "count
// rows where name='Alice'" still mentions Alice), and a per-pattern
// confidence threshold. Confidence rises on execution success and decays
// on failure, so a pattern whose SQL goes stale (schema drift, data
// change) demotes itself out of serving within a failure or two.
//
// The memory is optionally durable (Store: an internal/wal log of
// pattern records, files qmemory.wal, qmemory.snapshot, qmemory.wal.tail,
// LOCK and MANIFEST) and replicates to fleet peers by shipping that log,
// as evidence does (see replicate.go).
package qmemory

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bm25"
	"repro/internal/embed"
	"repro/internal/sqlengine"
)

// The memory's serving constants.
const (
	// serveThreshold is the confidence a pattern needs before its SQL is
	// served in place of generation.
	serveThreshold = 0.85
	// minSimilarity is the hybrid retrieval score floor below which a
	// best match is still a miss. The floor is a coarse relevance filter,
	// not the accuracy gate: under the deterministic hash embeddings a
	// genuine paraphrase lands around 0.4–0.7 while unrelated questions
	// land near zero, and same-shape questions over *different entities*
	// (which score high on any similarity measure) are rejected by the
	// literal-overlap gate and, ultimately, by execution verification.
	minSimilarity = 0.35
	// initialConfidence is a freshly admitted pattern's confidence.
	// Admission is already execution-judged (only verified-correct
	// generations enter the memory), so patterns start above the serve
	// threshold.
	initialConfidence = 0.90
	// successWeight moves confidence toward 1 on a verified success:
	// conf += successWeight * (1 - conf).
	successWeight = 0.25
	// failureDecay multiplies confidence on a failed verification:
	// conf *= failureDecay, so one failure demotes a 0.90 pattern to
	// 0.405 — below the serve threshold until it re-earns trust through
	// admissions.
	failureDecay = 0.45
	// topK bounds the BM25 candidate pool per look-up, and the ranked
	// candidates a look-up walks.
	topK = 8
	// maxAttempts is how many candidates one question is offered
	// (Cursor.Next) before it falls through to generation.
	maxAttempts = 3
	// maxPhrasings bounds the stored phrasings per pattern.
	maxPhrasings = 16
)

// Options configures a Memory. The zero value is an in-memory Memory.
type Options struct {
	// Store, when non-nil, makes the memory durable: patterns are
	// replayed from it at construction and persisted write-through.
	Store *Store
}

// Record is one pattern's serializable state: the WAL unit, the
// replication unit, and the replay unit are all this shape.
type Record struct {
	// ID is the pattern key: a hash of (db, SQL), so re-admitting the
	// same SQL under a new phrasing extends the pattern instead of
	// duplicating it.
	ID string `json:"id"`
	// DB names the database the SQL runs against.
	DB string `json:"db"`
	// SQL is the verified query this pattern serves.
	SQL string `json:"sql"`
	// Evidence is the evidence the original generation consumed; served
	// back with memory hits for provenance.
	Evidence string `json:"evidence,omitempty"`
	// Fingerprint pins the execution result the pattern was admitted
	// with; a hit whose re-execution fingerprints differently fails
	// verification.
	Fingerprint string `json:"fingerprint"`
	// Confidence is the serve gate; see serveThreshold.
	Confidence float64 `json:"confidence"`
	// Successes and Failures count verified outcomes over the pattern's
	// lifetime (admissions included). Their sum orders replicas'
	// versions of a pattern during replication.
	Successes int64 `json:"successes"`
	Failures  int64 `json:"failures"`
	// Phrasings are the known question phrasings, retrieval documents
	// for future lookups. Bounded by maxPhrasings.
	Phrasings []string `json:"phrasings"`
}

// events is the total verified-outcome count — the dominance order for
// replication (more observed outcomes = newer knowledge).
func (r Record) events() int64 { return r.Successes + r.Failures }

// PatternID derives the stable pattern key for a (db, SQL) pair.
func PatternID(db, sql string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(db))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(sql))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Fingerprint hashes an execution result (columns and row values, in
// order) for admission pinning and hit verification. The engine is
// deterministic, so identical SQL over identical data always
// fingerprints identically.
func Fingerprint(rows *sqlengine.Rows) string {
	h := fnv.New64a()
	if rows == nil {
		return "empty"
	}
	for _, c := range rows.Columns {
		_, _ = h.Write([]byte(c))
		_, _ = h.Write([]byte{1})
	}
	var buf []byte
	for i := 0; i < rows.Len(); i++ {
		for k := range rows.Columns {
			buf = rows.Cell(i, k).AppendKey(buf[:0])
			_, _ = h.Write(buf)
			_, _ = h.Write([]byte{2})
		}
		_, _ = h.Write([]byte{3})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Hit is a servable lookup result.
type Hit struct {
	PatternID   string
	SQL         string
	Evidence    string
	Fingerprint string
	// Confidence is the pattern's confidence at lookup time.
	Confidence float64
	// Similarity is the hybrid retrieval score of the matched phrasing.
	Similarity float64
}

// pattern is a Record plus its in-memory retrieval state.
type pattern struct {
	rec  Record
	lits []string // rec.SQL's literals, lower-cased, for the literal-overlap gate
	// replaced is set, under the write lock, when a newer version of the
	// record takes this one's place (applyHeld): a Cursor that ranked
	// this version no longer offers it.
	replaced bool
}

func (p *pattern) hit(similarity float64) Hit {
	return Hit{
		PatternID:   p.rec.ID,
		SQL:         p.rec.SQL,
		Evidence:    p.rec.Evidence,
		Fingerprint: p.rec.Fingerprint,
		Confidence:  p.rec.Confidence,
		Similarity:  similarity,
	}
}

// dbIndex is one database's retrieval index: one entry per stored
// phrasing, in the order they were learned, as three parallel lists; the
// exact-phrasing map; and the BM25 postings over docs.
type dbIndex struct {
	pats  []*pattern            // owning pattern per entry
	docs  []string              // phrasing text per entry
	vecs  []embed.Vector        // phrasing embedding per entry, the model memo's
	exact map[string][]*pattern // phrasing text -> its entries' patterns, in entry order
	// idx grows by Add as phrasings are learned. Postings cannot drop a
	// document, so replacing a pattern (applyHeld) sets idx to nil and the
	// next semantic look-up rebuilds it.
	idx *bm25.Index
}

// Stats is the memory's counter snapshot.
type Stats struct {
	// Patterns and Phrasings size the memory.
	Patterns  int `json:"patterns"`
	Phrasings int `json:"phrasings"`
	// Lookups, Hits and Misses count serve-path probes; HitRate is
	// Hits/Lookups. ExactHits are the hits whose question was a stored
	// phrasing (repeat traffic); the rest matched semantically.
	Lookups   int64   `json:"lookups"`
	Hits      int64   `json:"hits"`
	ExactHits int64   `json:"exact_hits"`
	Misses    int64   `json:"misses"`
	HitRate   float64 `json:"hit_rate"`
	// Admitted counts new patterns; Reinforced counts successes recorded
	// against existing ones.
	Admitted   int64 `json:"admitted"`
	Reinforced int64 `json:"reinforced"`
	// Demotions counts confidence drops across the serve threshold — a
	// pattern leaving rotation.
	Demotions int64 `json:"demotions"`
	// Restored counts patterns replayed from the durable store at
	// startup; Injected counts patterns landed by fleet replication.
	Restored int64 `json:"restored,omitempty"`
	Injected int64 `json:"injected,omitempty"`
	// Refused counts records Admit, Inject and the store's replay turned
	// away because their SQL is not a SELECT: a pattern is only ever a read.
	Refused int64 `json:"refused,omitempty"`
	// StoreAppends/StoreErrors count write-through persistence outcomes.
	StoreAppends int64 `json:"store_appends,omitempty"`
	StoreErrors  int64 `json:"store_errors,omitempty"`
}

// Memory is the confidence-gated query memory. Construct with New; safe
// for concurrent use.
type Memory struct {
	opts  Options
	model *embed.Model

	// mu is held for reading by Lookup, which mutates nothing it guards,
	// and for writing by every mutation.
	mu       sync.RWMutex
	patterns map[string]*pattern
	dbs      map[string]*dbIndex

	stats Stats // the counters mutations bump, under mu
	// Lookup's counters: readers do not write under mu.
	lookups, hits, exactHits, misses atomic.Int64
}

// New builds a Memory. With Options.Store set, the store's live set is
// replayed into the index (warm restart: the memory a crashed replica
// paid for survives), less any record that is not a SELECT, which is
// refused as Admit and Inject refuse it.
func New(opts Options) (*Memory, error) {
	m := &Memory{
		opts:     opts,
		model:    embed.NewModel(),
		patterns: make(map[string]*pattern),
		dbs:      make(map[string]*dbIndex),
	}
	if opts.Store != nil {
		var restoreErr error
		opts.Store.Load(func(rec Record) {
			if restoreErr != nil {
				return
			}
			if !sqlengine.IsSelect(rec.SQL) {
				m.stats.Refused++
				return
			}
			if err := m.applyLocked(rec, false); err != nil {
				restoreErr = err
				return
			}
			m.stats.Restored++
		})
		if restoreErr != nil {
			return nil, fmt.Errorf("qmemory: restoring store: %w", restoreErr)
		}
	}
	return m, nil
}

// Close flushes and closes the durable store, if any.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.opts.Store == nil {
		return nil
	}
	return m.opts.Store.Close()
}

// Lookup is the first candidate of Cursor(db, question): the best
// servable pattern for a question.
func (m *Memory) Lookup(db, question string) (Hit, bool) {
	c := m.Cursor(db, question)
	return c.Next()
}

// Cursor walks one question's candidates, best first, for a caller that
// verifies each before serving it: Next offers the next servable pattern,
// skipping those it has offered already, so a look-alike outscoring the
// right pattern costs one engine execution rather than suppressing the
// hit. It offers at most maxAttempts candidates. Keep it in a variable
// and call Next on it; it is not safe for concurrent use.
type Cursor struct {
	m                    *Memory
	db, question, qLower string
	// offered holds the IDs of the first n candidates Next returned; a
	// miss sets n to maxAttempts, as the walk is over.
	offered [maxAttempts]string
	n       int
	// ranked is set once the semantic ranking has run, at most once per
	// Cursor: best holds the first nbest patterns by (score desc, ID asc).
	// maxAttempts-1 slots beyond topK leave topK to walk after the
	// candidates already offered are skipped.
	ranked bool
	best   [topK + maxAttempts - 1]candidate
	nbest  int
}

// candidate is a pattern's best hybrid score over its phrasings.
type candidate struct {
	p     *pattern
	score float64
}

// outranks is the ranking's total order: higher score first, lower
// pattern ID on ties.
func (a candidate) outranks(b candidate) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.p.rec.ID < b.p.rec.ID
}

// Cursor starts a walk over question's candidates in db. Nothing is
// looked up until Next.
func (m *Memory) Cursor(db, question string) Cursor {
	return Cursor{m: m, db: db, question: question, qLower: strings.ToLower(question)}
}

// Next returns the best servable pattern not yet offered. A question that
// is a stored phrasing of one costs one map probe. Otherwise the first
// call that gets past the probe ranks the database's patterns — the
// posting lists of the question's terms plus one cosine per stored
// phrasing — and later calls walk that ranking again; the gates
// (similarity floor, literal overlap, pattern confidence) are read at
// each call. Every call counts one look-up and its hit or miss.
func (c *Cursor) Next() (Hit, bool) {
	if c.n == maxAttempts {
		return Hit{}, false
	}
	m := c.m
	m.lookups.Add(1)
	p, score, exact := c.next()
	if p == nil {
		m.mu.RUnlock()
		m.misses.Add(1)
		c.n = maxAttempts
		return Hit{}, false
	}
	hit := p.hit(score)
	m.mu.RUnlock()
	m.hits.Add(1)
	if exact {
		m.exactHits.Add(1)
	}
	c.offered[c.n] = hit.PatternID
	c.n++
	return hit, true
}

// next is Next's look-up: the pattern to offer and its score, or nil, and
// whether the question is its stored phrasing. It returns holding m.mu
// for reading, so the caller reads the pattern's record under the lock.
func (c *Cursor) next() (p *pattern, score float64, exact bool) {
	m := c.m
	// Exact-phrasing fast path: a question that IS a recorded successful
	// phrasing of a confident pattern serves that pattern outright —
	// repeat traffic is the common case, and semantic ranking can only
	// add noise on top of an exact prior success.
	m.mu.RLock()
	di := m.dbs[c.db]
	if di == nil || len(di.docs) == 0 {
		return nil, 0, false
	}
	for _, p := range di.exact[c.question] {
		if c.servable(p) {
			return p, 1, true
		}
	}
	if !c.ranked {
		m.mu.RUnlock()
		// What depends only on the question is computed outside the lock.
		terms, q := bm25.Terms(c.question), m.model.Embed(c.question).Dense()
		m.mu.RLock()
		for di.idx == nil {
			m.mu.RUnlock()
			m.reindex(di)
			m.mu.RLock()
		}
		c.rank(di, terms, &q)
	}
	p, score = c.walk()
	return p, score, false
}

// rank fills c.best from di, whose read lock is held.
func (c *Cursor) rank(di *dbIndex, terms []string, q *[embed.Dim]float32) {
	c.ranked = true
	// BM25 side: lexical score for the top-K entries, zero elsewhere, each
	// normalized by the entry's score against itself under the same corpus
	// statistics — an absolute scale, so a weak best match reads as weak
	// instead of being inflated to 1.0 by top-score normalization. Sorted
	// by entry, the hits are read in the same pass as the embeddings.
	lex := di.idx.TopKTerms(terms, topK)
	for j := range lex {
		if norm := di.idx.SelfScore(lex[j].Index); norm > 0 {
			lex[j].Score = min(lex[j].Score/norm, 1)
		} else {
			lex[j].Score = 0
		}
	}
	slices.SortFunc(lex, func(a, b bm25.Result) int { return cmp.Compare(a.Index, b.Index) })

	// Embedding side: cosine against every phrasing of the db, fused
	// with the lexical score into one hybrid score per pattern (a
	// pattern's best phrasing wins).
	for i := range di.vecs {
		var l float64
		if len(lex) > 0 && lex[0].Index == i {
			l, lex = lex[0].Score, lex[1:]
		}
		if score := 0.65*di.vecs[i].Dot(q) + 0.35*l; score >= minSimilarity {
			c.keep(candidate{di.pats[i], score})
		}
	}
}

// keep records cd in c.best if it ranks among the best, as its pattern's
// best score so far. A pattern that drops out cannot come back with a
// lower score, as the worst kept score only rises, so c.best ends as the
// best patterns by their best scores.
func (c *Cursor) keep(cd candidate) {
	best := c.best[:c.nbest]
	if len(best) == len(c.best) && !cd.outranks(best[len(best)-1]) {
		return
	}
	for i := range best {
		if best[i].p == cd.p {
			if cd.score <= best[i].score {
				return
			}
			best = append(best[:i], best[i+1:]...)
			break
		}
	}
	if len(best) == len(c.best) {
		best = best[:len(best)-1]
	}
	i := len(best)
	for i > 0 && cd.outranks(best[i-1]) {
		i--
	}
	best = slices.Insert(best, i, cd)
	c.nbest = len(best)
}

// walk returns the first servable candidate among the first topK of
// c.best not yet offered, and its score: near-ties are common in
// templated workloads — a differently-parameterized question phrased the
// same way often outscores the right pattern — and the literal gate is
// what tells the look-alikes apart. It runs under the read lock.
func (c *Cursor) walk() (*pattern, float64) {
	walked := 0
	for _, cd := range c.best[:c.nbest] {
		if c.wasOffered(cd.p.rec.ID) {
			continue
		}
		if walked == topK {
			break
		}
		walked++
		if !cd.p.replaced && c.servable(cd.p) {
			return cd.p, cd.score
		}
	}
	return nil, 0
}

// servable reports whether p may be offered for c's question: not offered
// already, confident, and its SQL's literals all in the question.
func (c *Cursor) servable(p *pattern) bool {
	return !c.wasOffered(p.rec.ID) && p.rec.Confidence >= serveThreshold && literalsCovered(p.lits, c.qLower)
}

func (c *Cursor) wasOffered(id string) bool { return slices.Contains(c.offered[:c.n], id) }

// reindex rebuilds di's postings after a replace discarded them. It takes
// the write lock itself: Cursor.Next calls it between two read-locked
// sections.
func (m *Memory) reindex(di *dbIndex) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if di.idx == nil {
		di.idx = bm25.New(di.docs)
	}
}

// Admit records a verified-correct serving outcome: a new pattern (at
// initialConfidence) or a success + new phrasing on an existing one.
// Callers must only admit judge-verified generations — admission is the
// memory's accuracy floor. SQL that is not a SELECT is refused and
// counted in Stats.Refused.
func (m *Memory) Admit(db, question, evidence, sql, fingerprint string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !sqlengine.IsSelect(sql) {
		m.stats.Refused++
		return
	}
	id := PatternID(db, sql)
	if p, ok := m.patterns[id]; ok {
		p.rec.Successes++
		p.rec.Confidence += successWeight * (1 - p.rec.Confidence)
		// The data may have legitimately changed since admission (bulk
		// load, compaction): re-admission re-pins the fingerprint.
		p.rec.Fingerprint = fingerprint
		if evidence != "" {
			p.rec.Evidence = evidence
		}
		m.addPhrasingLocked(p, question)
		m.touchLocked(p)
		m.stats.Reinforced++
		return
	}
	rec := Record{
		ID: id, DB: db, SQL: sql,
		Evidence:    evidence,
		Fingerprint: fingerprint,
		Confidence:  initialConfidence,
		Successes:   1,
		Phrasings:   []string{question},
	}
	p := &pattern{rec: rec, lits: lowerLiterals(sql)}
	m.patterns[id] = p
	m.indexPhrasingLocked(p, question)
	m.touchLocked(p)
	m.stats.Admitted++
}

// Success records a verified memory hit: confidence rises and the
// serving phrasing (a fresh paraphrase, usually) joins the pattern's
// retrieval documents.
func (m *Memory) Success(patternID, question string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.patterns[patternID]
	if !ok {
		return
	}
	p.rec.Successes++
	p.rec.Confidence += successWeight * (1 - p.rec.Confidence)
	m.addPhrasingLocked(p, question)
	m.touchLocked(p)
	m.stats.Reinforced++
}

// Failure records a failed hit verification (parse/execute error,
// fingerprint mismatch, or judge rejection): confidence decays, and a
// pattern crossing below the serve threshold counts as a demotion —
// it stops being served until re-earned.
func (m *Memory) Failure(patternID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.patterns[patternID]
	if !ok {
		return
	}
	was := p.rec.Confidence
	p.rec.Failures++
	p.rec.Confidence *= failureDecay
	if was >= serveThreshold && p.rec.Confidence < serveThreshold {
		m.stats.Demotions++
	}
	m.touchLocked(p)
}

// Stats snapshots the memory's counters.
func (m *Memory) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := m.stats
	s.Lookups, s.Hits, s.ExactHits, s.Misses = m.lookups.Load(), m.hits.Load(), m.exactHits.Load(), m.misses.Load()
	s.Patterns = len(m.patterns)
	for _, di := range m.dbs {
		s.Phrasings += len(di.docs)
	}
	if s.Lookups > 0 {
		s.HitRate = float64(s.Hits) / float64(s.Lookups)
	}
	return s
}

// touchLocked persists a mutated pattern write-through.
func (m *Memory) touchLocked(p *pattern) {
	if m.opts.Store != nil {
		if err := m.opts.Store.Append(cloneRecord(p.rec)); err != nil {
			m.stats.StoreErrors++
		} else {
			m.stats.StoreAppends++
		}
	}
}

// addPhrasingLocked appends a phrasing to a pattern (dedup, bounded) and
// indexes it for retrieval.
func (m *Memory) addPhrasingLocked(p *pattern, question string) {
	if question == "" || len(p.rec.Phrasings) >= maxPhrasings {
		return
	}
	for _, ph := range p.rec.Phrasings {
		if ph == question {
			return
		}
	}
	p.rec.Phrasings = append(p.rec.Phrasings, question)
	m.indexPhrasingLocked(p, question)
}

// indexPhrasingLocked adds one retrieval entry to p's database: O(the
// phrasing's tokens), whatever the index already holds.
func (m *Memory) indexPhrasingLocked(p *pattern, phrasing string) {
	di := m.dbs[p.rec.DB]
	if di == nil {
		di = &dbIndex{exact: make(map[string][]*pattern), idx: bm25.New(nil)}
		m.dbs[p.rec.DB] = di
	}
	di.pats = append(di.pats, p)
	di.docs = append(di.docs, phrasing)
	di.vecs = append(di.vecs, m.model.Embed(phrasing))
	di.exact[phrasing] = append(di.exact[phrasing], p)
	if di.idx != nil {
		di.idx.Add(phrasing)
	}
}

// applyLocked installs a full record (restore and replication paths), replacing
// any existing version and reindexing its phrasings. persist=true also
// writes it through to the store.
func (m *Memory) applyLocked(rec Record, persist bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyHeld(rec, persist)
}

// applyHeld is applyLocked with m.mu already held.
func (m *Memory) applyHeld(rec Record, persist bool) error {
	if rec.ID == "" || rec.DB == "" || rec.SQL == "" {
		return fmt.Errorf("qmemory: record missing id/db/sql")
	}
	old := m.patterns[rec.ID]
	if old != nil {
		old.replaced = true
	}
	rec = cloneRecord(rec)
	p := &pattern{rec: rec, lits: lowerLiterals(rec.SQL)}
	m.patterns[rec.ID] = p
	// Reindex: drop the old version's entries, add the new set. Filtering
	// the flat lists is O(phrasings of the db), fine at the mutation rates
	// replication runs at (restore never replaces).
	if di := m.dbs[rec.DB]; old != nil && di != nil {
		n := 0
		for i, q := range di.pats {
			if q != old {
				di.pats[n], di.docs[n], di.vecs[n] = q, di.docs[i], di.vecs[i]
				n++
			}
		}
		clear(di.pats[n:])
		clear(di.vecs[n:])
		di.pats, di.docs, di.vecs = di.pats[:n], di.docs[:n], di.vecs[:n]
		for _, ph := range old.rec.Phrasings {
			di.exact[ph] = slices.DeleteFunc(di.exact[ph], func(q *pattern) bool { return q == old })
			if len(di.exact[ph]) == 0 {
				delete(di.exact, ph)
			}
		}
		di.idx = nil
	}
	for _, ph := range rec.Phrasings {
		m.indexPhrasingLocked(p, ph)
	}
	if persist {
		m.touchLocked(p)
	}
	return nil
}

func cloneRecord(rec Record) Record {
	rec.Phrasings = append([]string(nil), rec.Phrasings...)
	return rec
}

// literalsCovered is the literal-overlap safety gate: every literal in
// the stored SQL (quoted strings and bare numbers) must appear in the
// incoming question. A paraphrase of the same intent carries the same
// entities; a different-entity question that merely *sounds* similar
// does not, and must regenerate instead of being served someone else's
// constants.
func literalsCovered(lits []string, qLower string) bool {
	for _, lit := range lits {
		if !strings.Contains(qLower, lit) {
			return false
		}
	}
	return true
}

// lowerLiterals is sqlLiterals lower-cased: extracted once per pattern,
// not once per candidate per look-up.
func lowerLiterals(sql string) []string {
	lits := sqlLiterals(sql)
	for i, lit := range lits {
		lits[i] = strings.ToLower(lit)
	}
	return lits
}

// sqlLiterals extracts quoted string literals and standalone numeric
// literals from a SQL text.
func sqlLiterals(sql string) []string {
	var out []string
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		switch {
		case c == '\'':
			j := i + 1
			var b strings.Builder
			for j < len(sql) {
				if sql[j] == '\'' {
					if j+1 < len(sql) && sql[j+1] == '\'' { // escaped quote
						b.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				b.WriteByte(sql[j])
				j++
			}
			if b.Len() > 0 {
				out = append(out, b.String())
			}
			i = j
		case c >= '0' && c <= '9':
			// A number is standalone when not part of an identifier.
			if i > 0 && (isIdentChar(sql[i-1]) || sql[i-1] == '.') {
				for i < len(sql) && isIdentChar(sql[i]) {
					i++
				}
				continue
			}
			j := i
			for j < len(sql) && (sql[j] >= '0' && sql[j] <= '9' || sql[j] == '.') {
				j++
			}
			out = append(out, sql[i:j])
			i = j - 1
		}
	}
	return out
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}
