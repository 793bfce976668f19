package qmemory

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/bm25"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/synth"
)

// referenceLookup is Memory.Lookup as it stood before the inverted index:
// rebuild BM25 over every phrasing, self-score every document, scan for
// the exact phrasing after the BM25 pass, embed per entry, extract the
// SQL's literals per candidate. It reads m's entries and counts nothing.
// Every look-up the tests make must return exactly what this returns.
func referenceLookup(m *Memory, db, question string, exclude ...string) (Hit, bool) {
	var excluded map[string]bool
	if len(exclude) > 0 {
		excluded = make(map[string]bool, len(exclude))
		for _, id := range exclude {
			excluded[id] = true
		}
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	di := m.dbs[db]
	if di == nil || len(di.docs) == 0 {
		return Hit{}, false
	}
	ids := make([]string, len(di.pats))
	for i, p := range di.pats {
		ids[i] = p.rec.ID
	}
	idx := bm25.New(di.docs)
	selfNorm := make([]float64, len(di.docs))
	for i, doc := range di.docs {
		selfNorm[i] = idx.Score(doc, i)
	}
	literalsCovered := func(sql, question string) bool {
		q := strings.ToLower(question)
		for _, lit := range sqlLiterals(sql) {
			if !strings.Contains(q, strings.ToLower(lit)) {
				return false
			}
		}
		return true
	}

	lex := make(map[int]float64, m.opts.TopK)
	for _, r := range idx.TopK(question, m.opts.TopK) {
		if norm := selfNorm[r.Index]; norm > 0 {
			s := r.Score / norm
			if s > 1 {
				s = 1
			}
			lex[r.Index] = s
		}
	}

	for i, doc := range di.docs {
		if doc != question || excluded[ids[i]] {
			continue
		}
		p := m.patterns[ids[i]]
		if p == nil || p.rec.Confidence < m.opts.ServeThreshold || !literalsCovered(p.rec.SQL, question) {
			continue
		}
		return Hit{
			PatternID:   p.rec.ID,
			SQL:         p.rec.SQL,
			Evidence:    p.rec.Evidence,
			Fingerprint: p.rec.Fingerprint,
			Confidence:  p.rec.Confidence,
			Similarity:  1,
		}, true
	}

	qv := m.model.Embed(question)
	bestOf := make(map[string]float64)
	for i, id := range ids {
		p := m.patterns[id]
		if p == nil || excluded[id] {
			continue
		}
		cos := embed.Cosine(qv, m.model.Embed(di.docs[i]))
		score := 0.65*cos + 0.35*lex[i]
		if score >= m.opts.MinSimilarity && score > bestOf[id] {
			bestOf[id] = score
		}
	}
	type cand struct {
		id    string
		score float64
	}
	ranked := make([]cand, 0, len(bestOf))
	for id, s := range bestOf {
		ranked = append(ranked, cand{id, s})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].id < ranked[j].id
	})
	if len(ranked) > m.opts.TopK {
		ranked = ranked[:m.opts.TopK]
	}
	for _, c := range ranked {
		p := m.patterns[c.id]
		if p.rec.Confidence < m.opts.ServeThreshold || !literalsCovered(p.rec.SQL, question) {
			continue
		}
		return Hit{
			PatternID:   p.rec.ID,
			SQL:         p.rec.SQL,
			Evidence:    p.rec.Evidence,
			Fingerprint: p.rec.Fingerprint,
			Confidence:  p.rec.Confidence,
			Similarity:  c.score,
		}, true
	}
	return Hit{}, false
}

// synthQueries is a synth.Workload over the financial schema: canonical
// questions with literal-preserving paraphrases, what memory2k_para asks.
func synthQueries(tb testing.TB, n int) []synth.Query {
	tb.Helper()
	src, ok := dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7}).DB("financial")
	if !ok {
		tb.Fatal("no financial database")
	}
	db, err := synth.Generate(src, synth.Options{Seed: 7, Rows: synth.ProportionalRows(src, 2000)})
	if err != nil {
		tb.Fatal(err)
	}
	qs, err := synth.Workload(db, n, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return qs
}

// checkLookup asserts Lookup returns the reference's (Hit, ok), the
// similarity to the bit.
func checkLookup(t *testing.T, m *Memory, step int, question string, exclude ...string) Hit {
	t.Helper()
	want, wantOK := referenceLookup(m, "financial", question, exclude...)
	got, ok := m.Lookup("financial", question, exclude...)
	if ok != wantOK || got != want || math.Float64bits(got.Similarity) != math.Float64bits(want.Similarity) {
		t.Fatalf("step %d Lookup(%q, exclude %v):\n got %+v %v\nwant %+v %v", step, question, exclude, got, ok, want, wantOK)
	}
	return got
}

// TestLookupMatchesReference drives a seeded interleaving of Admit,
// Success, Failure, Inject-replace and Lookup (with and without exclude)
// over synth.Workload paraphrases and checks every look-up against the
// reference.
func TestLookupMatchesReference(t *testing.T) {
	qs := synthQueries(t, 60)
	rng := rand.New(rand.NewSource(16))
	m, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	anyPhrasing := func(q synth.Query) string {
		if i := rng.Intn(len(q.Paraphrases) + 1); i < len(q.Paraphrases) {
			return q.Paraphrases[i]
		}
		return q.Question
	}
	hits, exact := 0, 0
	for step := 0; step < 700; step++ {
		q := qs[rng.Intn(len(qs))]
		id := PatternID("financial", q.SQL)
		switch op := rng.Intn(10); {
		case op < 2:
			m.Admit("financial", q.Question, "ev", q.SQL, "fp")
		case op < 4:
			m.Success(id, anyPhrasing(q))
		case op == 4 && rng.Intn(4) == 0:
			m.Failure(id)
		case op == 5:
			// Replace: a peer's more-evolved version that forgot one
			// phrasing and learned another.
			for _, rec := range m.Patterns() {
				if rec.ID != id {
					continue
				}
				rec.Successes += 2
				rec.Phrasings = append(rec.Phrasings[:len(rec.Phrasings)/2], fmt.Sprintf("%s (asked again, %d)", q.Question, step))
				if applied, err := m.Inject(rec); err != nil || !applied {
					t.Fatalf("step %d: Inject applied=%v err=%v", step, applied, err)
				}
			}
		default:
			question := anyPhrasing(q)
			hit := checkLookup(t, m, step, question)
			if hit.PatternID != "" {
				hits++
				if hit.Similarity == 1 {
					exact++
				}
				// What the serve path does after a failed verification.
				second := checkLookup(t, m, step, question, hit.PatternID)
				if second.PatternID != "" {
					checkLookup(t, m, step, question, hit.PatternID, second.PatternID)
				}
			}
		}
	}
	if hits < 60 || exact == 0 || exact == hits {
		t.Fatalf("driver exercised too little: %d hits, %d exact", hits, exact)
	}
	if st := m.Stats(); st.ExactHits == 0 || st.ExactHits >= st.Hits || st.Hits+st.Misses != st.Lookups {
		t.Fatalf("stats: %+v", st)
	}
}

// TestReplaceDropsPhrasing: after a pattern is replaced, a phrasing the
// new version does not carry is gone from the exact map and the postings,
// and the phrasing it gained is found.
func TestReplaceDropsPhrasing(t *testing.T) {
	m, _ := New(Options{})
	const sql = "SELECT COUNT(*) FROM orders WHERE status = 'shipped'"
	const kept = "How many orders have status 'shipped'?"
	const dropped = "Tally the consignments marked 'shipped'"
	const gained = "Number of parcels flagged 'shipped'"
	m.Admit("shop", kept, "", sql, "fp")
	m.Admit("shop", dropped, "", sql, "fp")
	if hit, ok := m.Lookup("shop", dropped); !ok || hit.Similarity != 1 {
		t.Fatalf("before replace: %+v %v", hit, ok)
	}

	rec := m.Patterns()[0]
	rec.Successes++
	rec.Phrasings = []string{kept, gained}
	if applied, err := m.Inject(rec); err != nil || !applied {
		t.Fatalf("Inject applied=%v err=%v", applied, err)
	}
	di := m.dbs["shop"]
	if _, ok := di.exact[dropped]; ok {
		t.Error("dropped phrasing still in the exact map")
	}
	if hit, ok := m.Lookup("shop", dropped); ok && hit.Similarity == 1 {
		t.Errorf("dropped phrasing still an exact hit: %+v", hit)
	}
	// That look-up went down the semantic path, which rebuilt the postings.
	if di.idx == nil || di.idx.Len() != 2 || len(di.docs) != 2 {
		t.Fatalf("postings not rebuilt over the two live phrasings: %+v", di.idx)
	}
	if res := di.idx.TopK("consignments", 5); len(res) != 0 {
		t.Errorf("dropped phrasing still in the postings: %v", res)
	}
	if res := di.idx.TopK("parcels", 5); len(res) != 1 || res[0].Index != 1 {
		t.Errorf("gained phrasing not in the postings: %v", res)
	}
	if hit, ok := m.Lookup("shop", gained); !ok || hit.Similarity != 1 {
		t.Errorf("gained phrasing: %+v %v", hit, ok)
	}
	if got := m.Stats().Phrasings; got != 2 {
		t.Errorf("phrasings = %d, want 2", got)
	}
}

// taught returns a memory holding n patterns, each with its canonical
// question and paraphrases as phrasings.
func taught(tb testing.TB, qs []synth.Query, n int) *Memory {
	tb.Helper()
	m, err := New(Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, q := range qs[:n] {
		m.Admit("financial", q.Question, "ev", q.SQL, "fp")
		for _, ph := range q.Paraphrases {
			m.Success(PatternID("financial", q.SQL), ph)
		}
	}
	return m
}

// TestExactHitAllocations: an exact-phrasing hit allocates a single-digit
// constant, whatever the memory holds.
func TestExactHitAllocations(t *testing.T) {
	qs := synthQueries(t, 2000)
	var allocs [2]float64
	for i, n := range []int{200, 2000} {
		m := taught(t, qs, n)
		question := qs[n/2].Paraphrases[0]
		if hit, ok := m.Lookup("financial", question); !ok || hit.Similarity != 1 {
			t.Fatalf("n=%d: %q is not an exact hit: %+v %v", n, question, hit, ok)
		}
		allocs[i] = testing.AllocsPerRun(50, func() { m.Lookup("financial", question) })
	}
	if allocs[0] != allocs[1] || allocs[1] > 9 {
		t.Errorf("exact hit allocs: %.0f at 200 patterns, %.0f at 2,000; want equal and single-digit", allocs[0], allocs[1])
	}
}

// TestConcurrentHammer runs look-ups, Stats, Patterns and SyncRead from
// four goroutines against four writers, each admitting, reinforcing,
// failing and replacing its own patterns. Mutations touch one pattern
// each, so whatever the interleaving the final records must equal the
// writers' operations applied serially. Run under -race.
func TestConcurrentHammer(t *testing.T) {
	const writers, readers = 4, 4
	qs := synthQueries(t, 80)
	write := func(m *Memory, w int) {
		rng := rand.New(rand.NewSource(int64(w)))
		for step := 0; step < 150; step++ {
			q := qs[w+writers*rng.Intn(len(qs)/writers)]
			id := PatternID("financial", q.SQL)
			switch rng.Intn(6) {
			case 0, 1:
				m.Admit("financial", q.Question, "ev", q.SQL, "fp")
			case 2, 3:
				m.Success(id, q.Paraphrases[rng.Intn(len(q.Paraphrases))])
			case 4:
				m.Failure(id)
			case 5:
				rec := Record{ID: id, DB: "financial", SQL: q.SQL, Fingerprint: "fp", Confidence: 0.9,
					Successes: int64(step) * 10, Phrasings: []string{q.Question, fmt.Sprintf("%s (peer %d)", q.Question, step)}}
				if _, err := m.Inject(rec); err != nil {
					t.Error(err)
				}
			}
		}
	}

	serial, _ := New(Options{})
	for w := 0; w < writers; w++ {
		write(serial, w)
	}

	m, _ := New(Options{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[rng.Intn(len(qs))]
				if hit, ok := m.Lookup("financial", q.Paraphrases[0]); ok {
					m.Lookup("financial", q.Paraphrases[0], hit.PatternID)
				}
				if r == 0 && i%8 == 0 {
					m.SyncRead(0, 0, 16)
					m.Stats()
					m.Patterns()
				}
			}
		}(r)
	}
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			write(m, w)
		}(w)
	}
	writing.Wait()
	close(stop)
	wg.Wait()

	if got, want := m.Patterns(), serial.Patterns(); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent run diverged from serial: %d vs %d patterns", len(got), len(want))
	}
	// The index must have survived too: every look-up still matches.
	for i := 0; i < len(qs); i += 4 {
		checkLookup(t, m, i, qs[i].Paraphrases[len(qs[i].Paraphrases)-1])
	}
}

var sinkHit Hit

// benchQuestions are one look-up stream per path against a memory of n
// patterns: exact (a learned paraphrase), paraphrase (a phrasing the
// memory has not seen, same literals) and miss (a question of another
// pattern the memory does not hold).
func benchQuestions(b *testing.B, n int) (m *Memory, streams map[string][]string) {
	qs := synthQueries(b, n+64)
	m = taught(b, qs, n)
	streams = map[string][]string{}
	for i := 0; i < 64; i++ {
		q := qs[i*(n/64)]
		streams["exact"] = append(streams["exact"], q.Paraphrases[0])
		streams["paraphrase"] = append(streams["paraphrase"], "Tell me: "+strings.ToLower(q.Question))
		streams["miss"] = append(streams["miss"], qs[n+i].Question)
	}
	return m, streams
}

func BenchmarkLookup(b *testing.B) {
	for _, n := range []int{200, 2000} {
		m, streams := benchQuestions(b, n)
		for _, path := range []string{"exact", "paraphrase", "miss"} {
			questions := streams[path]
			b.Run(fmt.Sprintf("%s/patterns=%d", path, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkHit, _ = m.Lookup("financial", questions[i%len(questions)])
				}
			})
		}
	}
}

// BenchmarkLookupParallel is the serving mix (seven exact hits to one
// paraphrase) from GOMAXPROCS goroutines: readers share the lock.
func BenchmarkLookupParallel(b *testing.B) {
	m, streams := benchQuestions(b, 200)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			path := "exact"
			if i%8 == 7 {
				path = "paraphrase"
			}
			m.Lookup("financial", streams[path][i%64])
		}
	})
}
