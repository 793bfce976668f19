package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/seed"
	"repro/internal/texttosql"
)

// seedConfigFor maps a SEED variant to its pipeline configuration,
// rejecting unknown variants so a typo in `seedd -variant` fails loudly
// instead of silently serving (and labelling caches with) the wrong
// architecture.
func seedConfigFor(v seed.Variant) (seed.Config, error) {
	switch v {
	case seed.VariantGPT:
		return seed.ConfigGPT(), nil
	case seed.VariantDeepSeek:
		return seed.ConfigDeepSeek(), nil
	default:
		return seed.Config{}, fmt.Errorf("server: unknown SEED variant %q (want %s or %s)",
			v, seed.VariantGPT, seed.VariantDeepSeek)
	}
}

// GeneratorFor builds one of the paper's baseline text-to-SQL generators
// by short name. The serving layer and the offline experiment drivers
// construct generators through the same texttosql constructors, which is
// what makes online responses bit-identical to offline pipeline output.
func GeneratorFor(name string, client llm.Client) (texttosql.Generator, error) {
	switch name {
	case "codes-15b":
		return texttosql.NewCodeS(client, 15), nil
	case "codes-7b":
		return texttosql.NewCodeS(client, 7), nil
	case "codes-3b":
		return texttosql.NewCodeS(client, 3), nil
	case "codes-1b":
		return texttosql.NewCodeS(client, 1), nil
	case "chess":
		return texttosql.NewCHESSIRCGUT(client), nil
	case "chess-sscg":
		return texttosql.NewCHESSIRSSCG(client), nil
	case "rsl-sql":
		return texttosql.NewRSLSQL(client), nil
	case "dail-sql":
		return texttosql.NewDAILSQL(client), nil
	case "c3":
		return texttosql.NewC3(client), nil
	default:
		return nil, fmt.Errorf("server: unknown generator %q (want codes-{1,3,7,15}b, chess, chess-sscg, rsl-sql, dail-sql or c3)", name)
	}
}

// Session is the per-database serving state: the schema/catalog handle,
// the corpus-shared generator, and the question index that maps incoming
// natural-language questions back to corpus examples (NL parsing proper is
// outside the simulation boundary, so serving is defined over corpus
// questions). A Session is built exactly once per database — on first
// request — and shared by every subsequent request; building it warms the
// generator's value retriever so no request pays for the database's value
// inventory or BM25 index construction.
type Session struct {
	// DB is the executable database with its description files.
	DB *schema.DB
	// Corpus names the corpus the database belongs to.
	Corpus string
	// Gen is the corpus-shared text-to-SQL generator.
	Gen texttosql.Generator

	byQuestion map[string]dataset.Example
	byID       map[string]dataset.Example
}

// Lookup resolves a request to a corpus example, by exact ID when given,
// otherwise by normalised question text.
func (s *Session) Lookup(question, id string) (dataset.Example, bool) {
	if id != "" {
		e, ok := s.byID[id]
		return e, ok
	}
	e, ok := s.byQuestion[normalizeQuestion(question)]
	return e, ok
}

// normalizeQuestion canonicalises question text for lookup: whitespace
// runs collapse, case folds, and a trailing question mark is optional.
func normalizeQuestion(q string) string {
	q = strings.Join(strings.Fields(q), " ")
	q = strings.TrimSuffix(q, "?")
	return strings.ToLower(strings.TrimSpace(q))
}

// registry maps database names to lazily built Sessions. The expensive
// per-database state — value-retriever warm-up and the question index —
// is built exactly once per database under a per-slot sync.Once, however
// many requests race to be first.
type registry struct {
	slots  map[string]*sessionSlot
	names  []string // sorted database names
	loaded atomic.Int64
}

type sessionSlot struct {
	// info and examples are static corpus data, servable without
	// building the session (no retriever warm-up for listings).
	info     api.DBInfo
	examples []dataset.Example // dev then test, corpus order
	once     sync.Once
	build    func() *Session
	sess     *Session
}

// newRegistry indexes the corpora's databases and binds each to its
// corpus-shared generator. Generators come from the caller (one per
// corpus) so evidence and SQL generation share machinery with the
// offline drivers.
func newRegistry(corpora []*dataset.Corpus, gens map[string]texttosql.Generator) (*registry, error) {
	reg := &registry{slots: make(map[string]*sessionSlot)}
	for _, corpus := range corpora {
		gen, ok := gens[corpus.Name]
		if !ok {
			return nil, fmt.Errorf("server: no generator for corpus %q", corpus.Name)
		}
		servable := make(map[string][]dataset.Example)
		for _, split := range [][]dataset.Example{corpus.Dev, corpus.Test} {
			for _, e := range split {
				servable[e.DB] = append(servable[e.DB], e)
			}
		}
		for name, db := range corpus.DBs {
			if _, dup := reg.slots[name]; dup {
				return nil, fmt.Errorf("server: database %q appears in more than one corpus", name)
			}
			corpus, db, gen := corpus, db, gen
			slot := &sessionSlot{
				info: api.DBInfo{
					Name:     name,
					Corpus:   corpus.Name,
					Tables:   len(db.Engine.Tables()),
					Examples: len(servable[name]),
				},
				examples: servable[name],
			}
			slot.build = func() *Session {
				return buildSession(corpus, db, gen, slot.examples, &reg.loaded)
			}
			reg.slots[name] = slot
			reg.names = append(reg.names, name)
		}
	}
	sort.Strings(reg.names)
	return reg, nil
}

// Info returns a database's static metadata without building its session.
func (r *registry) Info(db string) (api.DBInfo, bool) {
	slot, ok := r.slots[db]
	if !ok {
		return api.DBInfo{}, false
	}
	return slot.info, true
}

// Examples returns up to limit of a database's servable examples
// (limit <= 0 means all), without building its session.
func (r *registry) Examples(db string, limit int) ([]dataset.Example, bool) {
	slot, ok := r.slots[db]
	if !ok {
		return nil, false
	}
	if limit <= 0 || limit > len(slot.examples) {
		limit = len(slot.examples)
	}
	return slot.examples[:limit], true
}

// Session returns the database's session, building it on first use.
func (r *registry) Session(db string) (*Session, bool) {
	slot, ok := r.slots[db]
	if !ok {
		return nil, false
	}
	slot.once.Do(func() { slot.sess = slot.build() })
	return slot.sess, true
}

// DBNames lists every servable database, sorted.
func (r *registry) DBNames() []string { return r.names }

// Loaded reports how many sessions have been built so far.
func (r *registry) Loaded() int64 { return r.loaded.Load() }

func buildSession(corpus *dataset.Corpus, db *schema.DB, gen texttosql.Generator, examples []dataset.Example, loaded *atomic.Int64) *Session {
	sess := &Session{
		DB:         db,
		Corpus:     corpus.Name,
		Gen:        gen,
		byQuestion: make(map[string]dataset.Example, len(examples)),
		byID:       make(map[string]dataset.Example, len(examples)),
	}
	for _, e := range examples {
		sess.byID[e.ID] = e
		key := normalizeQuestion(e.Question)
		if _, dup := sess.byQuestion[key]; !dup {
			sess.byQuestion[key] = e
		}
	}
	// Warm the generator's shared value retriever for this database so
	// its BM25 value index (and the database's value inventory, if SEED
	// has not pulled it) is built now, not on the first request.
	if op, ok := gen.(texttosql.OptionsProvider); ok {
		if r := op.Options().Values; r != nil {
			r.Warm(db)
		}
	}
	loaded.Add(1)
	return sess
}
