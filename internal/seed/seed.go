// Package seed implements the paper's contribution: SEED (System for
// Evidence Extraction and Domain knowledge generation). Given only a
// question and a database — schema, description files, and values — it
// generates BIRD-style evidence automatically through three stages
// (paper §III): schema summarization (for context-limited base models),
// sample SQL execution, and few-shot-prompted evidence generation. Two
// configurations mirror the paper's Fig. 3 architectures: ConfigGPT (full
// schema, gpt-4o-mini for sampling, gpt-4o for generation) and
// ConfigDeepSeek (deepseek-r1 everywhere, schema summarized twice, join
// hints leaking into the output — the Table VI format difference). A
// Reviser strips those join hints to produce SEED_revised (Table VII).
package seed

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/pipeline"
	"repro/internal/schema"
	"repro/internal/sqlengine"
	"repro/internal/textutil"
)

// Thin aliases keep the stage code readable.
func contentWords(s string) []string   { return textutil.ContentWords(s) }
func stem(s string) string             { return textutil.Stem(s) }
func synonyms(s string) []string       { return textutil.Synonyms(s) }
func similarity(a, b string) float64   { return textutil.Similarity(a, b) }
func normalizeIdent(s string) []string { return textutil.NormalizeIdent(s) }

// Variant names a SEED architecture.
type Variant string

// SEED variants, as named in the paper's tables.
const (
	VariantGPT      Variant = "seed_gpt"
	VariantDeepSeek Variant = "seed_deepseek"
)

// Config selects the SEED architecture and its base models.
type Config struct {
	// Variant names the architecture this configuration realises.
	Variant Variant
	// SampleModel runs keyword extraction and sample-SQL planning
	// (gpt-4o-mini in the paper's GPT variant).
	SampleModel string
	// GenerateModel runs evidence generation (gpt-4o / deepseek-r1).
	GenerateModel string
	// ReviseModel strips join hints for SEED_revised (deepseek-v3).
	ReviseModel string
	// Summarize enables schema summarization before generation. The
	// paper's deepseek variant summarizes twice: once for the target
	// database, once for the few-shot examples.
	Summarize bool
	// EmitJoinHints lets generated evidence spell out join paths; the
	// deepseek variant does this (Table VI), the GPT variant does not.
	EmitJoinHints bool
	// FewShot is the number of training exemplars in the prompt: the
	// most similar question overall plus same-database neighbours, five
	// in total in the paper.
	FewShot int
	// MaxDistinct caps the per-column value inventory pulled by sample
	// SQL execution.
	MaxDistinct int
}

// ConfigGPT returns the Fig. 3a architecture.
func ConfigGPT() Config {
	return Config{
		Variant:       VariantGPT,
		SampleModel:   "gpt-4o-mini",
		GenerateModel: "gpt-4o",
		ReviseModel:   "deepseek-v3",
		Summarize:     false,
		EmitJoinHints: false,
		FewShot:       5,
		MaxDistinct:   30,
	}
}

// ConfigDeepSeek returns the Fig. 3b architecture.
func ConfigDeepSeek() Config {
	return Config{
		Variant:       VariantDeepSeek,
		SampleModel:   "deepseek-r1",
		GenerateModel: "deepseek-r1",
		ReviseModel:   "deepseek-v3",
		Summarize:     true,
		EmitJoinHints: true,
		FewShot:       5,
		MaxDistinct:   30,
	}
}

// Pipeline generates evidence for questions against one corpus. It is
// safe for concurrent use after construction: GenerateEvidence runs its
// stages as a concurrent DAG, and many callers may generate at once.
type Pipeline struct {
	cfg      Config
	client   llm.Client
	corpus   *dataset.Corpus
	embedder *embed.Model

	trainVecs []embed.Vector
	trainByDB map[string][]int // corpus.Train indices per database

	valueMu    sync.RWMutex
	valueCache map[string][]string // "db\x00table\x00col" -> distinct values

	// The evidence stage graph (see buildGraph in graph.go) and the
	// per-stage memos behind its warm partial hits.
	graph  *pipeline.Graph
	genRef pipeline.Ref[string]

	kwMemo   *pipeline.Memo // extract_keywords, keyed by question
	sumMemo  *pipeline.Memo // summarize_schema, keyed by (db, question stems)
	shotMemo *pipeline.Memo // select_few_shots, keyed by (db, question)
}

// New builds a pipeline over a corpus. Train-split questions are embedded
// eagerly: they form the few-shot retrieval pool.
func New(cfg Config, client llm.Client, corpus *dataset.Corpus) *Pipeline {
	p := &Pipeline{
		cfg:        cfg,
		client:     client,
		corpus:     corpus,
		embedder:   embed.NewModel(),
		trainByDB:  make(map[string][]int),
		valueCache: make(map[string][]string),
		kwMemo:     pipeline.NewMemo(4096, 16),
		sumMemo:    pipeline.NewMemo(2048, 16),
		shotMemo:   pipeline.NewMemo(4096, 16),
	}
	p.trainVecs = make([]embed.Vector, len(corpus.Train))
	for i, ex := range corpus.Train {
		p.trainVecs[i] = p.embedder.Embed(ex.Question)
		p.trainByDB[ex.DB] = append(p.trainByDB[ex.DB], i)
	}
	// Pre-warm the value inventories so concurrent generation does not
	// race on the cache.
	for _, db := range corpus.DBs {
		for _, t := range db.Engine.Tables() {
			for _, col := range t.Columns {
				if col.Type == "TEXT" {
					p.distinctValues(db, t.Name, col.Name)
				}
			}
		}
	}
	p.buildGraph()
	return p
}

// GenerateEvidence runs the full SEED pipeline for one question. It uses
// only public database information (schema, description files, values) and
// the training split — never the example's gold SQL or gold evidence.
//
// The stages execute as a concurrent DAG (sample execution and few-shot
// selection in parallel after keyword extraction, schema summarization
// overlapping both) with per-stage memoization; output is byte-identical
// to GenerateEvidenceSequential. Callers that want the per-stage
// provenance trace should use GenerateEvidenceTraced.
func (p *Pipeline) GenerateEvidence(dbName, question string) (string, error) {
	ev, _, err := p.GenerateEvidenceTraced(context.Background(), dbName, question)
	return ev, err
}

// visibleTables returns the full table list (no summarization): every
// table with its doc, in schema order.
func (p *Pipeline) visibleTables(db *schema.DB, question string) []tableView {
	var out []tableView
	for _, t := range db.Engine.Tables() {
		tv := tableView{Table: t}
		if td, ok := db.Doc(t.Name); ok {
			tv.Doc = td
		}
		out = append(out, tv)
	}
	return out
}

// tableView is one table as seen by the generation stage: its engine
// schema plus (possibly pruned) documentation.
type tableView struct {
	Table *sqlengine.Table
	Doc   *schema.TableDoc
}

// distinctValues returns (and caches) the distinct TEXT values of a
// column, capped at MaxDistinct, pulled with real sample SQL against the
// engine — the paper's "unique values are extracted regardless of the data
// type". The cache is prewarmed in New, but lookups of columns added later
// (e.g. by generated description files) must stay safe under the evserve
// worker pool, so access is lock-guarded.
func (p *Pipeline) distinctValues(db *schema.DB, table, column string) []string {
	key := db.Name + "\x00" + strings.ToLower(table) + "\x00" + strings.ToLower(column)
	p.valueMu.RLock()
	vals, ok := p.valueCache[key]
	p.valueMu.RUnlock()
	if ok {
		return vals
	}
	max := p.cfg.MaxDistinct
	if max <= 0 {
		max = 30
	}
	sql := fmt.Sprintf("SELECT DISTINCT %s FROM %s ORDER BY %s LIMIT %d",
		quoteIdent(column), quoteIdent(table), quoteIdent(column), max)
	rows, err := db.Engine.Query(sql)
	vals = nil
	if err == nil {
		for _, r := range rows.Data {
			if len(r) > 0 && !r[0].IsNull() {
				vals = append(vals, r[0].AsText())
			}
		}
	}
	p.valueMu.Lock()
	p.valueCache[key] = vals
	p.valueMu.Unlock()
	return vals
}

func quoteIdent(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return "`" + s + "`"
		}
	}
	return s
}

// stemsWithSynonyms returns the stemmed content words of text expanded
// with the world-knowledge synonym dictionary.
func stemsWithSynonyms(text string) map[string]bool {
	out := make(map[string]bool)
	for _, w := range contentWords(text) {
		out[stem(w)] = true
		for _, s := range synonyms(w) {
			out[stem(s)] = true
		}
	}
	return out
}

// sortedKeys returns map keys in sorted order for deterministic iteration.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
