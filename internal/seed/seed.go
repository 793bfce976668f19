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
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/sqlengine"
	"repro/internal/textutil"
)

// Thin aliases keep the stage code readable.
func contentWords(s string) []string   { return textutil.ContentWords(s) }
func stem(s string) string             { return textutil.Stem(s) }
func synonyms(s string) []string       { return textutil.Synonyms(s) }
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
}

// fewShots is the number of training exemplars in the prompt: the most
// similar question overall plus same-database neighbours, five in total
// in the paper.
const fewShots = 5

// sampleValues is how many rows of each TEXT column's sorted distinct
// values sample SQL execution and description generation read.
const sampleValues = 30

// ConfigGPT returns the Fig. 3a architecture.
func ConfigGPT() Config {
	return Config{
		Variant:       VariantGPT,
		SampleModel:   "gpt-4o-mini",
		GenerateModel: "gpt-4o",
		ReviseModel:   "deepseek-v3",
		Summarize:     false,
		EmitJoinHints: false,
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
	}
}

// Pipeline generates evidence for questions against one corpus. It is
// safe for concurrent use after construction: many callers may generate
// at once.
type Pipeline struct {
	cfg      Config
	client   llm.Client
	corpus   *dataset.Corpus
	embedder *embed.Model

	trainPool *embed.Pool      // corpus.Train questions, in split order
	trainByDB map[string][]int // corpus.Train indices per database

	// prompts pins what each database contributes to prompts
	// (*schema.DB -> *dbPrompt); it assumes a database's schema is fixed
	// once the pipeline has seen it.
	prompts sync.Map
}

// New builds a pipeline over a corpus. Train-split questions are embedded
// eagerly into a packed pool, outside the embedder's memo: they form the
// few-shot retrieval pool.
func New(cfg Config, client llm.Client, corpus *dataset.Corpus) *Pipeline {
	p := &Pipeline{
		cfg:       cfg,
		client:    client,
		corpus:    corpus,
		embedder:  embed.NewModel(),
		trainByDB: make(map[string][]int),
	}
	questions := make([]string, len(corpus.Train))
	for i, ex := range corpus.Train {
		questions[i] = ex.Question
		p.trainByDB[ex.DB] = append(p.trainByDB[ex.DB], i)
	}
	p.trainPool = embed.NewPool(questions)
	// Pull the value inventories now, so no question pays for them.
	for _, db := range corpus.DBs {
		db.WarmValues()
	}
	return p
}

// GenerateEvidence runs the full SEED pipeline for one question. It uses
// only public database information (schema, description files, values) and
// the training split — never the example's gold SQL or gold evidence.
//
// Schema summarization overlaps the keyword, sampling and few-shot
// stages; the others run in order (see GenerateEvidenceTraced, which
// also returns the per-stage provenance trace).
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

// dbPrompt is what one database contributes to prompts, rendered once:
// the whole schema's DDL for summarize_schema, and each table's block
// (marker, CREATE TABLE and description CSV) for generate, with the doc
// it was rendered from.
type dbPrompt struct {
	ddl    string
	tables map[*sqlengine.Table]tableBlock
}

type tableBlock struct {
	doc  *schema.TableDoc
	text string
}

// promptParts returns db's prompt parts, rendering them on first use.
func (p *Pipeline) promptParts(db *schema.DB) *dbPrompt {
	if v, ok := p.prompts.Load(db); ok {
		return v.(*dbPrompt)
	}
	// Two first callers may both render; the text is the same either way.
	tables := db.Engine.Tables()
	dp := &dbPrompt{ddl: db.DDL(), tables: make(map[*sqlengine.Table]tableBlock, len(tables))}
	for _, t := range tables {
		tv := tableView{Table: t}
		if td, ok := db.Doc(t.Name); ok {
			tv.Doc = td
		}
		dp.tables[t] = tableBlock{doc: tv.Doc, text: renderTableBlock(tv)}
	}
	v, _ := p.prompts.LoadOrStore(db, dp)
	return v.(*dbPrompt)
}

// block returns tv's prompt block: the pinned one, or, for a view whose
// doc is not the one pinned (a doc installed since), a fresh rendering.
func (dp *dbPrompt) block(tv tableView) string {
	if b, ok := dp.tables[tv.Table]; ok && b.doc == tv.Doc {
		return b.text
	}
	return renderTableBlock(tv)
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
