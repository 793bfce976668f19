// Package texttosql implements the five baseline text-to-SQL systems the
// paper evaluates SEED with (§IV-C): CHESS (multi-agent, in two agent
// configurations), RSL-SQL (bidirectional schema linking), CodeS
// (fine-tuned small models with BM25 value retrieval), DAIL-SQL
// (prompt-engineered in-context learning) and C3 (zero-shot with
// self-consistency voting).
//
// All five share one semantic core and differ exactly where the paper says
// they differ: what retrieval machinery they bring (CHESS's information
// retriever, CodeS's BM25 + longest-common-substring, RSL-SQL's schema
// linking), how many candidates they generate and test, and — critically
// for Tables VI/VII — how they ingest evidence. StyleConcat systems
// (CodeS, DAIL-SQL) append evidence to the question and tolerate any
// clause shape, even profiting from join hints; StylePromptEngineered
// systems (CHESS) are tuned to BIRD's exact evidence format and mis-ingest
// clauses that deviate from it.
//
// Simulation boundary: natural-language parsing proper is outside scope,
// so each generator receives the question's structural skeleton (the SQL
// template) and must fill its knowledge slots; structural assembly itself
// succeeds with capability- and complexity-dependent probability, failing
// into the example's precomputed near-miss corruption. Everything
// knowledge-related — the part of the problem SEED addresses — is resolved
// mechanically from evidence, retrieval or capability-gated guessing.
package texttosql

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/evidence"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/sqlengine"
)

// Task is one generation request.
type Task struct {
	Example  dataset.Example
	DB       *schema.DB
	Evidence string // evidence provided with the question; "" = none
}

// Generator converts a task to SQL.
type Generator interface {
	Name() string
	Generate(task Task) (string, error)
}

// Options configures the shared generation core. Exported so ablation
// benchmarks can probe individual mechanisms.
type Options struct {
	// DisplayName is the table row label, e.g. "CHESS_IR+CG+UT".
	DisplayName string
	// Model is the backing simulated LLM.
	Model string
	// FormatStrict in [0,1] models prompt-engineered evidence ingestion:
	// the probability that a clause whose body deviates from BIRD's plain
	// shape (table-qualified references, the style SEED emits) is not
	// slotted into the tuned prompt fields and falls back to the
	// system's own retrieval. Zero means plain concatenation (CodeS,
	// DAIL-SQL): any clause shape is ingested.
	FormatStrict float64
	// JoinDisruption scales how badly join-path clauses (a format BIRD
	// evidence never uses) derail the system's structured agent chain —
	// the Table VII mechanism. Zero for concatenation-style systems.
	JoinDisruption float64
	// ReadsJoinHints marks concatenation-style systems that profit from
	// join clauses by binding them directly into join slots.
	ReadsJoinHints bool
	// Values enables database value retrieval (CHESS IR, RSL-SQL, CodeS).
	Values *Retriever
	// Docs in [0,1] is the quality of description-file retrieval (CHESS
	// IR reads descriptions aggressively; CodeS only sees column
	// comments; DAIL-SQL reads none).
	Docs float64
	// SchemaLinking in [0,1] is the quality of column/join binding
	// machinery (RSL-SQL's bidirectional linking scores highest).
	SchemaLinking float64
	// StructBoost adjusts structural assembly success (positive for
	// strong pipelines, negative when schema pruning risks dropping
	// needed tables — the §II finding about schema linking).
	StructBoost float64
	// Candidates is how many SQL candidates to draw.
	Candidates int
	// UnitTest executes candidates and picks the execution-consistent
	// majority (CHESS's UT agent, C3's consistent-output voting).
	UnitTest bool
}

// OptionsProvider is implemented by generators built through NewGenerator.
// It exposes the option set so callers that manage generator lifecycles —
// the serving session registry warming a session's value retriever, for
// one — can reach the shared machinery without knowing which baseline the
// generator realises.
type OptionsProvider interface {
	Options() Options
}

// pipeline is the shared Generator implementation.
type pipeline struct {
	opts   Options
	client llm.Client
	// ddl pins each database's rendered schema block (*schema.DB ->
	// string), so a prompt costs one copy of it, not one Fprintf per
	// column. Like the Retriever's value index it assumes a database's
	// schema is fixed once the generator has seen it.
	ddl sync.Map
}

// Options implements OptionsProvider.
func (p *pipeline) Options() Options { return p.opts }

// NewGenerator builds a generator from explicit options. The five paper
// baselines are canned option sets over this core.
func NewGenerator(opts Options, client llm.Client) Generator {
	if opts.Candidates <= 0 {
		opts.Candidates = 1
	}
	return &pipeline{opts: opts, client: client}
}

func (p *pipeline) Name() string { return p.opts.DisplayName }

// Generate implements Generator.
func (p *pipeline) Generate(task Task) (string, error) {
	var candidates []string
	for c := 0; c < p.opts.Candidates; c++ {
		sql, err := p.generateOnce(task, c)
		if err != nil {
			return "", err
		}
		candidates = append(candidates, sql)
	}
	if len(candidates) == 1 || !p.opts.UnitTest {
		return candidates[0], nil
	}
	return p.pickConsistent(task, candidates), nil
}

// generateOnce produces one SQL candidate through a single simulated LLM
// call. Candidate index salts only the per-candidate randomness (guesses);
// evidence ingestion and retrieval are deterministic pipelines, so their
// outcomes — including evidence-induced errors — are correlated across
// candidates, which is what limits unit-test rescue under misleading
// evidence.
func (p *pipeline) generateOnce(task Task, candidate int) (string, error) {
	prompt := p.buildPrompt(task)
	var out string
	_, err := p.client.Complete(llm.Request{
		Model:  p.opts.Model,
		Prompt: prompt,
		Salt:   fmt.Sprintf("cand-%d", candidate),
		Task: func(prompt string, m llm.Model, rng *llm.Rand) (string, error) {
			out = p.assemble(task, m, candidate)
			return out, nil
		},
	})
	if err != nil {
		return "", err
	}
	return out, nil
}

// sharedRand derives a random source from example-scoped keys only — no
// model name. Every probabilistic gate compares a capability-monotone
// probability against draws from these sources, so model comparisons are
// paired (common random numbers): a stronger model never loses a draw a
// weaker one wins, which keeps the CodeS size ladder monotone at
// benchmark scale, exactly as paired evaluation on a fixed dev set does.
func sharedRand(parts ...string) *llm.Rand {
	h := fnv.New64a()
	for _, s := range parts {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return llm.NewRand(h.Sum64())
}

func (p *pipeline) buildPrompt(task Task) string {
	var b strings.Builder
	b.WriteString("Translate the question to SQL.\n")
	b.WriteString(p.schemaBlock(task.DB))
	if task.Evidence != "" {
		b.WriteString("\nEvidence: " + task.Evidence)
	}
	b.WriteString("\nQuestion: " + task.Example.Question)
	return b.String()
}

func (p *pipeline) schemaBlock(db *schema.DB) string {
	if s, ok := p.ddl.Load(db); ok {
		return s.(string)
	}
	// Two first callers may both render; the text is the same either way.
	s, _ := p.ddl.LoadOrStore(db, db.DDL())
	return s.(string)
}

// assemble performs structural assembly plus per-atom knowledge
// resolution for one candidate.
func (p *pipeline) assemble(task Task, m llm.Model, candidate int) string {
	e := task.Example
	cand := fmt.Sprintf("c%d", candidate)
	evRng := sharedRand(e.ID, task.Evidence, "ev")
	// Format disruption (Table VII mechanism): prompt-engineered agent
	// chains are tuned to BIRD-shaped evidence; join clauses derail their
	// structured ingestion. The draw is correlated across candidates
	// (same evidence, same derailment), so unit testing cannot vote it
	// away.
	if p.opts.JoinDisruption > 0 && evidence.HasJoins(task.Evidence) {
		if evRng.Chance(p.opts.JoinDisruption * (1.25 - m.Capability)) {
			return e.CorruptSQL
		}
	}
	// Structural assembly: capability versus query complexity, adjusted
	// by the pipeline's structural machinery. Structural failure is
	// mostly systematic (the model misreads the question the same way on
	// every sample), so the larger share of the failure probability is
	// drawn from the correlated source and survives candidate voting;
	// the remainder is per-candidate sampling noise. Both draws come
	// from example-scoped sources, so conditions and models are paired.
	pStruct := structuralSuccess(m.Capability, e.Complexity, p.opts.StructBoost)
	pFail := 1 - pStruct
	if sharedRand(e.ID, "struct").Chance(pFail * structCorrelated) {
		return e.CorruptSQL
	}
	residual := pFail * (1 - structCorrelated) / (1 - pFail*structCorrelated)
	if sharedRand(e.ID, "struct", cand).Chance(residual) {
		return e.CorruptSQL
	}
	frags := make([]string, len(e.Atoms))
	clauses := evidence.Parse(task.Evidence)
	for i, a := range e.Atoms {
		frags[i] = p.resolveAtom(task, a, i, cand, clauses, m, evRng)
	}
	sql, err := dataset.RenderSQL(e.SQLTemplate, frags)
	if err != nil {
		return e.CorruptSQL
	}
	// Occasional correct-but-inefficient formulation: the VES-relevant
	// failure mode (semantically equal, more rows touched).
	if sharedRand(e.ID, "ineff", cand).Chance((1 - m.Capability) * 0.30) {
		if slow, ok := wrapInefficient(sql); ok {
			return slow
		}
	}
	return sql
}

// Calibration constants for the shared core, fitted to the paper's Table IV
// anchors (README "Paper artefact → driver map": experiments.Table4).
const (
	// structBase + structCap*capability is the structural ceiling of a
	// complexity-zero query.
	structBase = 0.34
	structCap  = 0.45
	// structComplexity scales the difficulty penalty.
	structComplexity = 0.38
	// structCorrelated is the share of structural failures that repeat
	// identically across candidates (systematic misreads), immune to
	// unit-test voting.
	structCorrelated = 0.70
	// guessBase/guessCap scale an atom's intrinsic guessability by model
	// capability.
	guessBase = 0.55
	guessCap  = 0.45
)

// structuralSuccess is the probability that structural assembly (joins,
// grouping, projection shape) comes out right.
func structuralSuccess(capability, complexity, boost float64) float64 {
	pOK := structBase + structCap*capability - structComplexity*complexity + boost
	if pOK < 0.05 {
		pOK = 0.05
	}
	if pOK > 0.995 {
		pOK = 0.995
	}
	return pOK
}

// resolveAtom fills one knowledge slot: evidence first, then the
// pipeline's retrieval machinery, then a capability-weighted guess.
func (p *pipeline) resolveAtom(task Task, a dataset.Atom, atomIdx int, cand string, clauses []evidence.Clause, m llm.Model, evRng *llm.Rand) string {
	e := task.Example
	ai := fmt.Sprintf("a%d", atomIdx)
	// 1. Evidence ingestion.
	if len(clauses) > 0 {
		if frag, ok := p.fromEvidence(a, atomIdx, clauses, m, evRng, task.Evidence, e.ID); ok {
			return frag
		}
	}
	// 2. Retrieval machinery.
	if frag, ok := p.fromRetrieval(task, a, atomIdx, m); ok {
		return frag
	}
	// 3. Capability-weighted guess, independent per candidate but paired
	// across models and conditions.
	pGuess := a.Guess * (guessBase + guessCap*m.Capability)
	if a.Kind == dataset.JoinPath || a.Kind == dataset.ColumnRef {
		// Schema-linking machinery lifts structural bindings.
		pGuess += p.opts.SchemaLinking * (1 - pGuess) * 0.8
	}
	if sharedRand(e.ID, "guess", ai, cand).Chance(pGuess) {
		return a.CorrectFrag
	}
	return a.WrongFrag
}

// fromEvidence resolves an atom from provided evidence clauses, modelling
// each style's ingestion behaviour.
func (p *pipeline) fromEvidence(a dataset.Atom, atomIdx int, clauses []evidence.Clause, m llm.Model, evRng *llm.Rand, evText, exampleID string) (string, bool) {
	// Join slots: concat-style systems read join hints directly;
	// prompt-engineered systems have no slot for them in their tuned
	// format and skip them.
	if a.Kind == dataset.JoinPath {
		if p.opts.ReadsJoinHints {
			for _, c := range clauses {
				if c.Join && joinMentions(c.Body, a.Table) && joinMentions(c.Body, a.Table2) {
					return c.Body, true
				}
			}
		}
		return "", false
	}

	// Format familiarity: prompt-engineered ingestion parses evidence
	// into tuned prompt slots and expects BIRD's exact clause shapes.
	// When the evidence contains any non-BIRD-format content — join
	// clauses, table-qualified bodies, bare column bindings (all styles
	// SEED emits, none of which human BIRD evidence uses) — the parsing
	// stage degrades and clauses fall back to the system's own
	// retrieval. This is why the paper's CHESS and RSL-SQL gain far less
	// from SEED than from BIRD evidence (§IV-E2).
	if p.opts.FormatStrict > 0 && hasNonBirdFormat(clauses) {
		if sharedRand(exampleID, evText, "fmt", fmt.Sprintf("a%d", atomIdx)).Chance(p.opts.FormatStrict) {
			return "", false
		}
	}
	c, ok := evidence.BestMatch(clauses, a.Term, 0.55)
	if !ok {
		return "", false
	}
	// Attention dilution (the Table I "unnecessary information" defect):
	// a pile of irrelevant non-join clauses makes the model bind the
	// wrong one, corrupting the slot rather than falling back to
	// retrieval.
	nonJoin := 0
	for _, cl := range clauses {
		if !cl.Join {
			nonJoin++
		}
	}
	if extra := nonJoin - 4; extra > 0 {
		confusion := 0.012 * float64(extra)
		if confusion > 0.30 {
			confusion = 0.30
		}
		confusion *= 1.15 - m.Capability
		if evRng.Chance(confusion) {
			return a.WrongFrag, true
		}
	}

	frag := extractFrag(c, a.Kind)
	if frag == "" {
		return "", false
	}
	return frag, true
}

// extractFrag converts a clause body into the fragment shape an atom slot
// expects.
func extractFrag(c evidence.Clause, kind dataset.AtomKind) string {
	switch kind {
	case dataset.ValueMap, dataset.Synonym:
		if lit, ok := c.ValueLiteral(); ok {
			return lit
		}
		// Comparison-shaped clauses ("opened before refers to
		// date < '1996-01-01'") carry their payload as the last literal.
		if lit, ok := lastLiteral(c.Body); ok {
			return lit
		}
		return ""
	case dataset.Threshold:
		return c.Body
	case dataset.Formula:
		// A formula slot needs an expression, not a predicate.
		if strings.ContainsAny(c.Body, "<>") {
			return ""
		}
		return c.Body
	case dataset.ColumnRef:
		return c.ColumnSide()
	default:
		return ""
	}
}

func joinMentions(body, table string) bool {
	return strings.Contains(strings.ToLower(body), strings.ToLower(table)+".")
}

// lastLiteral extracts a trailing quoted or numeric literal from a clause
// body, preserving quotes.
func lastLiteral(body string) (string, bool) {
	body = strings.TrimSpace(body)
	if strings.HasSuffix(body, "'") {
		i := strings.LastIndex(body[:len(body)-1], "'")
		if i >= 0 {
			return body[i:], true
		}
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return "", false
	}
	last := fields[len(fields)-1]
	if last != "" && (last[0] >= '0' && last[0] <= '9' || last[0] == '-') {
		return last, true
	}
	return "", false
}

// fromRetrieval runs the pipeline's own grounding machinery. All draws
// come from example-scoped sources so conditions and models stay paired.
func (p *pipeline) fromRetrieval(task Task, a dataset.Atom, atomIdx int, m llm.Model) (string, bool) {
	e := task.Example
	ai := fmt.Sprintf("a%d", atomIdx)
	// Application slip: retrieval output still has to be wired into the
	// right slot by the model.
	slip := (1 - m.Capability) * 0.20
	if p.opts.Values != nil && a.ValueDerivable {
		if frag, ok := p.opts.Values.FindFrag(task.DB, a); ok && !sharedRand(e.ID, "slipv", ai).Chance(slip) {
			return frag, true
		}
	}
	if p.opts.Docs > 0 && a.DocDerivable && sharedRand(e.ID, "docq", ai).Chance(p.opts.Docs) {
		if frag, ok := lookupDocs(task.DB, a); ok && !sharedRand(e.ID, "slipd", ai).Chance(slip) {
			return frag, true
		}
	}
	return "", false
}

// hasNonBirdFormat reports whether any clause deviates from the shapes
// human BIRD evidence uses: join clauses, table-qualified bodies, or bare
// column bindings.
func hasNonBirdFormat(clauses []evidence.Clause) bool {
	for _, c := range clauses {
		if c.Join {
			return true
		}
		if strings.Contains(c.ColumnSide(), ".") {
			return true
		}
	}
	return false
}

// pickConsistent executes candidates and returns a representative of the
// largest execution-equivalent group — CHESS's unit-test agent and C3's
// consistent-output voting.
func (p *pipeline) pickConsistent(task Task, candidates []string) string {
	type groupInfo struct {
		count int
		first int
	}
	groups := make(map[string]*groupInfo)
	var keys []string
	for i, sql := range candidates {
		rows, err := task.DB.Engine.Query(sql)
		var key string
		if err != nil {
			key = "error"
		} else {
			key = fingerprint(rows)
		}
		g, ok := groups[key]
		if !ok {
			g = &groupInfo{first: i}
			groups[key] = g
			keys = append(keys, key)
		}
		g.count++
	}
	best := ""
	for _, k := range keys {
		if k == "error" {
			continue
		}
		if best == "" || groups[k].count > groups[best].count {
			best = k
		}
	}
	if best == "" {
		return candidates[0]
	}
	return candidates[groups[best].first]
}

// fingerprint canonically hashes a result set (order-insensitive).
func fingerprint(rows *sqlengine.Rows) string {
	lines := make([]string, 0, rows.Len())
	for i := 0; i < rows.Len(); i++ {
		var sb strings.Builder
		for k := range rows.Columns {
			sb.WriteString(rows.Cell(i, k).Key())
			sb.WriteByte(0)
		}
		lines = append(lines, sb.String())
	}
	// The served SQL can lose its LIMIT: a result set is not always small.
	sort.Strings(lines)
	return strings.Join(lines, "\x01")
}

// wrapInefficient makes a query slower without changing its results: it
// conjoins a tautological EXISTS over the first base table, multiplying
// rows touched. Returns false when the query has no base table to lean on.
func wrapInefficient(sql string) (string, bool) {
	sel, err := sqlengine.ParseSelect(sql)
	if err != nil || len(sel.From) == 0 || sel.From[0].Table == "" {
		return "", false
	}
	exists := &sqlengine.ExistsExpr{Sub: &sqlengine.SelectStmt{
		Columns: []sqlengine.SelectItem{{Expr: &sqlengine.Literal{Val: sqlengine.Int(1)}}},
		From:    []sqlengine.FromItem{{Table: sel.From[0].Table}},
	}}
	if sel.Where != nil {
		sel.Where = &sqlengine.Binary{Op: "AND", L: sel.Where, R: exists}
	} else {
		sel.Where = exists
	}
	return sel.SQL(), true
}
