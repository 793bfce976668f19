package seed

import (
	"fmt"
	"strings"

	"repro/internal/evidence"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/sqlengine"
)

// generateCounted runs the evidence-generation stage: it assembles the
// paper's prompt (instruction, few-shot exemplars, sample SQL results,
// schema and question — §III-C) and completes it with the generation
// model. The task logic derives evidence clauses only from what is visible
// in the post-truncation prompt: description-file value maps and ranges,
// sampled values, and exemplar formulas. It returns the evidence and the
// request's token spend, for stage traces.
func (p *Pipeline) generateCounted(db *schema.DB, question string, visible []tableView, samples []Sample, shots []Shot) (string, int, error) {
	prompt := p.buildPrompt(db, question, visible, samples, shots)
	resp, err := p.client.Complete(llm.Request{
		Model:  p.cfg.GenerateModel,
		Prompt: prompt,
		Salt:   "evidence-gen",
		Task: func(prompt string, m llm.Model, rng *llm.Rand) (string, error) {
			return p.evidenceBrain(prompt, m, rng, db, question, visible, samples, shots), nil
		},
	})
	if err != nil {
		return "", 0, err
	}
	return resp.Text, resp.PromptTokens + resp.CompletionTokens, nil
}

// Prompt section markers. Head-truncation drops leading sections first, so
// the brain checks marker visibility before using a section's content —
// over-window prompts genuinely lose information.
const (
	markShots    = "### EXAMPLES"
	markSamples  = "### SAMPLE SQL RESULTS"
	markSchema   = "### SCHEMA"
	markQuestion = "### QUESTION"
)

func tableMarker(name string) string { return "[TBL:" + strings.ToLower(name) + "]" }

// renderTableBlock renders one table's schema section: its marker, its
// CREATE TABLE statement and its description CSV.
func renderTableBlock(tv tableView) string {
	s := tableMarker(tv.Table.Name) + "\n" + schema.TableDDL(tv.Table) + "\n"
	if tv.Doc != nil {
		s += tv.Doc.CSV()
	}
	return s
}

const promptHead = "Generate the evidence needed to write SQL for the question, in the style of the examples.\n"

// buildPrompt assembles the generation prompt into one buffer sized up
// front. Each table's block is rendered once per database (promptParts),
// not per question.
func (p *Pipeline) buildPrompt(db *schema.DB, question string, visible []tableView, samples []Sample, shots []Shot) string {
	dp := p.promptParts(db)
	n := len(promptHead) + len(markShots) + len(markSamples) + len(markSchema) + len(markQuestion) + len(question) + 5
	for _, s := range shots {
		n += len(s.Question) + len(s.Evidence) + len("Q: \nEvidence: \n")
	}
	for _, s := range samples {
		n += len(s.Table)*2 + len(s.Column) + len(s.Value) + len(s.Keyword) + len("[TBL:]  . contains '' (matches keyword '')\n")
	}
	for _, tv := range visible {
		n += len(dp.block(tv))
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(promptHead)
	b.WriteString(markShots + "\n")
	for _, s := range shots {
		b.WriteString("Q: ")
		b.WriteString(s.Question)
		b.WriteString("\nEvidence: ")
		b.WriteString(s.Evidence)
		b.WriteString("\n")
	}
	b.WriteString(markSamples + "\n")
	for _, s := range samples {
		b.WriteString(tableMarker(s.Table))
		b.WriteString(" ")
		b.WriteString(s.Table)
		b.WriteString(".")
		b.WriteString(s.Column)
		b.WriteString(" contains '")
		b.WriteString(s.Value)
		b.WriteString("' (matches keyword '")
		b.WriteString(s.Keyword)
		b.WriteString("')\n")
	}
	b.WriteString(markSchema + "\n")
	for _, tv := range visible {
		b.WriteString(dp.block(tv))
	}
	b.WriteString(markQuestion + "\n")
	b.WriteString(question)
	b.WriteString("\n")
	return b.String()
}

// evidenceBrain is the deterministic model of what the generation LLM
// emits. Every clause it produces is grounded in a prompt-visible source;
// capability and instruction-following parameters gate omissions and
// format drift.
func (p *Pipeline) evidenceBrain(prompt string, m llm.Model, rng *llm.Rand, db *schema.DB, question string, visible []tableView, samples []Sample, shots []Shot) string {
	qStems := stemsWithSynonyms(question)
	qLower := strings.ToLower(question)

	var clauses []evidence.Clause
	add := func(c evidence.Clause) {
		for _, prev := range clauses {
			if prev.Body == c.Body && prev.Term == c.Term {
				return
			}
		}
		clauses = append(clauses, c)
	}
	mentionedTables := make(map[string]bool)

	// 1. Description-file value maps: codes whose documented meaning is
	// covered by the question.
	for _, tv := range visible {
		if tv.Doc == nil || !strings.Contains(prompt, tableMarker(tv.Table.Name)) {
			continue
		}
		for _, cd := range tv.Doc.Columns {
			for _, code := range sortedKeys(cd.ValueMap) {
				meaning := cd.ValueMap[code]
				if !phraseCovered(meaning, qStems) {
					continue
				}
				lit := "'" + code + "'"
				if isNumericLiteral(code) && columnIsNumeric(tv.Table, cd.Column) {
					lit = code
				}
				add(evidence.Clause{
					Term: meaning,
					Body: fmt.Sprintf("%s = %s", cd.Column, lit),
				})
				mentionedTables[strings.ToLower(tv.Table.Name)] = true
			}
			// 2. Ranges and documented formulas.
			if cd.Range != "" {
				if c, ok := rangeClause(cd, question, qLower, qStems); ok {
					add(c)
					mentionedTables[strings.ToLower(tv.Table.Name)] = true
				}
			}
		}
	}

	// 3. Sampled values: bind question keywords to the columns that hold
	// them. Only the best sample per keyword is used, and keywords that
	// bind the same (column, value) collapse to the shortest keyword —
	// n-gram keyword extraction otherwise floods the evidence with
	// redundant bindings that crowd out the clauses other terms need.
	if strings.Contains(prompt, markSamples) {
		bestByKw := make(map[string]Sample)
		for _, s := range samples {
			if !strings.Contains(prompt, tableMarker(s.Table)) {
				continue
			}
			if prev, ok := bestByKw[strings.ToLower(s.Keyword)]; !ok || s.Sim > prev.Sim {
				bestByKw[strings.ToLower(s.Keyword)] = s
			}
		}
		byBinding := make(map[string]Sample)
		for _, kw := range sortedSampleKeys(bestByKw) {
			s := bestByKw[kw]
			bind := strings.ToLower(s.Table + "\x00" + s.Column + "\x00" + s.Value)
			if prev, ok := byBinding[bind]; !ok || len(s.Keyword) < len(prev.Keyword) {
				byBinding[bind] = s
			}
		}
		bestByKw = make(map[string]Sample, len(byBinding))
		for _, s := range byBinding {
			bestByKw[strings.ToLower(s.Keyword)] = s
		}
		for _, kw := range sortedSampleKeys(bestByKw) {
			s := bestByKw[kw]
			if strings.EqualFold(s.Value, s.Keyword) {
				// The keyword is itself a stored value: emit a column
				// binding (the "Fremont" case).
				add(evidence.Clause{
					Term: s.Keyword,
					Body: fmt.Sprintf("%s.%s", s.Table, s.Column),
				})
			} else {
				add(evidence.Clause{
					Term: s.Keyword,
					Body: fmt.Sprintf("%s.%s = '%s'", s.Table, s.Column, s.Value),
				})
			}
			mentionedTables[strings.ToLower(s.Table)] = true
		}
	}

	// 4. Formula clauses copied from visible exemplars whose terms the
	// question covers (the numeric-reasoning category: SEED can only get
	// these from the training examples).
	if strings.Contains(prompt, markShots) {
		for _, shot := range shots {
			for _, c := range evidence.Parse(shot.Evidence) {
				if evidence.Categorize(c) != evidence.CategoryNumeric || c.Term == "" {
					continue
				}
				if phraseCovered(c.Term, qStems) {
					add(c)
				}
			}
		}
	}

	// 5. Capability and instruction-following noise: weaker models omit
	// clauses or let value casing drift.
	kept := clauses[:0]
	for _, c := range clauses {
		if rng.Chance(0.04 + (1-m.Capability)*0.35) {
			continue
		}
		if rng.Chance((1 - m.InstructionFollowing) * 0.04) {
			c = lowercaseLiteral(c)
		}
		kept = append(kept, c)
	}
	clauses = kept

	// 6. Join hints (deepseek variant): spell out foreign-key paths among
	// the tables the evidence mentions — the Table VI format difference.
	if p.cfg.EmitJoinHints {
		for _, tv := range visible {
			child := strings.ToLower(tv.Table.Name)
			for _, fk := range tv.Table.ForeignKeys {
				parent := strings.ToLower(fk.ParentTable)
				if mentionedTables[child] || mentionedTables[parent] {
					clauses = append(clauses, evidence.Clause{
						Join: true,
						Body: fmt.Sprintf("%s.%s = %s.%s", tv.Table.Name, fk.Column, fk.ParentTable, fk.ParentColumn),
					})
				}
			}
		}
	}

	return evidence.Compose(clauses)
}

// phraseCovered reports whether most stemmed content words of phrase occur
// in the question stems (with synonym expansion already applied).
func phraseCovered(phrase string, qStems map[string]bool) bool {
	words := contentWords(phrase)
	if len(words) == 0 {
		return false
	}
	hit := 0
	for _, w := range words {
		if qStems[stem(w)] {
			hit++
			continue
		}
		for _, syn := range synonyms(w) {
			if qStems[stem(syn)] {
				hit++
				break
			}
		}
	}
	return float64(hit)/float64(len(words)) >= 0.67
}

// rangeClause turns a description-file Range note into a clause when the
// question asks about that measurement with a direction word.
func rangeClause(cd schema.ColumnDoc, question, qLower string, qStems map[string]bool) (evidence.Clause, bool) {
	// The measurement must be named in the question.
	named := false
	for _, w := range contentWords(cd.FullName) {
		if qStems[stem(w)] {
			named = true
			break
		}
	}
	if !named {
		return evidence.Clause{}, false
	}
	// Formula-style notes: "eligible free rate = FreeMealCount / Enrollment".
	if !strings.Contains(cd.Range, "Normal range") && strings.Contains(cd.Range, "=") {
		i := strings.Index(cd.Range, "=")
		term := strings.TrimSpace(cd.Range[:i])
		expr := strings.TrimSpace(cd.Range[i+1:])
		if phraseCovered(term, qStems) {
			return evidence.Clause{Term: term, Body: expr}, true
		}
		return evidence.Clause{}, false
	}
	// Normal-range notes: "Normal range: 29 < N < 52" or "Normal range: N < 180".
	lo, hi, ok := parseRange(cd.Range)
	if !ok {
		return evidence.Clause{}, false
	}
	above := strings.Contains(qLower, "exceed") || strings.Contains(qLower, "above") ||
		strings.Contains(qLower, "beyond") || strings.Contains(qLower, "over") ||
		strings.Contains(qLower, "higher")
	below := strings.Contains(qLower, "below") || strings.Contains(qLower, "under") ||
		strings.Contains(qLower, "lower")
	switch {
	case above && hi != "":
		return evidence.Clause{
			Term: cd.FullName + " exceeded the normal range",
			Body: fmt.Sprintf("%s >= %s", cd.Column, hi),
		}, true
	case below && lo != "":
		return evidence.Clause{
			Term: cd.FullName + " below the normal range",
			Body: fmt.Sprintf("%s <= %s", cd.Column, lo),
		}, true
	}
	return evidence.Clause{}, false
}

// parseRange reads "Normal range: A < N < B" or "Normal range: N < B",
// returning the bounds as strings (empty when absent).
func parseRange(s string) (lo, hi string, ok bool) {
	i := strings.Index(s, ":")
	if i < 0 {
		return "", "", false
	}
	expr := strings.TrimSpace(s[i+1:])
	parts := strings.Split(expr, "<")
	for j := range parts {
		parts[j] = strings.TrimSpace(parts[j])
	}
	switch len(parts) {
	case 2: // N < B
		if parts[0] == "N" {
			return "", parts[1], true
		}
		return parts[0], "", true
	case 3: // A < N < B
		if parts[1] == "N" {
			return parts[0], parts[2], true
		}
	}
	return "", "", false
}

func isNumericLiteral(s string) bool {
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

func columnIsNumeric(t *sqlengine.Table, col string) bool {
	c, ok := t.Column(col)
	return ok && (c.Type == "INTEGER" || c.Type == "REAL")
}

func lowercaseLiteral(c evidence.Clause) evidence.Clause {
	i := strings.Index(c.Body, "'")
	j := strings.LastIndex(c.Body, "'")
	if i < 0 || j <= i {
		return c
	}
	c.Body = c.Body[:i+1] + strings.ToLower(c.Body[i+1:j]) + c.Body[j:]
	return c
}

func sortedSampleKeys(m map[string]Sample) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
