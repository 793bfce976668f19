package seed

import (
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/textutil"
)

// --- Stage 1: keyword extraction (paper §III-B, first step) ---

// ExtractKeywords asks the sample-stage model for the question's
// column-like and value-like keywords: content words plus multi-word
// phrases. Weaker models drop keywords occasionally.
func (p *Pipeline) ExtractKeywords(question string) ([]string, error) {
	kws, _, err := p.extractKeywords(question)
	return kws, err
}

// extractKeywords is ExtractKeywords plus the request's token spend, for
// stage traces.
func (p *Pipeline) extractKeywords(question string) ([]string, int, error) {
	prompt := "Extract the keywords naming database columns and values from the question.\nQuestion: " + question
	resp, err := p.client.Complete(llm.Request{
		Model:  p.cfg.SampleModel,
		Prompt: prompt,
		Policy: llm.TruncateHead,
		Task: func(prompt string, m llm.Model, rng *llm.Rand) (string, error) {
			q := question
			if i := strings.LastIndex(prompt, "Question: "); i >= 0 {
				q = prompt[i+len("Question: "):]
			}
			words := contentWords(q)
			var kws []string
			seen := make(map[string]bool)
			add := func(k string) {
				if k == "" || seen[k] {
					return
				}
				seen[k] = true
				// Capability-gated omission: weak models miss keywords.
				if rng.Chance((1 - m.Capability) * 0.2) {
					return
				}
				kws = append(kws, k)
			}
			// Multi-word phrases first (bigrams and trigrams of adjacent
			// content words preserve value phrases like "weekly issuance"
			// or "Marvel Comics").
			for i := 0; i+1 < len(words); i++ {
				add(words[i] + " " + words[i+1])
				if i+2 < len(words) {
					add(words[i] + " " + words[i+1] + " " + words[i+2])
				}
			}
			for _, w := range words {
				add(w)
			}
			// Preserve original-cased tokens too: cased names like
			// "Fremont" or "TR024" are value keywords.
			for _, tok := range strings.Fields(q) {
				cleaned := strings.Trim(tok, ".,?!\"'()")
				if cleaned != "" && cleaned != strings.ToLower(cleaned) {
					add(cleaned)
				}
			}
			return strings.Join(kws, "\n"), nil
		},
	})
	if err != nil {
		return nil, 0, err
	}
	var out []string
	for _, line := range strings.Split(resp.Text, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, line)
		}
	}
	return out, resp.PromptTokens + resp.CompletionTokens, nil
}

// --- Stage 2: sample SQL execution (paper §III-B) ---

// Sample is one value surfaced by sample SQL execution: a keyword matched
// against a stored column value.
type Sample struct {
	// Table and Column locate where the value is stored.
	Table  string
	Column string
	// Keyword is the question keyword that matched.
	Keyword string
	// Value is the stored value the keyword matched against.
	Value string
	// Sim is the match strength: 1 for exact, less for LIKE and
	// edit-distance matches.
	Sim float64
}

// SampleExecution pairs extracted keywords with candidate columns and
// inspects real database values: unique values per column, containment
// (the LIKE path) and edit-distance neighbours, exactly the three
// retrieval modes of §III-B.
//
// Both sides come prepared: each column's inventory holds its values
// already lowered and measured (see distinctValues), and each keyword is
// lowered, measured and looked up in the synonym dictionary once per call,
// not once per value.
func (p *Pipeline) SampleExecution(db *schema.DB, keywords []string) []Sample {
	var out []Sample
	questionStems := make(map[string]bool)
	kws := make([]keyword, len(keywords))
	longest := 0
	for i, k := range keywords {
		for _, w := range contentWords(k) {
			questionStems[stem(w)] = true
		}
		kws[i] = newKeyword(k)
		longest = max(longest, kws[i].runes)
	}
	// The edit-distance kernel's DP row spans the keyword.
	var buf [64]int
	row := buf[:]
	if longest+1 > len(row) {
		row = make([]int, longest+1)
	}
	for _, t := range db.Engine.Tables() {
		for _, col := range t.Columns {
			if col.Type != "TEXT" {
				continue
			}
			values := p.distinctValues(db, t.Name, col.Name)
			for k := range kws {
				kw := &kws[k]
				bestSim, bestValue := 0.0, ""
				for v := range values {
					if sim := matchScore(kw, &values[v], row); sim > bestSim {
						bestSim, bestValue = sim, values[v].text
					}
				}
				if bestSim >= 0.7 {
					best := Sample{Table: t.Name, Column: col.Name, Keyword: kw.text, Value: bestValue, Sim: bestSim}
					// Column-name proximity boost: "Fresno county"
					// prefers the County column over City.
					for _, w := range normalizeIdent(col.Name) {
						if questionStems[stem(w)] {
							best.Sim += 0.2
							break
						}
					}
					out = append(out, best)
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Sim > out[j].Sim })
	return out
}

// keyword is one extracted keyword, prepared once per SampleExecution
// call: the text as extracted, its lower-case form, that form's rune count
// and its synonyms.
type keyword struct {
	text  string
	lower string
	runes int
	syns  []string
}

func newKeyword(text string) keyword {
	lower := strings.ToLower(text)
	return keyword{text: text, lower: lower, runes: utf8.RuneCountInString(lower), syns: synonyms(lower)}
}

// minEditSim is the edit-distance similarity, 1 - d/max(len), below which
// a keyword-value pair does not score.
const minEditSim = 0.75

// matchScore scores keyword-to-value affinity: exact (case-insensitive)
// match, containment either way (the LIKE path), synonym-dictionary match,
// then edit-distance similarity. Containment requires the contained side's
// lower-case form to span at least three bytes — single-letter codes such
// as 'M' or 'A' must not match inside arbitrary words. The rule counts
// bytes, not characters: a two-letter non-ASCII keyword such as "éé" is
// long enough.
//
// Edit distance is at least the difference of the two lengths, and 1 - d/m
// falls as d grows, so a pair whose lengths alone put it under minEditSim
// returns 0 without a DP; otherwise the kernel runs bounded by the largest
// distance that still scores.
func matchScore(kw *keyword, v *value, row []int) float64 {
	lk, lv := kw.lower, v.lower
	if lk == lv {
		return 1.0
	}
	if len(lk) >= 3 && strings.Contains(lv, lk) {
		return 0.85
	}
	if len(lv) >= 3 && strings.Contains(lk, lv) {
		return 0.8
	}
	for _, syn := range kw.syns {
		if syn == lv {
			return 0.9
		}
	}
	m, diff := max(kw.runes, v.runes), kw.runes-v.runes
	if diff < 0 {
		diff = -diff
	}
	if 1-float64(diff)/float64(m) < minEditSim {
		return 0
	}
	bound := scoringDistance(m)
	d := textutil.EditDistanceWithin(lv, lk, bound, row)
	if d > bound {
		return 0
	}
	return (1 - float64(d)/float64(m)) * 0.9
}

// scoringDistance is the largest edit distance d for which 1 - d/m, in the
// float64 arithmetic textutil.Similarity uses, still reaches minEditSim.
func scoringDistance(m int) int {
	d := int(float64(m) * (1 - minEditSim))
	for d < m && 1-float64(d+1)/float64(m) >= minEditSim {
		d++
	}
	for d > 0 && 1-float64(d)/float64(m) < minEditSim {
		d--
	}
	return d
}

// --- Stage 3: schema summarization (paper §III-A) ---

// SummarizeSchema prunes the schema to question-relevant tables using the
// generation model. Mistakes are capability-gated: a weak model may drop a
// borderline-relevant table, and anything dropped is genuinely invisible
// to the downstream generation stage.
func (p *Pipeline) SummarizeSchema(db *schema.DB, question string, visible []tableView) ([]tableView, error) {
	kept, _, err := p.summarizeSchema(db, question, visible)
	return kept, err
}

// summarizeSchema is SummarizeSchema plus the request's token spend, for
// stage traces.
func (p *Pipeline) summarizeSchema(db *schema.DB, question string, visible []tableView) ([]tableView, int, error) {
	prompt := "Remove schema information irrelevant to the question.\nSchema: " + p.schemaDDL(db) + "\nQuestion: " + question
	type scored struct {
		tv    tableView
		score float64
	}
	var result []tableView
	resp, err := p.client.Complete(llm.Request{
		Model:  p.cfg.GenerateModel,
		Prompt: prompt,
		Policy: llm.TruncateHead,
		Task: func(prompt string, m llm.Model, rng *llm.Rand) (string, error) {
			qStems := stemsWithSynonyms(question)
			var ranked []scored
			for _, tv := range visible {
				s := relevanceScore(tv, qStems)
				ranked = append(ranked, scored{tv, s})
			}
			sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].score > ranked[j].score })
			var kept []tableView
			var names []string
			for i, r := range ranked {
				if r.score <= 0 && i > 0 {
					continue
				}
				// Capability-gated pruning mistake on borderline tables.
				if i >= 2 && r.score < 0.5 && rng.Chance((1-m.Capability)*0.4) {
					continue
				}
				kept = append(kept, r.tv)
				names = append(names, r.tv.Table.Name)
			}
			if len(kept) == 0 && len(ranked) > 0 {
				kept = append(kept, ranked[0].tv)
				names = append(names, ranked[0].tv.Table.Name)
			}
			result = kept
			return "kept: " + strings.Join(names, ", "), nil
		},
	})
	if err != nil {
		return nil, 0, err
	}
	// Restore schema order for deterministic downstream iteration.
	orderOf := make(map[string]int)
	for i, tv := range visible {
		orderOf[tv.Table.Name] = i
	}
	sort.SliceStable(result, func(i, j int) bool {
		return orderOf[result[i].Table.Name] < orderOf[result[j].Table.Name]
	})
	return result, resp.PromptTokens + resp.CompletionTokens, nil
}

// relevanceScore measures question-table affinity over table name, column
// names, documented full names and documented value meanings.
func relevanceScore(tv tableView, qStems map[string]bool) float64 {
	score := 0.0
	for _, w := range normalizeIdent(tv.Table.Name) {
		if qStems[stem(w)] {
			score += 1.0
		}
	}
	for _, col := range tv.Table.Columns {
		for _, w := range normalizeIdent(col.Name) {
			if qStems[stem(w)] {
				score += 0.5
			}
		}
	}
	if tv.Doc != nil {
		for _, cd := range tv.Doc.Columns {
			for _, w := range contentWords(cd.FullName) {
				if qStems[stem(w)] {
					score += 0.5
				}
			}
			for _, meaning := range cd.ValueMap {
				for _, w := range contentWords(meaning) {
					if qStems[stem(w)] {
						score += 0.4
					}
				}
			}
			if cd.Range != "" {
				for _, w := range contentWords(cd.Range) {
					if qStems[stem(w)] {
						score += 0.2
					}
				}
			}
		}
	}
	return score
}

// --- Stage 4: few-shot selection (paper §III-C) ---

// Shot is one training exemplar placed in the generation prompt.
type Shot struct {
	// Question is the exemplar's natural-language question.
	Question string
	// Evidence is the exemplar's gold evidence string.
	Evidence string
	// Summarized marks exemplars passed through the deepseek variant's
	// second summarization pass.
	Summarized bool
}

// SelectFewShots picks the most similar training question overall, then
// fills up with the most similar questions from the same database, using
// embedding cosine similarity as in the paper (all-mpnet-base-v2 there,
// the deterministic embedder here).
func (p *Pipeline) SelectFewShots(question, dbName string) []Shot {
	k := p.cfg.FewShot
	if k <= 0 {
		k = 5
	}
	if len(p.corpus.Train) == 0 {
		return nil
	}
	// One pass scores every train question, four per Dot4; the overall
	// best and the same-database candidates both come from it.
	qv := p.embedder.Embed(question)
	type cand struct {
		idx int
		sim float64
	}
	cands := make([]cand, 0, len(p.trainByDB[dbName]))
	bestIdx, bestSim := -1, -2.0
	visit := func(i int, sim float64) {
		if sim > bestSim {
			bestSim = sim
			bestIdx = i
		}
		if p.corpus.Train[i].DB == dbName {
			cands = append(cands, cand{i, sim})
		}
	}
	vecs := p.trainVecs
	i := 0
	for ; i+4 <= len(vecs); i += 4 {
		s0, s1, s2, s3 := qv.Dot4(&vecs[i], &vecs[i+1], &vecs[i+2], &vecs[i+3])
		visit(i, s0)
		visit(i+1, s1)
		visit(i+2, s2)
		visit(i+3, s3)
	}
	for ; i < len(vecs); i++ {
		visit(i, qv.Dot(&vecs[i]))
	}
	chosen := []int{bestIdx}
	// The overall best is chosen already and may be on this database too.
	for j, c := range cands {
		if c.idx == bestIdx {
			cands = append(cands[:j], cands[j+1:]...)
			break
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].sim != cands[b].sim {
			return cands[a].sim > cands[b].sim
		}
		return cands[a].idx < cands[b].idx
	})
	for _, c := range cands {
		if len(chosen) >= k {
			break
		}
		chosen = append(chosen, c.idx)
	}
	shots := make([]Shot, 0, len(chosen))
	for _, i := range chosen {
		ex := p.corpus.Train[i]
		shots = append(shots, Shot{Question: ex.Question, Evidence: ex.CleanEvidence})
	}
	return shots
}

// summarizeShots is the deepseek variant's second summarization: exemplars
// are reduced to their evidence lines (question text trimmed) to fit the
// 8,192-token window.
func summarizeShots(shots []Shot) []Shot {
	out := make([]Shot, len(shots))
	for i, s := range shots {
		q := s.Question
		words := strings.Fields(q)
		if len(words) > 8 {
			q = strings.Join(words[:8], " ") + " ..."
		}
		out[i] = Shot{Question: q, Evidence: s.Evidence, Summarized: true}
	}
	return out
}
