// Package evidence models BIRD-style evidence strings: semicolon-separated
// clauses such as "weekly issuance refers to frequency = 'POPLATEK TYDNE'".
// It parses them into structured clauses, classifies them into BIRD's four
// knowledge categories, extracts the SQL-fragment payloads that text-to-SQL
// generators consume, and supports the join-clause stripping behind the
// paper's SEED_revised variant (Table VI/VII).
package evidence

import (
	"strings"

	"repro/internal/textutil"
)

// Clause is one parsed evidence clause.
type Clause struct {
	// Term is the natural-language side ("weekly issuance").
	Term string
	// Body is the database side ("frequency = 'POPLATEK TYDNE'").
	Body string
	// Join marks join-path clauses ("join on a.x = b.x"), the format
	// difference between SEED_deepseek and BIRD evidence.
	Join bool
}

// Category names for Categorize, following BIRD's taxonomy (paper §II-A).
const (
	CategoryNumeric      = "numeric-reasoning"
	CategoryDomain       = "domain"
	CategorySynonym      = "synonym"
	CategoryValue        = "value-illustration"
	CategoryJoin         = "join-path"
	CategoryUnclassified = "unclassified"
)

// Parse splits an evidence string into clauses. Recognised shapes:
//
//	"<term> refers to <body>"
//	"<body> means <term>"
//	"<body> stands for <term>"
//	"join on <body>"
//
// Anything else becomes a term-less clause carrying the raw text as Body.
func Parse(ev string) []Clause {
	var out []Clause
	for _, raw := range strings.Split(ev, ";") {
		part := strings.TrimSpace(raw)
		if part == "" {
			continue
		}
		lower := strings.ToLower(part)
		switch {
		case strings.HasPrefix(lower, "join on "):
			out = append(out, Clause{Body: strings.TrimSpace(part[len("join on "):]), Join: true})
		case strings.Contains(part, " refers to "):
			i := strings.Index(part, " refers to ")
			out = append(out, Clause{
				Term: strings.TrimSpace(part[:i]),
				Body: strings.TrimSpace(part[i+len(" refers to "):]),
			})
		case strings.Contains(part, " stands for "):
			i := strings.Index(part, " stands for ")
			out = append(out, Clause{
				Term: strings.TrimSpace(part[i+len(" stands for "):]),
				Body: strings.TrimSpace(part[:i]),
			})
		case strings.Contains(part, " means "):
			i := strings.Index(part, " means ")
			out = append(out, Clause{
				Term: strings.TrimSpace(part[i+len(" means "):]),
				Body: strings.TrimSpace(part[:i]),
			})
		default:
			out = append(out, Clause{Body: part})
		}
	}
	return out
}

// String renders the clause back to BIRD's canonical shape.
func (c Clause) String() string {
	if c.Join {
		return "join on " + c.Body
	}
	if c.Term == "" {
		return c.Body
	}
	return c.Term + " refers to " + c.Body
}

// Compose joins clauses back into an evidence string.
func Compose(clauses []Clause) string {
	parts := make([]string, 0, len(clauses))
	for _, c := range clauses {
		parts = append(parts, c.String())
	}
	return strings.Join(parts, "; ")
}

// HasJoins reports whether the evidence contains any join-path clause.
func HasJoins(ev string) bool {
	for _, c := range Parse(ev) {
		if c.Join {
			return true
		}
	}
	return false
}

// ValueLiteral extracts the literal from an equality-shaped body like
// "frequency = 'POPLATEK TYDNE'" or "Magnet = 1". The literal keeps its
// quoting so it can be substituted into a SQL value slot directly.
func (c Clause) ValueLiteral() (string, bool) {
	i := strings.LastIndex(c.Body, "=")
	if i < 0 {
		return "", false
	}
	// Reject inequality bodies (>=, <=, !=): those are predicates.
	if i > 0 && (c.Body[i-1] == '>' || c.Body[i-1] == '<' || c.Body[i-1] == '!') {
		return "", false
	}
	lit := strings.TrimSpace(c.Body[i+1:])
	if lit == "" {
		return "", false
	}
	return lit, true
}

// ColumnSide extracts the column reference from an equality-shaped body,
// or the whole body when there is no equals sign (already a bare column).
func (c Clause) ColumnSide() string {
	i := strings.IndexAny(c.Body, "=<>")
	if i < 0 {
		return strings.TrimSpace(c.Body)
	}
	return strings.TrimSpace(c.Body[:i])
}

// Categorize assigns the clause to a BIRD knowledge category.
func Categorize(c Clause) string {
	if c.Join {
		return CategoryJoin
	}
	body := c.Body
	if strings.ContainsAny(body, "+*/") || strings.Contains(body, " - ") {
		return CategoryNumeric
	}
	if strings.Contains(body, ">") || strings.Contains(body, "<") {
		return CategoryDomain
	}
	if lit, ok := c.ValueLiteral(); ok {
		val := strings.Trim(lit, "'")
		// Synonym when the term and the stored value are lexically close
		// ("female" -> 'F', "restricted" -> 'Restricted') or related
		// through the world-knowledge dictionary ("women" -> 'F'); value
		// illustration when they are unrelated codes.
		for _, w := range textutil.ContentWords(c.Term) {
			candidates := append([]string{w}, textutil.Synonyms(w)...)
			for _, cand := range candidates {
				if textutil.Similarity(cand, val) >= 0.5 {
					return CategorySynonym
				}
				if len(val) == 1 && strings.HasPrefix(cand, strings.ToLower(val)) {
					return CategorySynonym
				}
			}
		}
		return CategoryValue
	}
	if c.Term == "" {
		return CategoryUnclassified
	}
	return CategoryValue
}

// BestMatch finds the clause whose term best matches the given phrase,
// requiring a minimum token-level similarity. It is the lookup generators
// perform when resolving a knowledge atom from provided evidence.
func BestMatch(clauses []Clause, phrase string, minScore float64) (Clause, bool) {
	best := -1
	bestScore := 0.0
	for i, c := range clauses {
		if c.Join || c.Term == "" {
			continue
		}
		s := termSimilarity(phrase, c.Term)
		if s > bestScore {
			bestScore = s
			best = i
		}
	}
	if best < 0 || bestScore < minScore {
		return Clause{}, false
	}
	return clauses[best], true
}

// termSimilarity scores two phrases by stemmed-token overlap with a fuzzy
// fallback for near-miss tokens (typos) and world-knowledge synonym
// expansion ("official" matches a clause termed "true").
func termSimilarity(a, b string) float64 {
	ta := stemGroups(a)
	tb := stemGroups(b)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	matched := 0
	for _, x := range ta {
		if groupsMatch(x, tb) {
			matched++
		}
	}
	da := float64(matched) / float64(len(ta))
	// Also require the clause term to be mostly covered, so a one-word
	// overlap with a long unrelated term does not win.
	matchedB := 0
	for _, y := range tb {
		if groupsMatch(y, ta) {
			matchedB++
		}
	}
	db := float64(matchedB) / float64(len(tb))
	return (da + db) / 2
}

// stemGroups maps each content word to the stem set of itself plus its
// synonyms.
func stemGroups(s string) [][]string {
	words := textutil.ContentWords(s)
	out := make([][]string, 0, len(words))
	for _, w := range words {
		group := []string{textutil.Stem(w)}
		for _, syn := range textutil.Synonyms(w) {
			group = append(group, textutil.Stem(syn))
		}
		out = append(out, group)
	}
	return out
}

// groupsMatch reports whether any stem of group x matches (exactly or
// fuzzily) any stem of any group in ys.
func groupsMatch(x []string, ys [][]string) bool {
	for _, y := range ys {
		for _, xs := range x {
			for _, yst := range y {
				if xs == yst || textutil.Similarity(xs, yst) >= 0.75 {
					return true
				}
			}
		}
	}
	return false
}

// CategoryCensus tallies clause categories across many evidence strings —
// the data behind the Table III breakdown.
func CategoryCensus(evidences []string) map[string]int {
	out := make(map[string]int)
	for _, ev := range evidences {
		for _, c := range Parse(ev) {
			out[Categorize(c)]++
		}
	}
	return out
}
