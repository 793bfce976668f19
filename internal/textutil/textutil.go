// Package textutil provides the lexical text-processing primitives shared
// by the SEED pipeline and the text-to-SQL baselines: tokenisation,
// stop-word filtering, a light stemmer, Levenshtein edit distance, longest
// common substring, and character n-grams.
//
// Edit distance has one kernel, EditDistanceWithin: a single-row DP over
// a caller-owned buffer that may stop as soon as the distance is known to
// exceed a bound. EditDistance and Similarity are unbounded callers of it,
// and SEED's value matcher calls it with the largest distance that still
// scores.
//
// The SEED paper relies on these in two places: sample SQL execution uses
// LIKE patterns plus edit distance to find database values similar to
// question keywords (§III-B), and CodeS retrieves matched values with a
// combination of BM25 and the longest-common-substring method (§IV-C3).
package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// stopwords is a compact English stop-word list tuned for question text;
// schema-ish terms (count, number, ...) are deliberately kept.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "of": true, "in": true, "on": true,
	"at": true, "to": true, "for": true, "and": true, "or": true, "is": true,
	"are": true, "was": true, "were": true, "be": true, "been": true,
	"what": true, "which": true, "who": true, "whom": true, "whose": true,
	"how": true, "many": true, "much": true, "please": true, "list": true,
	"show": true, "give": true, "me": true, "all": true, "with": true,
	"that": true, "this": true, "those": true, "these": true, "do": true,
	"does": true, "did": true, "have": true, "has": true, "had": true,
	"by": true, "from": true, "as": true, "their": true, "there": true,
	"than": true, "then": true, "it": true, "its": true, "down": true,
	"out": true, "between": true, "among": true, "per": true, "each": true,
	"least": true, "most": true, "more": true, "name": true, "names": true,
}

// Tokenize lower-cases s and splits it into alphanumeric word tokens.
// Punctuation separates tokens; digits stay attached to adjacent letters
// only when contiguous (so "TR024" stays one token). The tokens are
// substrings of one lower-cased copy of s, so a caller that keeps one
// beyond the call should clone it rather than pin the whole text.
func Tokenize(s string) []string {
	// strings.ToLower returns valid UTF-8 (each invalid byte becomes
	// U+FFFD), so a token sliced out of it holds exactly the runes a
	// rune-by-rune copy would.
	lower := strings.ToLower(s)
	var out []string
	start := -1
	for i, r := range lower {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			out = append(out, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, lower[start:])
	}
	return out
}

// ContentWords tokenises s and removes stop words.
func ContentWords(s string) []string {
	var out []string
	for _, w := range Tokenize(s) {
		if !stopwords[w] {
			out = append(out, w)
		}
	}
	return out
}

// IsStopword reports whether the lower-case token w is a stop word.
func IsStopword(w string) bool { return stopwords[strings.ToLower(w)] }

// synonymTable is a compact world-knowledge dictionary: the lexical
// equivalences an LLM brings to value matching (the paper's Table III
// synonym-knowledge category: "female refers to gender = 'F'" answers a
// question about "women").
var synonymTable = map[string][]string{
	"women":     {"female", "f"},
	"woman":     {"female", "f"},
	"girls":     {"female", "f"},
	"ladies":    {"female", "f"},
	"female":    {"f", "women"},
	"men":       {"male", "m"},
	"man":       {"male", "m"},
	"boys":      {"male", "m"},
	"gentlemen": {"male", "m"},
	"male":      {"m", "men"},
	"weekly":    {"week"},
	"monthly":   {"month"},
	"yearly":    {"year", "annual"},
	"annual":    {"year", "yearly"},
	"official":  {"true", "t"},
	"full":      {"true", "t"},
	"biggest":   {"largest", "most"},
	"debt":      {"owing"},
}

// Synonyms returns known lexical equivalents of the lower-cased word, or
// nil when none are recorded.
func Synonyms(w string) []string { return synonymTable[strings.ToLower(w)] }

// Stem applies a light suffix-stripping stemmer sufficient for matching
// question words against schema identifiers (schools -> school,
// opened -> open, issuing -> issu).
func Stem(w string) string {
	w = strings.ToLower(w)
	switch {
	case len(w) > 4 && strings.HasSuffix(w, "ies"):
		return w[:len(w)-3] + "y"
	case len(w) > 3 && strings.HasSuffix(w, "ing"):
		return w[:len(w)-3]
	case len(w) > 3 && strings.HasSuffix(w, "ed"):
		return w[:len(w)-2]
	case len(w) > 3 && strings.HasSuffix(w, "es"):
		return w[:len(w)-2]
	case len(w) > 2 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss"):
		return w[:len(w)-1]
	default:
		return w
	}
}

// EditDistance computes the Levenshtein distance between a and b over
// runes (unit costs, O(len(a)*len(b))). It is EditDistanceWithin without a
// bound.
func EditDistance(a, b string) int {
	var row [64]int
	return EditDistanceWithin(a, b, -1, row[:])
}

// EditDistanceWithin is the package's one edit-distance kernel: the
// unit-cost Levenshtein distance between a and b over runes (an invalid
// UTF-8 byte counts as one U+FFFD, as in a []rune conversion), computed
// with a single DP row and no allocation when row holds at least
// RuneCount(b)+1 ints.
//
// A bound >= 0 lets the kernel stop early: once every cell of a DP row
// exceeds bound, the distance does too (row minima never decrease), and
// the kernel returns bound+1. So the result is exact when it is <= bound
// and only "more than bound" otherwise. A negative bound computes the
// full distance.
func EditDistanceWithin(a, b string, bound int, row []int) int {
	n := utf8.RuneCountInString(b)
	if len(row) < n+1 {
		row = make([]int, n+1)
	}
	row = row[:n+1]
	for j := range row {
		row[j] = j
	}
	i := 0
	for _, ra := range a {
		i++
		diag := row[0]
		row[0] = i
		rowMin := i
		j := 0
		for _, rb := range b {
			j++
			up := row[j]
			v := diag
			if ra != rb {
				v++
			}
			if up+1 < v {
				v = up + 1
			}
			if row[j-1]+1 < v {
				v = row[j-1] + 1
			}
			row[j] = v
			diag = up
			if v < rowMin {
				rowMin = v
			}
		}
		if bound >= 0 && rowMin > bound {
			return bound + 1
		}
	}
	return row[n]
}

// Similarity converts edit distance to a [0,1] similarity:
// 1 - dist/max(len). Case-insensitive. Empty-vs-empty is 1.
func Similarity(a, b string) float64 {
	a, b = strings.ToLower(a), strings.ToLower(b)
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	if la == 0 && lb == 0 {
		return 1
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	var row [64]int
	return 1 - float64(EditDistanceWithin(a, b, -1, row[:]))/float64(maxLen)
}

// LongestCommonSubstring returns the longest contiguous substring common to
// a and b (case-insensitive), together with its length in runes.
func LongestCommonSubstring(a, b string) (string, int) {
	ra := []rune(strings.ToLower(a))
	rb := []rune(strings.ToLower(b))
	if len(ra) == 0 || len(rb) == 0 {
		return "", 0
	}
	best, bestEnd := 0, 0
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			if ra[i-1] == rb[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
					bestEnd = i
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	return string(ra[bestEnd-best : bestEnd]), best
}

// NGrams returns the character n-grams of s (lower-cased, including
// word-boundary markers) used by the embedding substrate. The grams are
// substrings of one padded, lower-cased copy of s, which is valid UTF-8
// (see Tokenize), so each is exactly its n runes.
func NGrams(s string, n int) []string {
	if n <= 0 {
		return nil
	}
	padded := " " + strings.ToLower(s) + " "
	runes := utf8.RuneCountInString(padded)
	if runes < n {
		return []string{padded}
	}
	out := make([]string, 0, runes-n+1)
	end := 0
	for range n {
		_, w := utf8.DecodeRuneInString(padded[end:])
		end += w
	}
	for start := 0; ; {
		out = append(out, padded[start:end])
		if end == len(padded) {
			return out
		}
		_, w := utf8.DecodeRuneInString(padded[start:])
		start += w
		_, w = utf8.DecodeRuneInString(padded[end:])
		end += w
	}
}

// NormalizeIdent splits a schema identifier (CamelCase, snake_case or
// space-separated) into lower-case words, so "FreeMealCount" and
// "free_meal_count" both become ["free" "meal" "count"].
func NormalizeIdent(ident string) []string {
	var words []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			words = append(words, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	runes := []rune(ident)
	for i, r := range runes {
		switch {
		case r == '_' || r == ' ' || r == '-' || r == '.':
			flush()
		case unicode.IsUpper(r):
			// Boundary before an upper-case letter that follows a lower-case
			// letter or precedes a lower-case letter in an acronym run.
			if i > 0 && (unicode.IsLower(runes[i-1]) ||
				(i+1 < len(runes) && unicode.IsLower(runes[i+1]) && unicode.IsUpper(runes[i-1]))) {
				flush()
			}
			cur.WriteRune(r)
		default:
			// Letter/digit boundary.
			if i > 0 && unicode.IsDigit(r) != unicode.IsDigit(runes[i-1]) && cur.Len() > 0 {
				flush()
			}
			cur.WriteRune(r)
		}
	}
	flush()
	return words
}
