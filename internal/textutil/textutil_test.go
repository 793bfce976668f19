package textutil

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"How many cards?", []string{"how", "many", "cards"}},
		{"molecule TR024", []string{"molecule", "tr024"}},
		{"POPLATEK TYDNE", []string{"poplatek", "tydne"}},
		{"", nil},
		{"a-b_c", []string{"a", "b_c"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestContentWords(t *testing.T) {
	got := ContentWords("How many clients opened their accounts in the Jesenik branch?")
	for _, w := range got {
		if stopwords[w] {
			t.Errorf("stopword %q leaked through", w)
		}
	}
	joined := strings.Join(got, " ")
	for _, want := range []string{"clients", "accounts", "jesenik", "branch"} {
		if !strings.Contains(joined, want) {
			t.Errorf("ContentWords missing %q: %v", want, got)
		}
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"schools":  "school",
		"opened":   "open",
		"issuing":  "issu",
		"cities":   "city",
		"boxes":    "box",
		"class":    "class",
		"magnet":   "magnet",
		"accounts": "account",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"restricted", "Restricted", 1},
		{"same", "same", 0},
		{"fremont", "freemont", 1},
	}
	for _, c := range cases {
		if got := EditDistanceWithin(c.a, c.b, -1, nil); got != c.want {
			t.Errorf("EditDistanceWithin(%q, %q, -1, nil) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Metric properties of edit distance: identity, symmetry, triangle
// inequality (on short strings to keep quick fast).
func TestEditDistanceMetricProperties(t *testing.T) {
	clip := func(s string) string {
		if len(s) > 12 {
			return s[:12]
		}
		return s
	}
	f := func(a, b, c string) bool {
		a, b, c = clip(a), clip(b), clip(c)
		dist := func(x, y string) int { return EditDistanceWithin(x, y, -1, nil) }
		dab := dist(a, b)
		dba := dist(b, a)
		if dab != dba {
			return false
		}
		if dist(a, a) != 0 {
			return false
		}
		return dist(a, c) <= dab+dist(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSimilarity(t *testing.T) {
	if Similarity("abc", "abc") != 1 {
		t.Error("identical strings have similarity 1")
	}
	if Similarity("", "") != 1 {
		t.Error("empty-empty similarity is 1")
	}
	if s := Similarity("Fremont", "fremont"); s != 1 {
		t.Errorf("case-insensitive similarity: %v", s)
	}
	if s := Similarity("abc", "xyz"); s != 0 {
		t.Errorf("disjoint similarity = %v, want 0", s)
	}
}

func TestSimilarityBounds(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 10 {
			a = a[:10]
		}
		if len(b) > 10 {
			b = b[:10]
		}
		s := Similarity(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLongestCommonSubstring(t *testing.T) {
	s, n := LongestCommonSubstring("POPLATEK TYDNE", "weekly POPLATEK")
	if s != "poplatek" || n != 8 {
		t.Errorf("LCS = %q/%d, want poplatek/8", s, n)
	}
	_, n = LongestCommonSubstring("", "abc")
	if n != 0 {
		t.Errorf("LCS with empty = %d", n)
	}
	s, n = LongestCommonSubstring("abc", "abc")
	if s != "abc" || n != 3 {
		t.Errorf("LCS identical = %q/%d", s, n)
	}
}

// LCS length is bounded by both input lengths and the result is a substring
// of both (case-insensitively).
func TestLCSProperties(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 15 {
			a = a[:15]
		}
		if len(b) > 15 {
			b = b[:15]
		}
		s, n := LongestCommonSubstring(a, b)
		la, lb := len([]rune(strings.ToLower(a))), len([]rune(strings.ToLower(b)))
		if n > la || n > lb {
			return false
		}
		if n == 0 {
			return s == ""
		}
		return strings.Contains(strings.ToLower(a), s) && strings.Contains(strings.ToLower(b), s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeIdent(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"FreeMealCount", []string{"free", "meal", "count"}},
		{"free_meal_count", []string{"free", "meal", "count"}},
		{"Free Meal Count", []string{"free", "meal", "count"}},
		{"CDSCode", []string{"cds", "code"}},
		{"eye_colour_id", []string{"eye", "colour", "id"}},
		{"NumTstTakr", []string{"num", "tst", "takr"}},
		{"HCT", []string{"hct"}},
	}
	for _, c := range cases {
		if got := NormalizeIdent(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("NormalizeIdent(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// editDistanceRef is the two-row, []rune, allocating DP the unbounded edit
// distance ran before the bounded kernel: the reference the kernel is checked against.
func editDistanceRef(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// kernelAlphabet mixes ASCII with multi-byte runes, an invalid UTF-8 byte
// and U+FFFD (which an invalid byte decodes to), so random strings cover
// every way a byte and a rune DP could disagree.
var kernelAlphabet = []string{"a", "b", "c", "A", " ", "é", "É", "ß", "İ", "\xff", "�", "日"}

func kernelString(picks []uint8, ascii bool) string {
	var b strings.Builder
	for _, p := range picks {
		if ascii {
			b.WriteByte('a' + p%4)
		} else {
			b.WriteString(kernelAlphabet[int(p)%len(kernelAlphabet)])
		}
	}
	return b.String()
}

// TestEditDistanceWithinMatchesFullDP checks the bounded kernel against
// the full reference DP at every cutoff, over random ASCII and non-ASCII
// strings: exact whenever the distance is within the bound, above the
// bound otherwise, and exact with no bound. A short row forces the
// kernel's own allocation path.
func TestEditDistanceWithinMatchesFullDP(t *testing.T) {
	f := func(pa, pb []uint8, ascii bool) bool {
		a, b := kernelString(pa, ascii), kernelString(pb, ascii)
		want := editDistanceRef(a, b)
		if EditDistanceWithin(a, b, -1, nil) != want {
			t.Logf("unbounded %q %q: want %d", a, b, want)
			return false
		}
		var buf [64]int
		for bound := 0; bound <= want+2; bound++ {
			for _, row := range [][]int{buf[:], buf[:1]} {
				got := EditDistanceWithin(a, b, bound, row)
				if want <= bound && got != want || want > bound && got <= bound {
					t.Logf("EditDistanceWithin(%q, %q, %d) = %d, full DP %d", a, b, bound, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Reference Similarity, before it called the kernel: the same float64
	// expression over the reference distance.
	simRef := func(a, b string) float64 {
		a, b = strings.ToLower(a), strings.ToLower(b)
		la, lb := len([]rune(a)), len([]rune(b))
		if la == 0 && lb == 0 {
			return 1
		}
		return 1 - float64(editDistanceRef(a, b))/float64(max(la, lb))
	}
	g := func(pa, pb []uint8) bool {
		a, b := kernelString(pa, false), kernelString(pb, false)
		return math.Float64bits(Similarity(a, b)) == math.Float64bits(simRef(a, b))
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestEditDistanceWithinAllocationFree pins the kernel's point: with a
// caller-owned row it allocates nothing, bounded or not.
func TestEditDistanceWithinAllocationFree(t *testing.T) {
	var row [64]int
	for _, c := range [][2]string{{"jesennik", "jesenik"}, {"École", "ecole"}, {"weekly issuance", "poplatek tydne"}} {
		if n := testing.AllocsPerRun(50, func() { EditDistanceWithin(c[0], c[1], 2, row[:]) }); n != 0 {
			t.Errorf("EditDistanceWithin(%q, %q) allocates %.0f times", c[0], c[1], n)
		}
		if n := testing.AllocsPerRun(50, func() { EditDistanceWithin(c[0], c[1], -1, row[:]) }); n != 0 {
			t.Errorf("EditDistanceWithin(%q, %q, -1) allocates %.0f times", c[0], c[1], n)
		}
	}
}

// builderTokenize is Tokenize as it was written before tokens were sliced
// out of the lower-cased text: each token built rune by rune. It is the
// reference Tokenize must equal.
func builderTokenize(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range strings.ToLower(s) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// tokenizeSeeds are the inputs where slicing and building could part:
// invalid UTF-8 (each bad byte is one U+FFFD to a rune range), a capital
// whose lower case is shorter in bytes (İ), combining marks (not letters,
// so separators), digits, underscores, and a token running to the end.
var tokenizeSeeds = []string{
	"", " ", "How many cards?", "molecule TR024", "a-b_c", "__x__",
	"\xff", "ab\xffcd", "\xe2\x82", "ok\xed\xa0\x80ok", "x\xc3",
	"İstanbul İİ", "ÉCOLE école", "école", "á́b",
	"12 34ab 5_6", "日本語 テキスト", "ǅemal ǲ", "ẞ straße", "end_",
	" nbsp sep", "KK", "ΣΑΣ",
}

// checkTokenize holds Tokenize to its builder reference.
func checkTokenize(t *testing.T, s string) {
	t.Helper()
	if got, want := Tokenize(s), builderTokenize(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
	}
}

// TestTokenizeMatchesBuilder: the sliced Tokenize equals the rune-by-rune
// builder it replaced, on the seeds and on random strings
// over a mixed alphabet.
func TestTokenizeMatchesBuilder(t *testing.T) {
	for _, s := range tokenizeSeeds {
		checkTokenize(t, s)
	}
	alphabet := []string{"a", "Z", "7", "_", " ", "-", "İ", "é", "́", "\xff", "\xe2\x82", "Σ", "日", " "}
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		checkTokenize(t, b.String())
	}
}

// FuzzTokenize holds Tokenize to its builder reference over arbitrary
// bytes.
func FuzzTokenize(f *testing.F) {
	for _, s := range tokenizeSeeds {
		f.Add(s)
	}
	f.Fuzz(checkTokenize)
}
