package sqlengine

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null should be null")
	}
	if Int(3).AsFloat() != 3.0 {
		t.Error("Int AsFloat")
	}
	if Float(2.5).AsInt() != 2 {
		t.Error("Float AsInt truncates")
	}
	if Text("7").AsInt() != 7 {
		t.Error("Text AsInt parses")
	}
	if Text("x").AsFloat() != 0 {
		t.Error("non-numeric text is 0")
	}
	if Bool(true).I != 1 || Bool(false).I != 0 {
		t.Error("Bool encoding")
	}
	if Float(4).AsText() != "4.0" {
		t.Errorf("integral REAL renders with .0, got %q", Float(4).AsText())
	}
}

// TestValueLayout pins a Value at four words: Kind, the word an INTEGER and
// a REAL share, and the string header. Every table cell is one.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("Value is %d bytes, want 32", got)
	}
}

// TestColumnLayout pins a column's header at 112 bytes: every column of a
// result pays for it, a one-row aggregate's included, so a coded column's
// codes and dictionary sit behind one pointer and do not widen it.
func TestColumnLayout(t *testing.T) {
	if got := unsafe.Sizeof(column{}); got > 112 {
		t.Fatalf("column is %d bytes, want at most 112", got)
	}
}

// pinReals are the REALs whose readings TestRealReadings pins: both zeros,
// NaN, both infinities, the extremes of float64 and two inexact values.
var pinReals = []float64{
	math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, math.SmallestNonzeroFloat64, 1<<53 + 1, 0.1,
}

// TestRealReadings pins what a REAL means to every reader of its word: the
// bits Real returns, its text, Key, coarseKey, sort word, and coerce into
// each column type. The expectations were recorded when a REAL still had a
// float64 field of its own.
func TestRealReadings(t *testing.T) {
	want := []struct {
		text, key, coarse string
		word              uint64
		wordOK            bool
		asInt, asReal     string // coerce into an INTEGER and a REAL column: kind and String
		asText            string
	}{
		{"-0.0", "i0", "N0p-1074", 0x8000000000000000, true, "INTEGER 0", "REAL -0.0", "TEXT '-0.0'"},
		{"0.0", "i0", "N0p-1074", 0x8000000000000000, true, "INTEGER 0", "REAL 0.0", "TEXT '0.0'"},
		{"NaN", "fNaN", "NNaN", 0x0, false, "REAL NaN", "REAL NaN", "TEXT 'NaN'"},
		{"Inf", "f+Inf", "N+Inf", 0xfff0000000000000, true, "REAL Inf", "REAL Inf", "TEXT 'Inf'"},
		{"-Inf", "f-Inf", "N-Inf", 0xfffffffffffff, true, "REAL -Inf", "REAL -Inf", "TEXT '-Inf'"},
		{"1.7976931348623157e+308", "f9007199254740991p+971", "N9007199254740991p+971", 0xffefffffffffffff, true, "REAL 1.7976931348623157e+308", "REAL 1.7976931348623157e+308", "TEXT '1.7976931348623157e+308'"},
		{"5e-324", "f1p-1074", "N1p-1074", 0x8000000000000001, true, "REAL 5e-324", "REAL 5e-324", "TEXT '5e-324'"},
		{"9.007199254740992e+15", "f4503599627370496p+1", "N4503599627370496p+1", 0xc340000000000000, true, "INTEGER 9007199254740992", "REAL 9.007199254740992e+15", "TEXT '9.007199254740992e+15'"},
		{"0.1", "f7205759403792794p-56", "N7205759403792794p-56", 0xbfb999999999999a, true, "REAL 0.1", "REAL 0.1", "TEXT '0.1'"},
	}
	coerced := func(v Value, typ string) string {
		c := coerce(v, typ)
		return c.Kind.String() + " " + c.String()
	}
	for i, f := range pinReals {
		v, w := Float(f), want[i]
		if v.Kind != KindFloat || math.Float64bits(v.Real()) != math.Float64bits(f) {
			t.Errorf("Float(%v) reads back kind %v bits %#x, want REAL bits %#x", f, v.Kind, math.Float64bits(v.Real()), math.Float64bits(f))
		}
		if got := v.AsText(); got != w.text {
			t.Errorf("Float(%v).AsText() = %q, want %q", f, got, w.text)
		}
		if got := string(v.AppendText([]byte("x"))); got != "x"+w.text {
			t.Errorf("Float(%v).AppendText = %q, want %q", f, got, "x"+w.text)
		}
		if got := v.Key(); got != w.key {
			t.Errorf("Float(%v).Key() = %q, want %q", f, got, w.key)
		}
		if got := string(v.AppendKey([]byte("x"))); got != "x"+w.key {
			t.Errorf("Float(%v).AppendKey = %q, want %q", f, got, "x"+w.key)
		}
		if got := string(coarseKey(nil, v)); got != w.coarse {
			t.Errorf("coarseKey(Float(%v)) = %q, want %q", f, got, w.coarse)
		}
		if word, ok := sortWord(v); word != w.word || ok != w.wordOK {
			t.Errorf("sortWord(Float(%v)) = %#x, %v; want %#x, %v", f, word, ok, w.word, w.wordOK)
		}
		if got := coerced(v, "INTEGER"); got != w.asInt {
			t.Errorf("coerce(Float(%v), INTEGER) = %s, want %s", f, got, w.asInt)
		}
		if got := coerced(v, "REAL"); got != w.asReal {
			t.Errorf("coerce(Float(%v), REAL) = %s, want %s", f, got, w.asReal)
		}
		if got := coerced(v, "TEXT"); got != w.asText {
			t.Errorf("coerce(Float(%v), TEXT) = %s, want %s", f, got, w.asText)
		}
	}
}

// TestRealCompare pins Compare among the pinReals and against other kinds
// (NULL, 0, 1, MaxInt64, MinInt64, the text '0' and the empty text): row
// i is Float(pinReals[i]) against each, as <, = or >. NaN compares equal
// to every number.
func TestRealCompare(t *testing.T) {
	reals := []string{
		"===<><<<<",
		"===<><<<<",
		"=========",
		">>==>>>>>",
		"<<=<=<<<<",
		">>=<>=>>>",
		">>=<><=<<",
		">>=<><>=>",
		">>=<><><=",
	}
	others := []string{
		">=<<><<",
		">=<<><<",
		">====<<",
		">>>>><<",
		"><<<<<<",
		">>>>><<",
		">><<><<",
		">>><><<",
		">><<><<",
	}
	sign := func(c int) byte { return "<=>"[c+1] }
	kinds := []Value{Null(), Int(0), Int(1), Int(math.MaxInt64), Int(math.MinInt64), Text("0"), Text("")}
	for i, a := range pinReals {
		var got, gotOther []byte
		for _, b := range pinReals {
			got = append(got, sign(Compare(Float(a), Float(b))))
		}
		for _, b := range kinds {
			gotOther = append(gotOther, sign(Compare(Float(a), b)))
		}
		if string(got) != reals[i] || string(gotOther) != others[i] {
			t.Errorf("Compare(Float(%v), ·) = %s | %s, want %s | %s", a, got, gotOther, reals[i], others[i])
		}
	}
	// Equal as numbers, not as structs: the word holds the sign bit.
	if negZero, zero := Float(math.Copysign(0, -1)), Float(0); negZero == zero || Compare(negZero, zero) != 0 {
		t.Error("-0.0 and 0.0 must differ as structs and Compare equal")
	}
}

// TestFloatToInt pins every float-to-integer conversion to SQLite's CAST:
// toward zero, NaN to 0, out-of-range values saturating. Go leaves int64(f)
// undefined there, and amd64 and arm64 answer differently.
func TestFloatToInt(t *testing.T) {
	cases := []struct {
		f    float64
		want int64
	}{
		{2.9, 2}, {-2.9, -2}, {math.Copysign(0, -1), 0},
		{math.NaN(), 0},
		{1e20, math.MaxInt64}, {0x1p63, math.MaxInt64}, {math.Inf(1), math.MaxInt64}, {math.MaxFloat64, math.MaxInt64},
		{-1e20, math.MinInt64}, {-0x1p63, math.MinInt64}, {math.Inf(-1), math.MinInt64},
		{0x1p62, 1 << 62}, {-0x1p62, -1 << 62},
	}
	for _, c := range cases {
		if got := floatToInt(c.f); got != c.want {
			t.Errorf("floatToInt(%v) = %d, want %d", c.f, got, c.want)
		}
		if got := Float(c.f).AsInt(); got != c.want {
			t.Errorf("Float(%v).AsInt() = %d, want %d", c.f, got, c.want)
		}
	}
	if got := Text("99999999999999999999").AsInt(); got != math.MaxInt64 {
		t.Errorf("overflowing integer text AsInt = %d, want MaxInt64", got)
	}
	if got := Text("-99999999999999999999").AsInt(); got != math.MinInt64 {
		t.Errorf("underflowing integer text AsInt = %d, want MinInt64", got)
	}
	// Only an integral REAL inside int64's range coerces to an INTEGER:
	// 2^63 does not, though it saturates to MaxInt64.
	for _, c := range []struct {
		f    float64
		want Value
	}{
		{-0x1p63, Int(math.MinInt64)}, {0x1p63, Float(0x1p63)}, {-1e20, Float(-1e20)},
		{math.Inf(1), Float(math.Inf(1))}, {3, Int(3)}, {3.5, Float(3.5)},
	} {
		if got := coerce(Float(c.f), "INTEGER"); got != c.want {
			t.Errorf("coerce(Float(%v), INTEGER) = %v %v, want %v %v", c.f, got.Kind, got, c.want.Kind, c.want)
		}
	}
}

func TestTruth(t *testing.T) {
	cases := []struct {
		v     Value
		truth bool
		known bool
	}{
		{Null(), false, false},
		{Int(0), false, true},
		{Int(5), true, true},
		{Float(0), false, true},
		{Float(0.1), true, true},
		{Text("0"), false, true},
		{Text("1"), true, true},
		{Text("abc"), false, true},
	}
	for _, c := range cases {
		tr, kn := c.v.Truth()
		if tr != c.truth || kn != c.known {
			t.Errorf("Truth(%v) = (%v,%v), want (%v,%v)", c.v, tr, kn, c.truth, c.known)
		}
	}
}

func TestCompareCrossKind(t *testing.T) {
	// NULL < numeric < text (SQLite ordering).
	if Compare(Null(), Int(0)) >= 0 {
		t.Error("NULL should sort before numbers")
	}
	if Compare(Int(999), Text("")) >= 0 {
		t.Error("numbers should sort before text")
	}
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("2 == 2.0")
	}
	if Compare(Text("a"), Text("B")) <= 0 {
		t.Error("text comparison must be case-sensitive byte order ('a' > 'B')")
	}
}

func TestDistinctEqualAndKey(t *testing.T) {
	if !DistinctEqual(Null(), Null()) {
		t.Error("NULL is distinct-equal to NULL")
	}
	if DistinctEqual(Null(), Int(0)) {
		t.Error("NULL != 0")
	}
	if Int(3).Key() != Float(3.0).Key() {
		t.Error("3 and 3.0 must share a grouping key")
	}
	if Int(3).Key() == Text("3").Key() {
		t.Error("3 and '3' must not share a grouping key")
	}
}

// Property: Compare is antisymmetric and consistent with Key equality.
func TestCompareProperties(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		c1, c2 := Compare(va, vb), Compare(vb, va)
		if c1 != -c2 {
			return false
		}
		if c1 == 0 != (va.Key() == vb.Key()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Equal is never known when either side is NULL.
func TestEqualNullProperty(t *testing.T) {
	f := func(s string) bool {
		_, known := Equal(Text(s), Null())
		_, known2 := Equal(Null(), Text(s))
		return !known && !known2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: text round-trips through Key uniquely.
func TestTextKeyInjective(t *testing.T) {
	f := func(a, b string) bool {
		return (a == b) == (Text(a).Key() == Text(b).Key())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"%", "", true},
		{"%", "anything", true},
		{"a%", "abc", true},
		{"%c", "abc", true},
		{"%b%", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "abbc", false},
		{"abc", "ABC", true}, // case-insensitive
		{"", "", true},
		{"", "x", false},
		{"%%", "x", true},
		{"x_", "x", false},
		{"POPLATEK%", "POPLATEK TYDNE", true},
		{"_", "é", true}, // one character, not one byte
		{"__", "é", false},
		{"a_%b", "aé€b", true},
		{"é", "É", false}, // only ASCII folds
		{"%\xa9", "é", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

// TestLikeMatchesSQLite pins LIKE to SQLite 3.51.2's answers for
// `SELECT 'é' LIKE '_', 'É' LIKE 'é', 'ABC' LIKE 'abc', 'straße' LIKE
// 'STRASSE', 'İ' LIKE 'i', 'K' LIKE 'k', '€' LIKE '_'` (1|0|1|0|0|1|1):
// '_' is one UTF-8 character and only ASCII letters fold. Each pair is
// asked as an expression on both executors, and as a pushed filter over a
// TEXT column, which a full scan filters through the column's vector.
func TestLikeMatchesSQLite(t *testing.T) {
	for _, c := range []struct {
		s, p string
		want int64
	}{
		{"é", "_", 1}, {"É", "é", 0}, {"ABC", "abc", 1}, {"straße", "STRASSE", 0},
		{"İ", "i", 0}, {"K", "k", 1}, {"€", "_", 1},
	} {
		db := NewDatabase("like")
		db.MustExec("CREATE TABLE w (s TEXT)")
		db.MustExec(fmt.Sprintf("INSERT INTO w VALUES ('%s')", c.s))
		for _, sql := range []string{
			fmt.Sprintf("SELECT '%s' LIKE '%s'", c.s, c.p),
			fmt.Sprintf("SELECT COUNT(*) FROM w WHERE s LIKE '%s'", c.p),
			fmt.Sprintf("SELECT 1 - COUNT(*) FROM w WHERE s NOT LIKE '%s'", c.p),
		} {
			st, err := db.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			for name, exec := range map[string]func() (*Result, error){"planned": st.Exec, "naive": st.ExecReference} {
				res, err := exec()
				if err != nil {
					t.Fatalf("%s %s: %v", name, sql, err)
				}
				if got := res.Rows.Cell(0, 0); got != Int(c.want) {
					t.Errorf("%s %s = %v, SQLite answers %d", name, sql, got, c.want)
				}
			}
		}
		if tab, _ := db.Table("w"); !tab.cols[0].typed() || tab.cols[0].kind != KindText {
			t.Errorf("'%s' LIKE '%s' filtered no typed TEXT column", c.s, c.p)
		}
	}
}

// Property: a string always matches itself as a pattern when it contains no
// wildcards, and always matches "%".
func TestLikeProperties(t *testing.T) {
	f := func(s string) bool {
		clean := ""
		for _, r := range s {
			if r != '%' && r != '_' && r < 128 {
				clean += string(r)
			}
		}
		return likeMatch(clean, clean) && likeMatch("%", clean)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
