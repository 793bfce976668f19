package sqlengine

import (
	"strings"
	"testing"
)

func TestTokenizeBasics(t *testing.T) {
	toks, err := tokenize("SELECT a, b FROM t WHERE x = 'it''s' AND y >= 3.5 -- comment\n LIMIT 10")
	if err != nil {
		t.Fatalf("tokenize: %v", err)
	}
	var kinds []tokenType
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Type)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "b", "FROM", "t", "WHERE", "x", "=", "it's", "AND", "y", ">=", "3.5", "LIMIT", "10"}
	if len(texts) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(texts), texts, len(want))
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != tokKeyword {
		t.Errorf("SELECT should lex as keyword")
	}
	if kinds[9] != tokString {
		t.Errorf("'it''s' should lex as string, got %v", kinds[9])
	}
}

func TestTokenizeQuotedIdentifiers(t *testing.T) {
	for _, src := range []string{"`Free Meal Count`", `"Free Meal Count"`, "[Free Meal Count]"} {
		toks, err := tokenize(src)
		if err != nil {
			t.Fatalf("tokenize(%q): %v", src, err)
		}
		if len(toks) != 1 || toks[0].Type != tokIdent || toks[0].Text != "Free Meal Count" {
			t.Errorf("tokenize(%q) = %v, want single ident 'Free Meal Count'", src, toks)
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	toks, err := tokenize("a <> b != c <= d >= e || f == g")
	if err != nil {
		t.Fatalf("tokenize: %v", err)
	}
	wantTypes := []tokenType{tokIdent, tokNeq, tokIdent, tokNeq, tokIdent,
		tokLte, tokIdent, tokGte, tokIdent, tokConcat, tokIdent, tokEq, tokIdent}
	if len(toks) != len(wantTypes) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(wantTypes))
	}
	for i, wt := range wantTypes {
		if toks[i].Type != wt {
			t.Errorf("token %d type = %v, want %v", i, toks[i].Type, wt)
		}
	}
}

func TestTokenizeComments(t *testing.T) {
	toks, err := tokenize("SELECT /* block\ncomment */ 1 -- line\n+2")
	if err != nil {
		t.Fatalf("tokenize: %v", err)
	}
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.Text)
	}
	if strings.Join(texts, " ") != "SELECT 1 + 2" {
		t.Errorf("comment stripping failed: %v", texts)
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := map[string]string{
		"42":     "42",
		"3.14":   "3.14",
		".5":     ".5",
		"1e10":   "1e10",
		"2.5E-3": "2.5E-3",
	}
	for src, want := range cases {
		toks, err := tokenize(src)
		if err != nil {
			t.Fatalf("tokenize(%q): %v", src, err)
		}
		if len(toks) != 1 || toks[0].Type != tokNumber || toks[0].Text != want {
			t.Errorf("tokenize(%q) = %v, want number %q", src, toks, want)
		}
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "`unterminated", "[unterminated", "SELECT @"} {
		if _, err := tokenize(src); err == nil {
			t.Errorf("tokenize(%q) should fail", src)
		}
	}
}
