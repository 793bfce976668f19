package evidence

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseShapes(t *testing.T) {
	ev := "weekly issuance refers to frequency = 'POPLATEK TYDNE'; element = 'cl' means Chlorine; 'F' stands for female; join on a.x = b.x; stray text"
	clauses := Parse(ev)
	if len(clauses) != 5 {
		t.Fatalf("clauses = %d, want 5", len(clauses))
	}
	if clauses[0].Term != "weekly issuance" || clauses[0].Body != "frequency = 'POPLATEK TYDNE'" {
		t.Errorf("refers-to parse: %+v", clauses[0])
	}
	if clauses[1].Term != "Chlorine" || clauses[1].Body != "element = 'cl'" {
		t.Errorf("means parse: %+v", clauses[1])
	}
	if clauses[2].Term != "female" || clauses[2].Body != "'F'" {
		t.Errorf("stands-for parse: %+v", clauses[2])
	}
	if !clauses[3].Join || clauses[3].Body != "a.x = b.x" {
		t.Errorf("join parse: %+v", clauses[3])
	}
	if clauses[4].Term != "" || clauses[4].Body != "stray text" {
		t.Errorf("fallback parse: %+v", clauses[4])
	}
}

func TestComposeRoundTrip(t *testing.T) {
	ev := "weekly issuance refers to frequency = 'POPLATEK TYDNE'; join on a.x = b.x"
	if got := Compose(Parse(ev)); got != ev {
		t.Errorf("round trip:\n got %q\nwant %q", got, ev)
	}
}

// Property: Parse(Compose(Parse(x))) is stable (idempotent normal form).
func TestParseComposeIdempotent(t *testing.T) {
	f := func(term, body string) bool {
		term = strings.ReplaceAll(term, ";", " ")
		body = strings.ReplaceAll(body, ";", " ")
		ev := term + " refers to " + body
		once := Compose(Parse(ev))
		twice := Compose(Parse(once))
		return once == twice
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHasJoins(t *testing.T) {
	if !HasJoins("magnet refers to Magnet = 1; join on satscores.cds = schools.CDSCode; x refers to y = 'z'") {
		t.Error("a join clause is not reported")
	}
	if HasJoins("magnet refers to Magnet = 1; x refers to y = 'z'") {
		t.Error("evidence without a join clause is reported")
	}
}

func TestValueLiteral(t *testing.T) {
	cases := []struct {
		body string
		want string
		ok   bool
	}{
		{"frequency = 'POPLATEK TYDNE'", "'POPLATEK TYDNE'", true},
		{"Magnet = 1", "1", true},
		{"hct >= 52", "", false},
		{"duration / 12", "", false},
		{"full_name", "", false},
		{"a != 'b'", "", false},
	}
	for _, c := range cases {
		got, ok := Clause{Body: c.body}.ValueLiteral()
		if ok != c.ok || got != c.want {
			t.Errorf("ValueLiteral(%q) = %q,%v want %q,%v", c.body, got, ok, c.want, c.ok)
		}
	}
}

func TestColumnSide(t *testing.T) {
	if got := (Clause{Body: "district.A2 = 'Jesenik'"}).ColumnSide(); got != "district.A2" {
		t.Errorf("ColumnSide = %q", got)
	}
	if got := (Clause{Body: "full_name"}).ColumnSide(); got != "full_name" {
		t.Errorf("ColumnSide bare = %q", got)
	}
	if got := (Clause{Body: "hct >= 52"}).ColumnSide(); got != "hct" {
		t.Errorf("ColumnSide inequality = %q", got)
	}
}

func TestCategorize(t *testing.T) {
	cases := []struct {
		clause Clause
		want   string
	}{
		{Clause{Term: "duration in years", Body: "duration / 12"}, CategoryNumeric},
		{Clause{Term: "exceeded the normal range", Body: "hct >= 52"}, CategoryDomain},
		{Clause{Term: "restricted", Body: "status = 'Restricted'"}, CategorySynonym},
		{Clause{Term: "female", Body: "gender = 'F'"}, CategorySynonym},
		{Clause{Term: "weekly issuance", Body: "frequency = 'POPLATEK TYDNE'"}, CategoryValue},
		{Clause{Body: "a.x = b.x", Join: true}, CategoryJoin},
	}
	for _, c := range cases {
		if got := Categorize(c.clause); got != c.want {
			t.Errorf("Categorize(%v) = %s, want %s", c.clause, got, c.want)
		}
	}
}

func TestBestMatch(t *testing.T) {
	clauses := Parse("weekly issuance refers to frequency = 'POPLATEK TYDNE'; women refers to gender = 'F'; duration in years refers to duration / 12")
	c, ok := BestMatch(clauses, "the weekly issuance accounts", 0.5)
	if !ok || c.Term != "weekly issuance" {
		t.Errorf("BestMatch weekly = %+v, %v", c, ok)
	}
	c, ok = BestMatch(clauses, "women", 0.5)
	if !ok || c.Body != "gender = 'F'" {
		t.Errorf("BestMatch women = %+v, %v", c, ok)
	}
	if _, ok := BestMatch(clauses, "carcinogenic molecules", 0.5); ok {
		t.Error("unrelated phrase should not match")
	}
	// Typo tolerance: a dropped letter still matches.
	c, ok = BestMatch(clauses, "weekly issunce", 0.5)
	if !ok || c.Term != "weekly issuance" {
		t.Errorf("typo should still match: %+v, %v", c, ok)
	}
}

func TestBestMatchSkipsJoins(t *testing.T) {
	clauses := Parse("join on account.account_id = loan.account_id")
	if _, ok := BestMatch(clauses, "account", 0.1); ok {
		t.Error("join clauses must not resolve atom terms")
	}
}

func TestCategoryCensus(t *testing.T) {
	census := CategoryCensus([]string{
		"women refers to gender = 'F'",
		"weekly issuance refers to frequency = 'POPLATEK TYDNE'; duration in years refers to duration / 12",
	})
	if census[CategorySynonym] != 1 || census[CategoryValue] != 1 || census[CategoryNumeric] != 1 {
		t.Errorf("census = %v", census)
	}
}

func TestParseEmpty(t *testing.T) {
	if got := Parse(""); got != nil {
		t.Errorf("Parse empty = %v", got)
	}
	if got := Parse(" ; ; "); got != nil {
		t.Errorf("Parse blanks = %v", got)
	}
}
