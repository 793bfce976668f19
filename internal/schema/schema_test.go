package schema

import (
	"strings"
	"testing"

	"repro/internal/sqlengine"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	eng := sqlengine.NewDatabase("bank")
	eng.MustExec(`CREATE TABLE account (
		account_id INTEGER PRIMARY KEY,
		frequency TEXT,
		district_id INTEGER,
		FOREIGN KEY (district_id) REFERENCES district(district_id)
	)`)
	eng.MustExec(`CREATE TABLE district (district_id INTEGER PRIMARY KEY, A2 TEXT)`)
	db := NewDB(eng)
	db.SetDoc(&TableDoc{
		Table:       "account",
		Description: "bank accounts",
		Columns: []ColumnDoc{
			{Column: "account_id", FullName: "account id", Description: "unique id"},
			{Column: "frequency", FullName: "frequency", Description: "issuance frequency",
				ValueMap: map[string]string{
					"POPLATEK TYDNE":   "weekly issuance",
					"POPLATEK MESICNE": "monthly issuance",
				}},
		},
	})
	return db
}

func TestDDLContainsTablesAndFKs(t *testing.T) {
	db := testDB(t)
	ddl := db.DDL()
	for _, want := range []string{"CREATE TABLE account", "CREATE TABLE district", "FOREIGN KEY (district_id) REFERENCES district(district_id)", "PRIMARY KEY"} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing %q:\n%s", want, ddl)
		}
	}
	// Rendered DDL must re-parse.
	for _, stmt := range strings.Split(strings.TrimSpace(ddl), ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		if _, err := sqlengine.Parse(stmt); err != nil {
			t.Errorf("DDL does not re-parse: %v\n%s", err, stmt)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := testDB(t)
	td, ok := db.Doc("account")
	if !ok {
		t.Fatal("doc missing")
	}
	csv := td.CSV()
	parsed, err := ParseTableDocCSV("account", csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Columns) != len(td.Columns) {
		t.Fatalf("round trip lost columns: %d vs %d", len(parsed.Columns), len(td.Columns))
	}
	freq, ok := parsed.ColumnDoc("frequency")
	if !ok {
		t.Fatal("frequency column lost")
	}
	if freq.ValueMap["POPLATEK TYDNE"] != "weekly issuance" {
		t.Errorf("value map lost in round trip: %v", freq.ValueMap)
	}
}

func TestValueDescriptionRendersRangeAndCodes(t *testing.T) {
	cd := ColumnDoc{
		Column:   "hct",
		ValueMap: map[string]string{"H": "high"},
		Range:    "Normal range: 29 < N < 52",
	}
	vd := cd.ValueDescription()
	if !strings.Contains(vd, "'H' stands for high") || !strings.Contains(vd, "Normal range") {
		t.Errorf("value description incomplete: %q", vd)
	}
}

func TestDocLookupCaseInsensitive(t *testing.T) {
	db := testDB(t)
	if _, ok := db.Doc("ACCOUNT"); !ok {
		t.Error("doc lookup should be case-insensitive")
	}
	if _, ok := db.Doc("nosuch"); ok {
		t.Error("unknown table should have no doc")
	}
}

func TestParseTableDocCSVMalformed(t *testing.T) {
	if _, err := ParseTableDocCSV("x", "a,\"unterminated\n"); err == nil {
		t.Error("malformed CSV should error")
	}
}

func TestDependencyOrderParentsFirst(t *testing.T) {
	eng := sqlengine.NewDatabase("deps")
	// Declared child-before-parent on purpose: the sort must fix it.
	eng.MustExec(`CREATE TABLE loan (loan_id INTEGER PRIMARY KEY, account_id INTEGER,
		FOREIGN KEY (account_id) REFERENCES account(account_id))`)
	eng.MustExec(`CREATE TABLE account (account_id INTEGER PRIMARY KEY, district_id INTEGER,
		FOREIGN KEY (district_id) REFERENCES district(district_id))`)
	eng.MustExec(`CREATE TABLE district (district_id INTEGER PRIMARY KEY)`)
	eng.MustExec(`CREATE TABLE employee (emp_id INTEGER PRIMARY KEY, manager_id INTEGER,
		FOREIGN KEY (manager_id) REFERENCES employee(emp_id))`)

	order, err := DependencyOrder(eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("got %d tables, want 4", len(order))
	}
	pos := make(map[string]int)
	for i, tab := range order {
		pos[strings.ToLower(tab.Name)] = i
	}
	if pos["district"] > pos["account"] || pos["account"] > pos["loan"] {
		t.Fatalf("parents must precede children, got order %v", order)
	}
}

func TestDependencyOrderDeterministic(t *testing.T) {
	build := func() *sqlengine.Database {
		eng := sqlengine.NewDatabase("deps")
		eng.MustExec(`CREATE TABLE a (id INTEGER PRIMARY KEY)`)
		eng.MustExec(`CREATE TABLE b (id INTEGER PRIMARY KEY)`)
		eng.MustExec(`CREATE TABLE c (id INTEGER PRIMARY KEY, a_id INTEGER,
			FOREIGN KEY (a_id) REFERENCES a(id))`)
		return eng
	}
	first, err := DependencyOrder(build())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := DependencyOrder(build())
		if err != nil {
			t.Fatal(err)
		}
		for j := range first {
			if first[j].Name != again[j].Name {
				t.Fatalf("run %d: order differs at %d: %s vs %s", i, j, first[j].Name, again[j].Name)
			}
		}
	}
}

func TestDependencyOrderCycleError(t *testing.T) {
	eng := sqlengine.NewDatabase("cyclic")
	eng.MustExec(`CREATE TABLE x (id INTEGER PRIMARY KEY, y_id INTEGER,
		FOREIGN KEY (y_id) REFERENCES y(id))`)
	eng.MustExec(`CREATE TABLE y (id INTEGER PRIMARY KEY, x_id INTEGER,
		FOREIGN KEY (x_id) REFERENCES x(id))`)
	if _, err := DependencyOrder(eng); err == nil {
		t.Fatal("cycle between x and y must be an error")
	}
}
