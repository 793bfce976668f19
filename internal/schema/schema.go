// Package schema models a database together with its BIRD-style
// description files: per-table CSVs documenting column meanings, value
// codes and domain ranges. SEED's evidence generation (paper §III) reads
// exactly three information sources — the schema, the description files and
// sampled values — and this package is the first two.
package schema

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/sqlengine"
)

// ColumnDoc is the description-file entry for one column, mirroring BIRD's
// database_description CSVs (original_column_name, column_description,
// value_description).
type ColumnDoc struct {
	// Column is the schema column name this entry documents.
	Column string
	// FullName is the expanded natural-language name, e.g. "free meal
	// count" for FreeMealCount.
	FullName string
	// Description explains the column's meaning.
	Description string
	// ValueMap maps stored codes to their meanings, e.g.
	// "POPLATEK TYDNE" -> "weekly issuance". Rendered into the
	// value_description field.
	ValueMap map[string]string
	// Range documents a domain range, e.g. "Normal range: 29 < N < 52".
	Range string
}

// ValueDescription renders the value-description cell: the code/meaning
// pairs plus the range note, matching the free-text style of BIRD files.
func (cd *ColumnDoc) ValueDescription() string {
	var parts []string
	codes := make([]string, 0, len(cd.ValueMap))
	for c := range cd.ValueMap {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		parts = append(parts, fmt.Sprintf("'%s' stands for %s", c, cd.ValueMap[c]))
	}
	if cd.Range != "" {
		parts = append(parts, cd.Range)
	}
	return strings.Join(parts, "; ")
}

// TableDoc is the description file for one table.
type TableDoc struct {
	Table       string
	Description string
	Columns     []ColumnDoc
}

// ColumnDoc returns the entry for the named column, if present.
func (td *TableDoc) ColumnDoc(column string) (*ColumnDoc, bool) {
	for i := range td.Columns {
		if strings.EqualFold(td.Columns[i].Column, column) {
			return &td.Columns[i], true
		}
	}
	return nil, false
}

// CSV renders the table description as a BIRD-style CSV file.
func (td *TableDoc) CSV() string {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	_ = w.Write([]string{"original_column_name", "column_name", "column_description", "value_description"})
	for _, c := range td.Columns {
		_ = w.Write([]string{c.Column, c.FullName, c.Description, c.ValueDescription()})
	}
	w.Flush()
	return buf.String()
}

// ParseTableDocCSV parses a CSV produced by TableDoc.CSV (or an equivalent
// hand-written file) back into a TableDoc for the named table.
func ParseTableDocCSV(table, data string) (*TableDoc, error) {
	r := csv.NewReader(strings.NewReader(data))
	records, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("schema: parsing description CSV for %s: %w", table, err)
	}
	td := &TableDoc{Table: table}
	for i, rec := range records {
		if i == 0 || len(rec) < 4 {
			continue // header
		}
		doc := ColumnDoc{Column: rec[0], FullName: rec[1], Description: rec[2]}
		doc.ValueMap = parseValueDescription(rec[3], &doc.Range)
		td.Columns = append(td.Columns, doc)
	}
	return td, nil
}

func parseValueDescription(s string, rangeOut *string) map[string]string {
	var vm map[string]string
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if strings.Contains(part, " stands for ") && strings.HasPrefix(part, "'") {
			rest := part[1:]
			q := strings.Index(rest, "'")
			if q < 0 {
				continue
			}
			code := rest[:q]
			meaning := strings.TrimPrefix(rest[q+1:], " stands for ")
			if vm == nil {
				vm = make(map[string]string)
			}
			vm[code] = meaning
			continue
		}
		if *rangeOut == "" {
			*rangeOut = part
		}
	}
	return vm
}

// DB bundles an executable database with its documentation. Descriptions
// may be nil for Spider-style corpora that ship no description files.
// A DB must not be copied after first use: it holds the value inventory.
type DB struct {
	Name   string
	Engine *sqlengine.Database
	// Docs maps lower-cased table names to their description files.
	Docs map[string]*TableDoc

	valuesOnce sync.Once
	values     map[*sqlengine.Table][]columnValues // by column position
}

// MaxValues is the most values Values returns for one column: the length
// of the inventory pulled per TEXT column.
const MaxValues = 40

// Value is one stored column value, prepared once for value matchers: the
// text as stored, its lower-case form and that form's rune count (the
// edit-distance length).
type Value struct {
	Text  string
	Lower string
	Runes int
}

// NewValue prepares one stored value.
func NewValue(text string) Value {
	lower := strings.ToLower(text)
	return Value{Text: text, Lower: lower, Runes: utf8.RuneCountInString(lower)}
}

// columnValues is one column's inventory: the non-NULL values among the
// first MaxValues rows of its sorted distinct values, and how many of
// those rows were NULL. NULL sorts first, so those are the leading rows.
type columnValues struct {
	vals  []Value
	nulls int
}

// Values returns the non-NULL values among the first n rows (n <=
// MaxValues) of SELECT DISTINCT c FROM t ORDER BY c, for TEXT column
// number col of t — the sampled values SEED's sample execution and the
// baselines' value retrievers read. The inventory is pulled once per DB,
// on the first Values or WarmValues call, over the tables the engine had
// then; a DB is not expected to change after it is served. Other columns
// and tables have no values. The result is shared: callers must not
// modify it.
func (d *DB) Values(t *sqlengine.Table, col, n int) []Value {
	d.WarmValues()
	cols := d.values[t]
	if col >= len(cols) {
		return nil
	}
	cv := &cols[col]
	n = min(max(n-cv.nulls, 0), len(cv.vals))
	return cv.vals[:n:n]
}

// WarmValues pulls the value inventory of every TEXT column now, so no
// later Values call pays for it.
func (d *DB) WarmValues() {
	d.valuesOnce.Do(func() {
		d.values = make(map[*sqlengine.Table][]columnValues)
		for _, t := range d.Engine.Tables() {
			cols := make([]columnValues, len(t.Columns))
			for i, c := range t.Columns {
				if c.Type == "TEXT" {
					cols[i] = d.pullValues(t, c.Name)
				}
			}
			d.values[t] = cols
		}
	})
}

func (d *DB) pullValues(t *sqlengine.Table, col string) columnValues {
	var cv columnValues
	rows, err := d.Engine.Query(fmt.Sprintf("SELECT DISTINCT %s FROM %s ORDER BY %s LIMIT %d",
		quote(col), quote(t.Name), quote(col), MaxValues))
	if err != nil {
		return cv // the statement is built from t's own schema: a column it cannot read has no values
	}
	for i := 0; i < rows.Len(); i++ {
		if v := rows.Cell(i, 0); v.IsNull() {
			cv.nulls++
		} else {
			cv.vals = append(cv.vals, NewValue(v.AsText()))
		}
	}
	return cv
}

// NewDB wraps an engine database with empty documentation.
func NewDB(engine *sqlengine.Database) *DB {
	return &DB{Name: engine.Name, Engine: engine, Docs: make(map[string]*TableDoc)}
}

// Doc returns the description file for a table, if any.
func (d *DB) Doc(table string) (*TableDoc, bool) {
	td, ok := d.Docs[strings.ToLower(table)]
	return td, ok
}

// SetDoc installs a table's description file.
func (d *DB) SetDoc(td *TableDoc) {
	d.Docs[strings.ToLower(td.Table)] = td
}

// HasDescriptions reports whether any table carries a description file.
func (d *DB) HasDescriptions() bool { return len(d.Docs) > 0 }

// DDL serialises the full schema as CREATE TABLE statements — the
// representation SEED and the baselines place in prompts.
func (d *DB) DDL() string {
	var b strings.Builder
	for _, t := range d.Engine.Tables() {
		b.WriteString(TableDDL(t))
		b.WriteString("\n")
	}
	return b.String()
}

// TableDDL renders one table's CREATE TABLE statement, including foreign
// keys (the join hints SEED's deepseek variant echoes into evidence).
func TableDDL(t *sqlengine.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (\n", quote(t.Name))
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "  %s %s", quote(c.Name), c.Type)
		if c.PrimaryKey {
			b.WriteString(" PRIMARY KEY")
		}
		if c.NotNull {
			b.WriteString(" NOT NULL")
		}
		if i < len(t.Columns)-1 || len(t.ForeignKeys) > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	for i, fk := range t.ForeignKeys {
		fmt.Fprintf(&b, "  FOREIGN KEY (%s) REFERENCES %s(%s)", quote(fk.Column), quote(fk.ParentTable), quote(fk.ParentColumn))
		if i < len(t.ForeignKeys)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString(");")
	return b.String()
}

// PromptText renders the schema plus description files as the prompt block
// SEED feeds its base model. With sampled values appended by the caller it
// matches the evidence-generation prompt structure of Fig. 3.
func (d *DB) PromptText(includeDocs bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- Database: %s\n", d.Name)
	b.WriteString(d.DDL())
	if includeDocs && d.HasDescriptions() {
		b.WriteString("\n-- Description files:\n")
		for _, t := range d.Engine.Tables() {
			if td, ok := d.Doc(t.Name); ok {
				fmt.Fprintf(&b, "-- %s.csv\n%s", td.Table, td.CSV())
			}
		}
	}
	return b.String()
}

// DependencyOrder returns the database's tables topologically sorted by
// their foreign-key dependencies: every parent table precedes all of its
// children, so rows inserted in this order can always resolve their
// references. Self-referencing foreign keys do not constrain the order
// (a table can obviously not precede itself); a genuine cycle between
// distinct tables is an error. Ties are broken by creation order, which
// keeps the result deterministic.
func DependencyOrder(db *sqlengine.Database) ([]*sqlengine.Table, error) {
	tables := db.Tables()
	indegree := make(map[string]int, len(tables))
	children := make(map[string][]string, len(tables))
	byName := make(map[string]*sqlengine.Table, len(tables))
	for _, t := range tables {
		key := strings.ToLower(t.Name)
		byName[key] = t
		if _, ok := indegree[key]; !ok {
			indegree[key] = 0
		}
		for _, fk := range t.ForeignKeys {
			parent := strings.ToLower(fk.ParentTable)
			if parent == key {
				continue // self-reference: no ordering constraint
			}
			if _, ok := db.Table(parent); !ok {
				return nil, fmt.Errorf("schema: table %s references unknown table %s", t.Name, fk.ParentTable)
			}
			children[parent] = append(children[parent], key)
			indegree[key]++
		}
	}
	// Kahn's algorithm over a creation-ordered ready queue.
	var ready []string
	for _, t := range tables {
		key := strings.ToLower(t.Name)
		if indegree[key] == 0 {
			ready = append(ready, key)
		}
	}
	out := make([]*sqlengine.Table, 0, len(tables))
	for len(ready) > 0 {
		key := ready[0]
		ready = ready[1:]
		out = append(out, byName[key])
		for _, child := range children[key] {
			indegree[child]--
			if indegree[child] == 0 {
				ready = append(ready, child)
			}
		}
	}
	if len(out) != len(tables) {
		var cyclic []string
		for _, t := range tables {
			if indegree[strings.ToLower(t.Name)] > 0 {
				cyclic = append(cyclic, t.Name)
			}
		}
		return nil, fmt.Errorf("schema: foreign-key cycle among tables %v", cyclic)
	}
	return out, nil
}

// ForeignKeyOf looks up the foreign key linking childTable to parentTable,
// if declared.
func (d *DB) ForeignKeyOf(childTable, parentTable string) (sqlengine.ForeignKeyDef, bool) {
	t, ok := d.Engine.Table(childTable)
	if !ok {
		return sqlengine.ForeignKeyDef{}, false
	}
	for _, fk := range t.ForeignKeys {
		if strings.EqualFold(fk.ParentTable, parentTable) {
			return fk, true
		}
	}
	return sqlengine.ForeignKeyDef{}, false
}

func quote(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return "`" + s + "`"
		}
	}
	return s
}
