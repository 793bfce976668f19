package sqlengine

import (
	"fmt"
	"strings"
	"sync"
)

// Column describes one column of a table.
type Column struct {
	Name       string
	Type       string // INTEGER, REAL or TEXT
	PrimaryKey bool
	NotNull    bool
	Unique     bool
}

// Table is an in-memory table: a schema plus materialised rows.
type Table struct {
	Name        string
	Columns     []Column
	ForeignKeys []ForeignKeyDef
	Rows        [][]Value

	colIndex  map[string]int // lower-case column name -> position
	lowerCols []string       // lower-case column names; Columns never change after creation

	// idxMu guards eqIdx and colVecs. Indexes and column vectors are built
	// lazily by concurrent read-only queries; any DML drops them (the
	// Database contract already forbids mutation concurrent with queries).
	idxMu   sync.Mutex
	eqIdx   map[int]*colEqIndex // column position -> equality index
	colVecs map[int]*colVec     // column position -> columnar shadow (vector.go)
}

// colEqIndex is a lazily built point-lookup index over one column: the
// planner's coarse join key mapped to ascending row positions. Ascending
// order matters — it makes an index scan emit rows in exactly the order a
// full scan would, which the plan/naive equivalence guarantee relies on.
type colEqIndex struct {
	buckets map[string][]int
}

func newTable(name string, cols []Column, fks []ForeignKeyDef) *Table {
	t := &Table{Name: name, Columns: cols, ForeignKeys: fks, colIndex: make(map[string]int, len(cols)), lowerCols: make([]string, len(cols))}
	for i, c := range cols {
		t.lowerCols[i] = strings.ToLower(c.Name)
		t.colIndex[t.lowerCols[i]] = i
	}
	return t
}

// eqLookup returns the positions (ascending) of rows whose column col may
// equal a value with coarse key key, building the column's index on first
// use. Callers must re-verify candidates with real SQL equality: the coarse
// key over-approximates (see coarseKey).
func (t *Table) eqLookup(col int, key string) []int {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.eqIdx == nil {
		t.eqIdx = make(map[int]*colEqIndex)
	}
	idx, ok := t.eqIdx[col]
	if !ok {
		idx = &colEqIndex{buckets: make(map[string][]int)}
		var buf []byte
		for ri, row := range t.Rows {
			v := row[col]
			if v.IsNull() {
				continue
			}
			buf = coarseKey(buf[:0], v)
			k := string(buf)
			idx.buckets[k] = append(idx.buckets[k], ri)
		}
		t.eqIdx[col] = idx
	}
	return idx.buckets[key]
}

// invalidateIndexes drops all lazily built equality indexes and column
// vectors. Every DML path (INSERT/UPDATE/DELETE) calls it so index and
// vector reads never see stale rows. (BulkInsert instead extends the
// vectors in place — see Table.noteBulkAppend.)
func (t *Table) invalidateIndexes() {
	t.idxMu.Lock()
	t.eqIdx = nil
	t.colVecs = nil
	t.idxMu.Unlock()
}

// ColumnIndex returns the position of the named column (case-insensitive),
// or -1 when absent.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIndex[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Column returns the named column definition (case-insensitive).
func (t *Table) Column(name string) (Column, bool) {
	i := t.ColumnIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return t.Columns[i], true
}

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// Database is a named collection of tables. It is not safe for concurrent
// mutation; concurrent read-only query execution is safe.
type Database struct {
	Name   string
	tables map[string]*Table
	order  []string

	plans      *planCache
	plannerOff bool

	// Overrides of parallel.go's worker cap and engagement thresholds; zero
	// means the default. Nothing outside the package's tests sets them
	// (export_test.go), so that small fixtures reach the kernels and fan-out.
	workers    int
	minVecRows int
	minParRows int
}

// NewDatabase returns an empty database with the given name.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*Table), plans: newPlanCache()}
}

// SetPlanner enables or disables the query planner: plan-driven hash joins,
// predicate pushdown, point-lookup indexes, filter kernels and the
// late-materialising tail (positions.go). The planner is on by default;
// turning it off forces the naive executor — full scans into nested loops,
// the interpreter on every row — which by construction produces identical
// rows, errors and Cost. It is the reference every equivalence test and the
// evaluation oracles compare against, which is what the switch exists for.
func (db *Database) SetPlanner(enabled bool) { db.plannerOff = !enabled }

// Table returns the named table (case-insensitive).
func (db *Database) Table(name string) (*Table, bool) {
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns all tables in creation order.
func (db *Database) Tables() []*Table {
	out := make([]*Table, 0, len(db.order))
	for _, n := range db.order {
		out = append(out, db.tables[n])
	}
	return out
}

// TableNames returns the table names in creation order.
func (db *Database) TableNames() []string {
	out := make([]string, 0, len(db.order))
	for _, n := range db.order {
		out = append(out, db.tables[n].Name)
	}
	return out
}

func (db *Database) createTable(ct *CreateTableStmt) (*Table, error) {
	key := strings.ToLower(ct.Name)
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("sqlengine: table %q already exists", ct.Name)
	}
	if len(ct.Columns) == 0 {
		return nil, fmt.Errorf("sqlengine: table %q has no columns", ct.Name)
	}
	seen := make(map[string]bool, len(ct.Columns))
	cols := make([]Column, 0, len(ct.Columns))
	for _, cd := range ct.Columns {
		lk := strings.ToLower(cd.Name)
		if seen[lk] {
			return nil, fmt.Errorf("sqlengine: duplicate column %q in table %q", cd.Name, ct.Name)
		}
		seen[lk] = true
		cols = append(cols, Column{
			Name:       cd.Name,
			Type:       cd.Type,
			PrimaryKey: cd.PrimaryKey,
			NotNull:    cd.NotNull,
			Unique:     cd.Unique,
		})
	}
	t := newTable(ct.Name, cols, ct.ForeignKeys)
	db.tables[key] = t
	db.order = append(db.order, key)
	return t, nil
}

// insertRow coerces and appends one row of already-evaluated values.
func (t *Table) insertRow(cols []string, vals []Value) error {
	row := make([]Value, len(t.Columns))
	if len(cols) == 0 {
		if len(vals) != len(t.Columns) {
			return fmt.Errorf("sqlengine: table %s has %d columns but %d values supplied", t.Name, len(t.Columns), len(vals))
		}
		copy(row, vals)
	} else {
		if len(cols) != len(vals) {
			return fmt.Errorf("sqlengine: %d columns but %d values", len(cols), len(vals))
		}
		for i, c := range cols {
			idx := t.ColumnIndex(c)
			if idx < 0 {
				return fmt.Errorf("sqlengine: table %s has no column %q", t.Name, c)
			}
			row[idx] = vals[i]
		}
	}
	for i := range row {
		row[i] = coerce(row[i], t.Columns[i].Type)
		if row[i].IsNull() && t.Columns[i].NotNull {
			return fmt.Errorf("sqlengine: NOT NULL constraint failed: %s.%s", t.Name, t.Columns[i].Name)
		}
	}
	t.Rows = append(t.Rows, row)
	t.invalidateIndexes()
	return nil
}

// coerce applies column-type affinity to a value, SQLite style: numeric
// affinity parses numeric-looking text; text affinity renders numbers.
func coerce(v Value, colType string) Value {
	switch colType {
	case "INTEGER":
		switch v.Kind {
		case KindText:
			s := strings.TrimSpace(v.S)
			if s == "" {
				return v
			}
			if looksInteger(s) {
				return Int(v.AsInt())
			}
			if looksNumeric(s) {
				return Float(v.AsFloat())
			}
			return v
		case KindFloat:
			if v.F == float64(int64(v.F)) {
				return Int(int64(v.F))
			}
			return v
		default:
			return v
		}
	case "REAL":
		switch v.Kind {
		case KindInt:
			return Float(float64(v.I))
		case KindText:
			s := strings.TrimSpace(v.S)
			if looksNumeric(s) {
				return Float(v.AsFloat())
			}
			return v
		default:
			return v
		}
	default: // TEXT
		switch v.Kind {
		case KindInt, KindFloat:
			return Text(v.AsText())
		default:
			return v
		}
	}
}

func looksInteger(s string) bool {
	if s == "" {
		return false
	}
	i := 0
	if s[0] == '-' || s[0] == '+' {
		i = 1
		if len(s) == 1 {
			return false
		}
	}
	for ; i < len(s); i++ {
		if !isDigit(s[i]) {
			return false
		}
	}
	return true
}

func looksNumeric(s string) bool {
	if s == "" {
		return false
	}
	dot, digit := false, false
	i := 0
	if s[0] == '-' || s[0] == '+' {
		i = 1
	}
	for ; i < len(s); i++ {
		switch {
		case isDigit(s[i]):
			digit = true
		case s[i] == '.' && !dot:
			dot = true
		default:
			return false
		}
	}
	return digit
}
