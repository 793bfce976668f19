package sqlengine

import (
	"fmt"
	"math"
	"slices"
	"strconv"
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

// Table is an in-memory table: a schema, and its rows stored as one typed
// column per table column (vector.go). Len and Cell read them.
type Table struct {
	Name        string
	Columns     []Column
	ForeignKeys []ForeignKeyDef

	cols []column // one per Columns entry, each n cells long
	n    int

	colIndex  map[string]int // lower-case column name -> position
	lowerCols []string       // lower-case column names; Columns never change after creation

	// eqIdx holds each column's equality index, built by the first point
	// lookup that reads it; concurrent read-only queries share the build.
	// DML drops them (the Database contract forbids mutation concurrent
	// with queries); a frozen table, which refuses DML, builds each once.
	eqIdx  []eqSlot
	frozen bool
}

// eqSlot is one column's equality index, built once.
type eqSlot struct {
	once sync.Once
	idx  *colEqIndex
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// Cell returns the value of column col in row i.
func (t *Table) Cell(i, col int) Value { return t.cols[col].value(i) }

// rel returns the table as a relation a selection indexes, its cells read
// in place.
func (t *Table) rel() rel { return rel{cols: t.cols, n: t.n} }

// appendRow appends one row of cells, already coerced and checked, to
// every column.
func (t *Table) appendRow(row []Value) {
	for i, v := range row {
		t.cols[i].add(t.n, v)
	}
	t.n++
}

// colEqIndex is a lazily built point-lookup index over one column: the
// planner's coarse join key of every non-NULL cell, grouped into buckets,
// bucket b being pos[off[b]:off[b+1]] — the positions of its rows,
// ascending — so the whole index is two flat arrays, with no slice per
// bucket. Ascending order matters — it makes an index scan emit rows in
// exactly the order a full scan would, which the plan/naive equivalence
// guarantee relies on. A plain column's ids maps each key to its bucket. A
// coded column's buckets are its codes' posting lists, found by a binary
// search of its dictionary, dict: no key map, except for its numeric-looking
// words, whose keys ids maps — to a code's list, or, where words such as
// '05' and '5' share a key, to a bucket after the codes' that merges
// theirs.
type colEqIndex struct {
	ids  map[string]int32
	off  []int32
	pos  []int
	dict *textDict
	nan  bool // a cell is a NaN REAL, which `=` matches to every number
}

// newColEqIndex indexes the n cells of column c.
func newColEqIndex(c *column, n int) *colEqIndex {
	if c.dict != nil {
		return newCodedEqIndex(c, n)
	}
	idx := &colEqIndex{ids: make(map[string]int32)}
	bucket := make([]int32, n) // row -> bucket; -1 for NULL
	var buf []byte
	for ri := range bucket {
		v := c.value(ri)
		if v.IsNull() {
			bucket[ri] = -1
			continue
		}
		if f := v.Real(); v.Kind == KindFloat && f != f {
			idx.nan = true
		}
		buf = coarseKey(buf[:0], v)
		b, ok := idx.ids[string(buf)]
		if !ok {
			b = int32(len(idx.ids))
			idx.ids[string(buf)] = b
		}
		bucket[ri] = b
	}
	idx.postings(n, len(idx.ids), func(ri int) int32 { return bucket[ri] })
	return idx
}

// newCodedEqIndex indexes the n cells of coded column c by code, and adds
// a merged bucket for each key that numeric-looking words share.
func newCodedEqIndex(c *column, n int) *colEqIndex {
	d := c.dict
	idx := &colEqIndex{dict: d}
	idx.postings(n, len(d.words), func(ri int) int32 {
		if c.null(ri) {
			return -1
		}
		return int32(d.codes[ri])
	})
	var keys []string
	shared := map[string][]int32{}
	for w, s := range d.words {
		if _, ok := numericText(s); ok {
			k := string(coarseKey(nil, Text(s)))
			if shared[k] == nil {
				keys = append(keys, k)
			}
			shared[k] = append(shared[k], int32(w))
		}
	}
	if len(keys) > 0 {
		idx.ids = make(map[string]int32, len(keys))
	}
	for _, k := range keys {
		ws := shared[k]
		if len(ws) == 1 {
			idx.ids[k] = ws[0]
			continue
		}
		start := len(idx.pos)
		for _, w := range ws {
			idx.pos = append(idx.pos, idx.pos[idx.off[w]:idx.off[w+1]]...)
		}
		slices.Sort(idx.pos[start:])
		idx.ids[k] = int32(len(idx.off) - 1)
		idx.off = append(idx.off, int32(len(idx.pos)))
	}
	return idx
}

// postings lays out the positions of the n rows by bucket, nb of them,
// row ri's being bucket(ri), -1 for none, in two passes: the first counts
// each bucket's rows, the second places each row's position in its bucket.
func (idx *colEqIndex) postings(n, nb int, bucket func(ri int) int32) {
	// off[b] starts as bucket b's first slot and advances as the bucket
	// fills, ending at bucket b+1's first slot; shifting it one place then
	// gives the boundaries.
	idx.off = make([]int32, nb+1)
	for ri := 0; ri < n; ri++ {
		if b := bucket(ri); b >= 0 {
			idx.off[b]++
		}
	}
	var m int32
	for b, c := range idx.off[:nb] {
		idx.off[b] = m
		m += c
	}
	idx.pos = make([]int, m)
	for ri := 0; ri < n; ri++ {
		if b := bucket(ri); b >= 0 {
			idx.pos[idx.off[b]] = ri
			idx.off[b]++
		}
	}
	copy(idx.off[1:], idx.off[:nb])
	idx.off[0] = 0
}

// lookup returns the bucket of the cells that may equal v, a non-NULL
// value: a coded column finds a text that does not look numeric by a
// binary search of its words, and every other value by its coarse key.
func (idx *colEqIndex) lookup(v Value) (pos []int, ok bool) {
	if idx.nan {
		return nil, false
	}
	word := idx.dict != nil && v.Kind == KindText
	if word {
		_, num := numericText(v.S)
		word = !num
	}
	var b int32
	var found bool
	if word {
		var w int
		w, found = slices.BinarySearch(idx.dict.words, v.S)
		b = int32(w)
	} else {
		var buf [64]byte
		b, found = idx.ids[string(coarseKey(buf[:0], v))]
	}
	if !found {
		return nil, true
	}
	lo, hi := idx.off[b], idx.off[b+1]
	return idx.pos[lo:hi:hi], true
}

func newTable(name string, cols []Column, fks []ForeignKeyDef) *Table {
	t := &Table{Name: name, Columns: cols, ForeignKeys: fks, cols: make([]column, len(cols)),
		colIndex: make(map[string]int, len(cols)), lowerCols: make([]string, len(cols)),
		eqIdx: make([]eqSlot, len(cols))}
	for i, c := range cols {
		t.lowerCols[i] = strings.ToLower(c.Name)
		t.colIndex[t.lowerCols[i]] = i
	}
	return t
}

// eqLookup returns the positions (ascending) of rows whose column col may
// equal v, a non-NULL value, building the column's index on first use.
// Callers must re-verify candidates with real SQL equality: the index
// buckets cells by coarse key, which over-approximates (see coarseKey). The
// slice's capacity is its length, so an append cannot reach the next
// bucket. ok is false when no bucket can answer: the column holds a NaN,
// which equals every number.
func (t *Table) eqLookup(col int, v Value) (pos []int, ok bool) {
	s := &t.eqIdx[col]
	s.once.Do(func() { s.idx = newColEqIndex(&t.cols[col], t.n) })
	return s.idx.lookup(v)
}

// invalidateIndexes drops every equality index built. Every DML path
// (INSERT/UPDATE/DELETE and BulkInsert) calls it so index reads never see
// stale rows.
func (t *Table) invalidateIndexes() {
	for i := range t.eqIdx {
		if t.eqIdx[i].idx != nil {
			clear(t.eqIdx)
			return
		}
	}
}

// freeze makes the table read-only for good: each TEXT column worth coding
// is coded (column.code), every array drops its spare room, and the
// indexes built so far, over the old storage, are dropped.
func (t *Table) freeze() {
	for i := range t.cols {
		t.cols[i].code(t.n)
		t.cols[i].compact(t.n)
	}
	clear(t.eqIdx)
	t.frozen = true
}

// writable is the error DML on a frozen table fails with, before it changes
// anything; nil for an unfrozen table.
func (t *Table) writable() error {
	if t.frozen {
		return fmt.Errorf("sqlengine: table %s is frozen: it is read-only", t.Name)
	}
	return nil
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

	plans *planCache
}

// Freeze makes every table of the database read-only, for good: INSERT,
// UPDATE, DELETE and BulkInsert on them fail, and each TEXT column whose
// distinct strings are few enough is stored as codes over a dictionary
// (vector.go). A corpus builder freezes what it serves once it is loaded.
// Like DML, Freeze must not run concurrently with queries; a table created
// after it is not frozen.
func (db *Database) Freeze() {
	for _, t := range db.tables {
		t.freeze()
	}
}

// NewDatabase returns an empty database with the given name.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*Table), plans: newPlanCache()}
}

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
	t.appendRow(row)
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
				// Integer text past int64's range is kept as a REAL, as
				// SQLite does, not clamped.
				if i, err := strconv.ParseInt(s, 10, 64); err == nil {
					return Int(i)
				}
			}
			if looksNumeric(s) {
				return Float(v.AsFloat())
			}
			return v
		case KindFloat:
			// Only an integral REAL inside int64's range is an INTEGER.
			if f := v.Real(); f == math.Trunc(f) && f >= -0x1p63 && f < 0x1p63 {
				return Int(int64(f))
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
