package sqlengine

import "fmt"

// BulkInsert appends already-materialised rows to a table, bypassing the
// SQL text path entirely: no lexing, no parsing, no per-row statement
// execution. It applies exactly the same column-type coercion and NOT NULL
// checks the INSERT executor applies, so a table loaded through BulkInsert
// is indistinguishable from one loaded with row-at-a-time INSERT
// statements — the property the synthetic-corpus generator relies on.
//
// Every row must supply one value per table column, in declaration order.
// The call is atomic: every row is checked — its width, and NOT NULL, which
// coercion cannot change — before any cell is appended, so a constraint
// violation in row k leaves every column and index untouched. Each column
// then grows once, to its exact new length, and lazily built point-lookup
// indexes are invalidated once per call rather than once per row, which
// together with the skipped parse work is what makes million-row loads
// practical (see BenchmarkBulkInsertVsInsert).
//
// Like all DML, BulkInsert fails on a frozen table, and must not run
// concurrently with queries or other mutations on the same database.
func (db *Database) BulkInsert(table string, rows [][]Value) (int, error) {
	t, err := db.lookupTable(table)
	if err == nil {
		err = t.writable()
	}
	if err != nil {
		return 0, err
	}
	for ri, row := range rows {
		if len(row) != len(t.Columns) {
			return 0, fmt.Errorf("sqlengine: bulk row %d has %d values but table %s has %d columns",
				ri, len(row), t.Name, len(t.Columns))
		}
		for i, v := range row {
			if v.IsNull() && t.Columns[i].NotNull {
				return 0, fmt.Errorf("sqlengine: bulk row %d: NOT NULL constraint failed: %s.%s",
					ri, t.Name, t.Columns[i].Name)
			}
		}
	}
	for i := range t.cols {
		c, typ := &t.cols[i], t.Columns[i].Type
		c.reserve(t.n, len(rows))
		for ri, row := range rows {
			c.add(t.n+ri, coerce(row[i], typ))
		}
	}
	t.n += len(rows)
	t.invalidateIndexes()
	return len(rows), nil
}
