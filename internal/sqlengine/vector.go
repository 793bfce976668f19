package sqlengine

// Columnar storage shadow. Base tables keep [][]Value as the source of
// truth (DML, BulkInsert and the naive executor all operate on rows), but
// scan-heavy execution wants column-major data: a typed vector per column
// lets the filter kernels in kernels.go run tight int64/float64/string
// loops with a null bitmap instead of loading 4-word Value structs and
// switching on Kind per cell.
//
// Vectors are built lazily per column, under the same lock and with the
// same invalidation discipline as the point-lookup indexes: any DML,
// BulkInsert included, drops them (invalidateIndexes). A vector is always positionally aligned with t.Rows —
// vec position i is row t.Rows[i] — so kernels address it by row position;
// only full-table scans consult (and so build) vectors, an index-narrowed
// bucket being too small to be worth one.

// colVec is the columnar shadow of one table column. When every non-NULL
// cell of the column has the same storage kind, typed reports that kind
// and exactly one of ints/floats/strs is populated (len == row count);
// mixed-kind columns get typed == false and no arrays, and the kernels
// fall back to reading t.Rows directly. nulls is nil when the column has
// no NULLs, else a per-row bitmap (true = NULL; the typed array holds a
// zero value at those positions).
type colVec struct {
	typed  bool
	kind   Kind // meaningful only when typed; KindNull = all cells NULL
	nulls  []bool
	ints   []int64
	floats []float64
	strs   []string
}

// null reports whether position i holds SQL NULL.
func (v *colVec) null(i int) bool { return v.nulls != nil && v.nulls[i] }

// buildColVec scans one column of rows into a vector. Single pass: the
// first non-NULL cell fixes the kind; any deviating cell downgrades the
// vector to untyped (the arrays are dropped, only the null bitmap — if any
// — survives, since IS NULL kernels remain valid on mixed columns).
func buildColVec(rows [][]Value, col int) *colVec {
	v := &colVec{typed: true, kind: KindNull}
	for i, row := range rows {
		c := row[col]
		if c.IsNull() {
			if v.nulls == nil {
				v.nulls = make([]bool, len(rows))
			}
			v.nulls[i] = true
			v.pad(1)
			continue
		}
		if v.kind == KindNull {
			v.kind = c.Kind
			v.alloc(len(rows), i)
		}
		if c.Kind != v.kind {
			v.typed = false
			v.ints, v.floats, v.strs = nil, nil, nil
			// Finish the null bitmap over the remaining rows.
			for j := i + 1; j < len(rows); j++ {
				if rows[j][col].IsNull() {
					if v.nulls == nil {
						v.nulls = make([]bool, len(rows))
					}
					v.nulls[j] = true
				}
			}
			return v
		}
		v.appendCell(c)
	}
	return v
}

// alloc reserves the typed array for n rows with the first filled leading
// zero cells (rows seen before the kind was known are all NULL).
func (v *colVec) alloc(n, filled int) {
	switch v.kind {
	case KindInt:
		v.ints = make([]int64, filled, n)
	case KindFloat:
		v.floats = make([]float64, filled, n)
	case KindText:
		v.strs = make([]string, filled, n)
	}
}

// pad appends n zero cells to whichever typed array is live (NULL rows).
func (v *colVec) pad(n int) {
	switch v.kind {
	case KindInt:
		for i := 0; i < n; i++ {
			v.ints = append(v.ints, 0)
		}
	case KindFloat:
		for i := 0; i < n; i++ {
			v.floats = append(v.floats, 0)
		}
	case KindText:
		for i := 0; i < n; i++ {
			v.strs = append(v.strs, "")
		}
	}
}

func (v *colVec) appendCell(c Value) {
	switch v.kind {
	case KindInt:
		v.ints = append(v.ints, c.I)
	case KindFloat:
		v.floats = append(v.floats, c.F)
	case KindText:
		v.strs = append(v.strs, c.S)
	}
}

// length returns the row count the vector currently covers.
func (v *colVec) length() int {
	if !v.typed {
		return len(v.nulls)
	}
	switch v.kind {
	case KindInt:
		return len(v.ints)
	case KindFloat:
		return len(v.floats)
	case KindText:
		return len(v.strs)
	default: // all NULL
		return len(v.nulls)
	}
}

// columnVec returns the columnar shadow of column col, building it on
// first use. Safe for concurrent readers (same discipline as eqLookup).
// A vector whose length no longer matches the table is rebuilt — that
// cannot happen under the documented DML/query exclusion contract, but it
// is a one-comparison guard against a stale shadow producing wrong rows.
func (t *Table) columnVec(col int) *colVec {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.colVecs == nil {
		t.colVecs = make(map[int]*colVec)
	}
	v, ok := t.colVecs[col]
	if !ok || (v.typed && v.kind != KindNull && v.length() != len(t.Rows)) ||
		((!v.typed || v.kind == KindNull) && v.nulls != nil && len(v.nulls) != len(t.Rows)) {
		v = buildColVec(t.Rows, col)
		t.colVecs[col] = v
	}
	return v
}
