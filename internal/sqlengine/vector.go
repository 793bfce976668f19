package sqlengine

// Column storage. A table holds each of its columns once, typed, and so
// does a query result (Rows): the cells of a column whose non-NULL cells
// share one storage class sit in one array beside a NULL bitmap — nums for
// INTEGER and REAL, 8 bytes a cell holding what a Value's word I holds (an
// INTEGER, or a REAL's bits), strs for TEXT, a 16-byte string header a cell
// — and only a column that holds cells of two classes keeps them as Values,
// in vals. Everything that reads a table reads it here, by (position,
// column): the filter kernels run typed loops over the arrays (kernels.go),
// the equality index and the hash join key on the cells, and the tail
// consumers, the interpreter and DML read cells at positions (Table.Cell,
// column.value). DML changes the arrays in place: INSERT and BulkInsert
// append to every column, UPDATE rewrites cells, DELETE rebuilds them; a
// cell of another class turns its column mixed. A result's columns are
// written once, a cell at a time (add), by the consumers of positions.go or
// from rows (NewRows), and read the same way (Rows.Cell).

// column is one column of a table's or a result's cells. kind is the
// storage class of every non-NULL cell, KindNull while there is none;
// exactly the array of that class is live, nums or strs, one cell per row,
// a NULL row holding its zero. A mixed column has vals, holding every cell,
// and no other array. nulls is the NULL bitmap of an unmixed column, true
// for a NULL row, nil while no cell is NULL. room is the capacity a reserve
// asked for, which an array started within that call is made with.
type column struct {
	kind  Kind
	nulls []bool
	nums  []int64
	strs  []string
	vals  []Value
	room  int
}

// null reports whether row i of an unmixed column is NULL.
func (c *column) null(i int) bool {
	return c.nulls != nil && c.nulls[i]
}

// value returns the cell at row i.
func (c *column) value(i int) Value {
	switch {
	case c.vals != nil:
		return c.vals[i]
	case c.null(i):
		return Value{}
	case c.kind == KindText:
		return Value{Kind: KindText, S: c.strs[i]}
	}
	return Value{Kind: c.kind, I: c.nums[i]}
}

// reserve makes room for extra cells after the n the column holds: every
// array it has, or starts before they are added, holds them without
// growing.
func (c *column) reserve(n, extra int) {
	c.room = n + extra
	c.nums = grown(c.nums, c.room)
	c.strs = grown(c.strs, c.room)
	c.vals = grown(c.vals, c.room)
	c.nulls = grown(c.nulls, c.room)
}

// grown returns s with capacity for n elements, reallocated at exactly that
// capacity when it has less; a nil s stays nil.
func grown[T any](s []T, n int) []T {
	if s == nil || cap(s) >= n {
		return s
	}
	out := make([]T, len(s), n)
	copy(out, s)
	return out
}

// started returns an array of n zero cells, with room for the cells a
// reserve announced, or else for one more.
func started[T any](c *column, n int) []T {
	if c.room >= n {
		return make([]T, n, c.room)
	}
	return make([]T, n, n+1)
}

// add appends v as row n, the column's last: a zero cell, then set.
func (c *column) add(n int, v Value) {
	switch {
	case c.vals != nil:
		c.vals = append(c.vals, Value{})
	case c.kind == KindText:
		c.strs = append(c.strs, "")
	case c.kind != KindNull:
		c.nums = append(c.nums, 0)
	}
	if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
	c.set(n+1, n, v)
}

// set overwrites row i of the n the column holds with v.
func (c *column) set(n, i int, v Value) {
	if c.vals == nil && v.Kind != KindNull && v.Kind != c.kind {
		c.retype(n, v.Kind)
	}
	if c.vals != nil {
		c.vals[i] = v
		return
	}
	if c.kind == KindText {
		c.strs[i] = v.S
	} else if c.kind != KindNull {
		c.nums[i] = v.I
	}
	c.setNull(n, i, v.Kind == KindNull)
}

// retype makes the n-row column ready for a non-NULL cell of kind k, which
// it holds none of: a column of NULLs starts k's array, any other turns
// mixed, its cells moved into vals.
func (c *column) retype(n int, k Kind) {
	switch {
	case c.kind == KindNull && k == KindText:
		c.strs = started[string](c, n)
	case c.kind == KindNull:
		c.nums = started[int64](c, n)
	default:
		vals := started[Value](c, n)
		for i := range vals {
			vals[i] = c.value(i)
		}
		*c = column{vals: vals, room: c.room}
		return
	}
	c.kind = k
}

// setNull sets or clears the NULL bit of row i of an n-row unmixed column,
// starting the bitmap at the first NULL.
func (c *column) setNull(n, i int, null bool) {
	if c.nulls == nil {
		if !null {
			return
		}
		c.nulls = started[bool](c, n)
	}
	c.nulls[i] = null
}
