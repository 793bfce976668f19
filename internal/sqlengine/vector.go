package sqlengine

import (
	"slices"
	"strings"
)

// Column storage. A table holds each of its columns once, typed, and so
// does a query result (Rows): the cells of a column whose non-NULL cells
// share one storage class sit in one array beside a NULL bitmap — nums for
// INTEGER and REAL, 8 bytes a cell holding what a Value's word I holds (an
// INTEGER, or a REAL's bits), strs for TEXT, a 16-byte string header a cell
// — and only a column that holds cells of two classes keeps them as Values,
// in vals. A frozen table's TEXT column whose distinct strings are few
// enough (worthCoding) is coded instead: a 4-byte code a cell, indexing a
// dictionary of its distinct strings in ascending byte order, each held
// once (textDict). Everything that reads a table reads it here, by
// (position, column): the filter kernels run typed loops over the arrays,
// and over a coded column over its codes (kernels.go), the equality index
// and the hash join key on the cells — a coded column's index is its codes'
// posting lists (catalog.go) — and the tail consumers, the interpreter and
// DML read cells at positions (Table.Cell, column.value), a coded cell
// without allocating. DML changes an unfrozen table's arrays in place:
// INSERT and BulkInsert append to every column, UPDATE rewrites cells,
// DELETE rebuilds them; a cell of another class turns its column mixed. A
// frozen table refuses DML, so a coded column is never written. A result's
// columns are written once, a cell at a time (add), by the consumers of
// positions.go or from rows (NewRows), and read the same way (Rows.Cell).

// column is one column of a table's or a result's cells. kind is the
// storage class of every non-NULL cell, KindNull while there is none;
// exactly the array of that class is live, nums or strs, one cell per row,
// a NULL row holding its zero — or, for a coded TEXT column, dict instead
// of strs. A mixed column has vals, holding every cell, and no other array.
// nulls is the NULL bitmap of an unmixed column, true for a NULL row, nil
// while no cell is NULL. room is the capacity a reserve asked for, which an
// array started within that call is made with. Every result cell pays for
// this header, so it is kept at 112 bytes (TestColumnLayout).
type column struct {
	kind  Kind
	room  int32
	nulls []bool
	nums  []int64
	strs  []string
	vals  []Value
	dict  *textDict
}

// textDict is a coded TEXT column's cells: codes[i] is row i's code, the
// index of its string in words, which holds each distinct string of the
// column once, in ascending byte order (strings.Compare's), so that a range
// of strings is a range of codes. A NULL row holds code 0.
type textDict struct {
	codes []uint32
	words []string
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
	case c.kind != KindText:
		return Value{Kind: c.kind, I: c.nums[i]}
	case c.dict != nil:
		return Value{Kind: KindText, S: c.dict.words[c.dict.codes[i]]}
	}
	return Value{Kind: KindText, S: c.strs[i]}
}

// reserve makes room for extra cells after the n the column holds: every
// array it has, or starts before they are added, holds them without
// growing.
func (c *column) reserve(n, extra int) {
	c.room = int32(n + extra)
	c.nums = grown(c.nums, n+extra)
	c.strs = grown(c.strs, n+extra)
	c.vals = grown(c.vals, n+extra)
	c.nulls = grown(c.nulls, n+extra)
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
	if int(c.room) >= n {
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

// worthCoding is the one rule that decides whether a TEXT column of n rows,
// d distinct strings among them, is coded at freeze: when its codes and
// the dictionary's string headers take fewer bytes than a header a row.
// The strings' own bytes are held either way — a plain column holds at
// least one copy of each distinct string, a coded one exactly one — so
// they are on both sides and drop out.
func worthCoding(n, d int) bool {
	const codeBytes, headerBytes = 4, 16
	return codeBytes*n+headerBytes*d < headerBytes*n
}

// code turns an n-row typed TEXT column into a coded one when worthCoding
// says so, in one pass: each row takes the number of its string in order of
// first appearance, and once the strings are sorted and copied into one
// block, the dictionary, each number is replaced by its string's place
// there. The pass gives up as soon as the distinct strings are too many.
// Any other column is left as it is.
func (c *column) code(n int) {
	if c.kind != KindText || c.vals != nil || c.dict != nil {
		return
	}
	ids := make(map[string]uint32)
	var words []string
	codes := make([]uint32, n)
	for i, s := range c.strs {
		if c.null(i) {
			continue
		}
		id, ok := ids[s]
		if !ok {
			if !worthCoding(n, len(words)+1) {
				return
			}
			id = uint32(len(words))
			ids[s] = id
			words = append(words, s)
		}
		codes[i] = id
	}
	order := make([]uint32, len(words)) // sorted place -> first-seen number
	size := 0
	for i, s := range words {
		order[i] = uint32(i)
		size += len(s)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(words[a], words[b]) })
	var b strings.Builder
	b.Grow(size)
	for _, id := range order {
		b.WriteString(words[id])
	}
	block, at := b.String(), 0
	sorted, place := make([]string, len(words)), make([]uint32, len(words))
	for k, id := range order {
		l := len(words[id])
		sorted[k], place[id] = block[at:at+l], uint32(k)
		at += l
	}
	for i, id := range codes {
		if !c.null(i) {
			codes[i] = place[id]
		}
	}
	c.strs, c.dict = nil, &textDict{codes: codes, words: sorted}
}

// compact drops the room the column's arrays have past its n cells: a
// frozen table never grows.
func (c *column) compact(n int) {
	c.nulls = exactly(c.nulls, n)
	c.nums = exactly(c.nums, n)
	c.strs = exactly(c.strs, n)
	c.vals = exactly(c.vals, n)
	c.room = 0
}

// exactly returns s reallocated at capacity n when it has more; nil stays
// nil.
func exactly[T any](s []T, n int) []T {
	if cap(s) <= n {
		return s
	}
	return append(make([]T, 0, n), s[:n]...)
}
