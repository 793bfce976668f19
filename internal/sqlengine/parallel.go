package sqlengine

import (
	"math/bits"
	"slices"
)

// Selections and the filter. A FROM hands on a selection — positions into
// one relation's rows, or a hash join's position pairs — and one filter
// thins it for every WHERE and pushed conjunct, planned or naive. Every
// conjunct is compiled at Prepare for the one evaluator (eval.go); one of a
// column-against-literals shape reads its cell in place and, in a
// whole-table scan, may loop over the column's typed array (kernels.go).
// A hash join probes its whole left input in one range (hashjoin.go).
// Everything runs on the statement's own goroutine, whatever the size of
// the input, and emits the same rows in the same order as the naive
// reference.
//
// Both work a selection vector at a time, as MonetDB/X100 does (Boncz,
// Zukowski and Nes, CIDR 2005): up to vecRows input indexes that each
// conjunct narrows, or pairs the probe found. A vector goes to one
// consumer: an aggregate tail's fold (aggRun.fold) or the operator's output.
//
// Only safe-total expressions (planner.go) are ever split into conjuncts,
// pushed into a scan or run as a probe's residual: they cannot execute
// subqueries (the one path by which evaluation touches the execCtx) and
// cannot fail — their names were bound at Prepare — so evaluating them on
// fewer rows, in another order or through a vector cannot be observed.

// morselRows is the unit the batch operators' input is counted in
// (Result.Batches): a filter or a probe over n rows processes
// ceil(n/morselRows) morsels.
const morselRows = 4096

// vecRows is the length of a selection vector, a divisor of morselRows.
const vecRows = 1024

// countBatches counts a batch operator's input of nRows rows, in morsels,
// per statement (Result.Batches).
func (ec *execCtx) countBatches(nRows int) {
	ec.batches += int64((nRows + morselRows - 1) / morselRows)
}

// selection is a set of rows of one relation, held as ascending positions
// into src. all stands for every position without listing them, so an
// unfiltered scan costs nothing to describe; pos is never written through
// (it may be an equality-index bucket).
//
// A hash join's output is a two-sided selection (right != nil): row i is
// pairs[i], a position into src — the join's left input — and one into the
// right input's, in the nested loop's emission order. The joined rows exist
// only if materialise is called; filters thin the pair list and the tail
// consumers of positions.go read cells through it.
//
// An operator that folds its rows into an aggregate tail's run hands on
// none of them: a selection of its relation with no rows.
type selection struct {
	src   rel
	pos   []int
	all   bool
	right *rightSide
	pairs []pair
}

// rel is a relation a selection's positions index: n rows of typed
// columns, read in place — a base table's, or a sub-select's result's — or
// the rows a nested loop or a materialised join built, or the one empty row
// of a SELECT without FROM.
type rel struct {
	cols []column
	n    int
	rows [][]Value
}

func (r *rel) len() int {
	if r.cols != nil {
		return r.n
	}
	return len(r.rows)
}

// fill copies row p into dst, which has room for it.
func (r *rel) fill(dst []Value, p int) {
	if r.cols == nil {
		copy(dst, r.rows[p])
		return
	}
	for c := range r.cols {
		dst[c] = r.cols[c].value(p)
	}
}

// pair is one row of a join's output: a position into each input's
// relation; r < 0 is a LEFT JOIN null extension. int32 holds any position:
// every row of a join's input was read, and charged, by a scan or a join,
// and maxCost ends the statement far below 2^31.
type pair struct{ l, r int32 }

// rightSide is the right input of a join: its relation, the width of its
// rows and the width of the left input's — where the right row's columns
// start in the joined row.
type rightSide struct {
	src         rel
	width, left int
}

// colAt addresses one column of a selected row: which of its two rows
// holds it — the only or left relation's, or for a join's output the right
// relation's — and where: a typed column, a table's or a result's, or a
// column of rows. Consumers split their column numbers once, so reading a
// cell costs the same whichever kind of selection it is read from. A
// negative col addresses nothing (a literal output column, positions.go).
type colAt struct {
	side, col int
	c         *column
	rows      [][]Value
}

// read returns the cell of the selected row at positions (l, r).
func (c *colAt) read(l, r int) Value {
	if c.side != 0 {
		l = r
	}
	if l < 0 {
		return Value{}
	}
	return c.at(l)
}

// at returns the cell at position p of the relation on the column's side:
// read's body, which inlines where a loop over a one-sided selection — a
// hash join's input, an aggregate's — calls it.
func (c *colAt) at(p int) Value {
	if c.c != nil {
		return c.c.value(p)
	}
	return c.rows[p][c.col]
}

// scopeAt points sc at the selected row (l, r): a table's row in place, a
// row of rows itself, or for a join's output both rows copied into buf
// (rowBuf; one reused buffer per evaluating loop — nothing retains a
// scope's row past the evaluation).
func (s *selection) scopeAt(sc *scope, l, r int, buf []Value) {
	switch {
	case s.right != nil:
		s.fill(buf, l, r)
		sc.row, sc.cols = buf, nil
	case s.src.cols != nil:
		sc.cols, sc.pos = s.src.cols, l
	default:
		sc.row = s.src.rows[l]
	}
}

// fill copies the joined row (l, r) of a join's output into buf.
func (s *selection) fill(buf []Value, l, r int) {
	s.src.fill(buf, l)
	if r < 0 {
		clear(buf[s.right.left:])
	} else {
		s.right.src.fill(buf[s.right.left:], r)
	}
}

// rowBuf returns the buffer scopeAt joins a pair of s's rows into: nil
// unless s is a join's output.
func (s *selection) rowBuf() []Value {
	if s.right == nil {
		return nil
	}
	return make([]Value, s.right.left+s.right.width)
}

// keepScope returns a scope of its own for the selected row (l, r), whose
// row stays valid after the loop that reads s moves on: a position in a
// table or a row of rows, or a join's row copied.
func (s *selection) keepScope(l, r int, outer *scope) *scope {
	sc := &scope{parent: outer}
	s.scopeAt(sc, l, r, s.rowBuf())
	return sc
}

// colAt addresses column col of s's rows: for a join's output, a column
// past the left input's is the right row's.
func (s *selection) colAt(col int) colAt {
	src, at := &s.src, colAt{col: col}
	if s.right != nil && col >= s.right.left {
		src, at = &s.right.src, colAt{side: 1, col: col - s.right.left}
	}
	switch {
	case col < 0:
	case src.cols != nil:
		at.c = &src.cols[at.col]
	default:
		at.rows = src.rows
	}
	return at
}

// colsAt appends the addresses of columns cols of s's rows to dst.
func (s *selection) colsAt(dst []colAt, cols []int) []colAt {
	dst = slices.Grow(dst, len(cols))
	for _, col := range cols {
		dst = append(dst, s.colAt(col))
	}
	return dst
}

func (s *selection) len() int {
	switch {
	case s.all:
		return s.src.len()
	case s.right != nil:
		return len(s.pairs)
	default:
		return len(s.pos)
	}
}

// at returns the row position of the i'th selected row of a one-sided
// selection.
func (s *selection) at(i int) int {
	if s.all {
		return i
	}
	return s.pos[i]
}

// row returns the positions of the i'th selected row: in the only (or
// left) relation and, for a join's output, in the right relation (-1
// otherwise, and for a null extension).
func (s *selection) row(i int) (l, r int) {
	if s.right == nil {
		return s.at(i), -1
	}
	p := s.pairs[i]
	return int(p.l), int(p.r)
}

// materialise returns a join's output as rows, in order, built in one
// backing array (one full-capacity sub-slice per row, so appending to one
// cannot reach its neighbour). Only a further join reads a join's output
// as rows; a table is never materialised.
func (s selection) materialise() [][]Value {
	n := s.len()
	if n == 0 {
		return nil
	}
	w := s.right.left + s.right.width
	backing := make([]Value, n*w)
	out := make([][]Value, n)
	for i := range out {
		l, r := s.row(i)
		out[i] = backing[i*w : (i+1)*w : (i+1)*w]
		s.fill(out[i], l, r)
	}
	return out
}

// pick returns the selection of s's rows idx, in idx's order (idx is
// consumed). Only gathering may follow an idx that is not ascending.
func (s selection) pick(idx []int) selection {
	out := selection{src: s.src, right: s.right}
	if s.right != nil {
		out.pairs = make([]pair, len(idx))
		for j, i := range idx {
			out.pairs[j] = s.pairs[i]
		}
		return out
	}
	if !s.all {
		for j, i := range idx {
			idx[j] = s.pos[i]
		}
	}
	out.pos = idx
	return out
}

// keep returns the selection of the n rows of s whose bit is set in mask.
// When that is all of them it is s itself: pos may go on aliasing an index
// bucket, all stays all. keep(nil, 0) is no rows of any selection.
func (s selection) keep(mask []uint64, n int) selection {
	if n == s.len() {
		return s
	}
	out := selection{src: s.src, right: s.right}
	if s.right != nil {
		out.pairs = make([]pair, n)
	} else {
		out.pos = make([]int, n)
	}
	k := 0
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			if s.right != nil {
				out.pairs[k] = s.pairs[i]
			} else {
				out.pos[k] = s.at(i)
			}
			k++
		}
	}
	return out
}

// filter returns the selection of in's rows on which every conjunct of conj
// that the scan of FROM item item evaluates (conjunct.scan; -1: the filter
// after the FROM) is TRUE, in input order — or, with run set, folds them
// into run and hands on none. The rows' first column is slot off of the
// FROM row. Each conjunct narrows a vector of input indexes in a loop of its
// own, so a row is tested up to its first conjunct that is not TRUE — the
// naive AND chain's reach; a WHERE that may not be split is one conjunct,
// evaluated on every row in order. A compiled conjunct (kernels.go) reads a
// coded column's codes through its coded form where in selects a table's
// rows, its column's typed array through its vector form where in is a
// whole table, and its cell of each row through its row form otherwise; any
// other conjunct is the evaluator's, in one environment (and, over a join's
// output, one pair buffer) built on first use. A listed output is marked in
// a bitmask and allocated once, at its exact size, or not at all when
// everything passes.
func (ec *execCtx) filter(in selection, conj []conjunct, item, off int, outer *scope, run *aggRun) (selection, error) {
	// How each of item's conjuncts reads a row; a short conjunction's stay
	// on the stack.
	type form struct {
		c     *conjunct
		test  func(p int) bool
		coded codedForm
		at    colAt
	}
	forms := make([]form, 0, 4)
	var env *evalEnv
	var buf []Value
	for k := range conj {
		f := form{c: &conj[k]}
		switch kern := &f.c.kern; {
		case f.c.scan != item:
			continue
		case in.src.cols != nil && in.right == nil && kern.shape != noKernel:
			col := &in.src.cols[kern.col]
			var coded bool
			if f.coded, coded = kern.coded(col); !coded && in.all {
				f.test = kern.test(col)
			}
			fallthrough
		case kern.shape != noKernel:
			f.at = in.colAt(kern.col)
		case env == nil:
			env = &evalEnv{ec: ec, sc: &scope{off: off, parent: outer}}
			buf = in.rowBuf()
		}
		forms = append(forms, f)
	}
	n := in.len()
	var mask []uint64
	if run == nil {
		mask = make([]uint64, (n+63)/64)
	} else {
		run.start(&in, n)
	}
	var vec [vecRows]int32
	total := 0
	for lo := 0; lo < n; lo += vecRows {
		sel := vec[:min(vecRows, n-lo)]
		for j := range sel {
			sel[j] = int32(lo + j)
		}
		// Each loop keeps a row by writing its index over the vector's
		// next kept slot, which never lies ahead of the row it reads.
		for k := range forms {
			f, kept := &forms[k], 0
			switch kern := &f.c.kern; {
			case f.coded.codes != nil:
				for _, i := range sel {
					sel[kept] = i
					if f.coded.holds(in.at(int(i))) {
						kept++
					}
				}
			case f.test != nil:
				for _, i := range sel {
					sel[kept] = i
					if f.test(int(i)) {
						kept++
					}
				}
			case kern.shape != noKernel:
				for _, i := range sel {
					sel[kept] = i
					if t, known := kern.rule(kern, f.at.read(in.row(int(i)))); known && t != kern.not {
						kept++
					}
				}
			default:
				for _, i := range sel {
					l, r := in.row(int(i))
					in.scopeAt(env.sc, l, r, buf)
					sel[kept] = i
					if ok, err := env.holds(f.c.expr); err != nil {
						return selection{}, err
					} else if ok {
						kept++
					}
				}
			}
			sel = sel[:kept]
		}
		if run != nil {
			run.fold(&in, 0, sel)
			continue
		}
		total += len(sel)
		for _, i := range sel {
			mask[i/64] |= 1 << (i % 64)
		}
	}
	return in.keep(mask, total), nil
}
