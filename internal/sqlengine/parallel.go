package sqlengine

import (
	"math/bits"
	"sync/atomic"
)

// Batch execution. A planned filter runs compiled kernels (kernels.go) over
// its whole input in one pass, marking survivors in one bitmask, and a hash
// join probes its whole left input in one range (hashjoin.go); both run on
// the statement's own goroutine, whatever the size of the input, and emit
// the same rows in the same order as the interpreter's loop.
//
// Only safe-total expressions (planner.go) ever run as a kernel or a probe's
// residual: they cannot execute subqueries (the one path by which evaluation
// touches the execCtx) and cannot fail except for row-independent column
// resolution errors, so a kernel may stand in for the interpreter.

// morselRows is the unit the batch operators' input is counted in
// (Result.Batches): a filter or a probe over n rows processes
// ceil(n/morselRows) morsels.
const morselRows = 4096

// engineBatchesTotal counts the morsels processed by batch operators,
// engine-wide; exported to the metrics registry by RegisterEngineExecMetrics
// (obs.go).
var engineBatchesTotal atomic.Int64

// countBatches counts a batch operator's input of nRows rows, in morsels,
// per statement (Result.Batches) and engine-wide.
func (ec *execCtx) countBatches(nRows int) {
	n := int64((nRows + morselRows - 1) / morselRows)
	ec.batches += n
	engineBatchesTotal.Add(n)
}

// selection is a set of rows of one relation, held as ascending positions
// into rows. all stands for every position without listing them, so an
// unfiltered scan costs nothing to describe; pos is never written through
// (it may be an equality-index bucket).
//
// A hash join's output is a two-sided selection (right != nil): row i is
// pairs[i], a position into rows — the join's left input — and one into the
// right input, in the nested loop's emission order. The joined rows exist
// only if materialise is called; filters thin the pair list and the tail
// consumers of positions.go read cells through it.
type selection struct {
	rows  [][]Value
	pos   []int
	all   bool
	right *rightSide
	pairs []pair
}

// pair is one row of a join's output. r < 0 is a LEFT JOIN null extension.
// int32 holds any position: every row of a join's input was read, and
// charged, by a scan or a join, and maxCost ends the statement far below
// 2^31.
type pair struct{ l, r int32 }

// rightSide is the right input of a join: its rows, the all-NULL row that
// stands in for them under a null extension, and the width of the left
// input's rows — where the right row's columns start in the joined row.
type rightSide struct {
	rows [][]Value
	null []Value
	left int
}

// colAt addresses one column of a selected row (selection.row): which of
// its two rows holds it — the only or left relation's, or for a join's
// output the right relation's — and where. Consumers split their column
// numbers once, so reading a cell costs the same whichever kind of
// selection it is read from.
type colAt struct{ side, col int }

// cell reads column c of the selected row (l, r).
func cell(l, r []Value, c colAt) Value {
	if c.side != 0 {
		l = r
	}
	return l[c.col]
}

// splitCol addresses column col of a row whose first left columns are the
// left relation's (left 0: a one-sided row, everything in the only relation).
func splitCol(left, col int) colAt {
	if left > 0 && col >= left {
		return colAt{side: 1, col: col - left}
	}
	return colAt{col: col}
}

// scopeRow returns the selected row (l, r) as one row slice for the
// interpreter: l itself, or for a join's output both rows copied into buf
// (one reused buffer per evaluating goroutine — nothing retains a scope's
// row past the evaluation).
func scopeRow(l, r, buf []Value) []Value {
	if r == nil {
		return l
	}
	copy(buf[copy(buf, l):], r)
	return buf
}

// leftWidth is splitCol's left for s's rows.
func (s *selection) leftWidth() int {
	if s.right == nil {
		return 0
	}
	return s.right.left
}

// colAt addresses column col of s's rows.
func (s *selection) colAt(col int) colAt { return splitCol(s.leftWidth(), col) }

// colsAt addresses columns cols of s's rows.
func (s *selection) colsAt(cols []int) []colAt {
	out := make([]colAt, len(cols))
	for i, col := range cols {
		out[i] = s.colAt(col)
	}
	return out
}

func (s *selection) len() int {
	switch {
	case s.all:
		return len(s.rows)
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

// row returns the i'th selected row: the row of the only (or left) relation
// and, for a join's output, the right relation's row (nil otherwise). Two
// slices, not a struct of two: the compiler keeps a composite wider than
// four words in memory, which cost the single-table consumers 20-50%.
func (s *selection) row(i int) (l, r []Value) {
	if s.right == nil {
		return s.rows[s.at(i)], nil
	}
	p := s.pairs[i]
	if p.r < 0 {
		return s.rows[p.l], s.right.null
	}
	return s.rows[p.l], s.right.rows[p.r]
}

// materialise returns the selected rows as row slices, in order. A join's
// rows are built here, in one backing array (one full-capacity sub-slice per
// row, so appending to one cannot reach its neighbour).
func (s selection) materialise() [][]Value {
	if s.all {
		return s.rows
	}
	if s.right == nil {
		out := make([][]Value, len(s.pos))
		for i, p := range s.pos {
			out[i] = s.rows[p]
		}
		return out
	}
	if len(s.pairs) == 0 {
		return nil
	}
	w := s.right.left + len(s.right.null)
	backing := make([]Value, len(s.pairs)*w)
	out := make([][]Value, len(s.pairs))
	for i := range out {
		l, r := s.row(i)
		out[i] = scopeRow(l, r, backing[i*w:(i+1)*w:(i+1)*w])
	}
	return out
}

// pick returns the selection of s's rows idx, in idx's order (idx is
// consumed). Only gathering may follow an idx that is not ascending.
func (s selection) pick(idx []int) selection {
	out := selection{rows: s.rows, right: s.right}
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
// bucket, all stays all.
func (s selection) keep(mask []uint64, n int) selection {
	if n == s.len() {
		return s
	}
	out := selection{rows: s.rows, right: s.right}
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

// filterPositions applies compiled predicates to the selected rows and
// returns the selection of the survivors, in input order. Index-form kernels
// (byIdx) require in to be a selection of the base table the predicates were
// compiled against; expression fallbacks evaluate in one environment (and,
// over a join's output, one pair buffer) built on first use. Survivors are
// marked in a bitmask and the output is allocated once, at its exact size, or
// not at all when everything passes.
func (ec *execCtx) filterPositions(cols []scopeCol, in selection, preds []rowPred, outer *scope) (selection, error) {
	n := in.len()
	ec.countBatches(n)
	mask := make([]uint64, (n+63)/64)
	total := 0
	var env *evalEnv
	var buf []Value
rows:
	for i := 0; i < n; i++ {
		for k := range preds {
			p := &preds[k]
			var ok bool
			switch {
			case p.byIdx != nil:
				ok = p.byIdx(in.at(i))
			case p.expr == nil:
				l, r := in.row(i)
				ok = p.pass(cell(l, r, p.at))
			default:
				if env == nil {
					env = &evalEnv{ec: ec, sc: &scope{cols: cols, parent: outer}}
					if in.right != nil {
						buf = make([]Value, len(cols))
					}
				}
				l, r := in.row(i)
				env.sc.row = scopeRow(l, r, buf)
				v, err := env.eval(p.expr)
				if err != nil {
					return selection{}, err
				}
				t, known := v.Truth()
				ok = t && known
			}
			if !ok {
				continue rows
			}
		}
		mask[i/64] |= 1 << (i % 64)
		total++
	}
	return in.keep(mask, total), nil
}

// filterInterpreted is the in-order filter for what may not run as kernels —
// an unsafe WHERE, whose subqueries run and fill the memo — and the naive
// reference's: every selected row is visited in order and passes iff
// where is true on it. A join's output is evaluated in one reused pair
// buffer.
func (ec *execCtx) filterInterpreted(cols []scopeCol, in selection, where Expr, outer *scope) (selection, error) {
	n := in.len()
	mask := make([]uint64, (n+63)/64)
	sc := &scope{cols: cols, parent: outer}
	env := &evalEnv{ec: ec, sc: sc}
	var buf []Value
	if in.right != nil {
		buf = make([]Value, len(cols))
	}
	total := 0
	for i := 0; i < n; i++ {
		l, r := in.row(i)
		sc.row = scopeRow(l, r, buf)
		v, err := env.eval(where)
		if err != nil {
			return selection{}, err
		}
		if t, known := v.Truth(); t && known {
			mask[i/64] |= 1 << (i % 64)
			total++
		}
	}
	return in.keep(mask, total), nil
}
