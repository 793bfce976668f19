package sqlengine

import "slices"

// Late materialisation. A planned SELECT does not turn its FROM into rows:
// the scan, the index bucket and the filters hand on a selection
// (parallel.go) — ascending positions into a table, or every row of a
// sub-select or a nested loop — and a hash join does not build joined rows: it
// hands on a two-sided selection, (left, right) position pairs in emission
// order. One of three consumers then writes only what the query returns
// into the result's typed columns (Rows), whatever the size of the input:
//
//   - top-k: ORDER BY over source columns keeps the best LIMIT+OFFSET
//     positions in a bounded heap ordered by (keys, position) and sorts
//     just those. The position tie-break is what a stable sort of the scan
//     order does, so the kept rows and their order are those of orderOutput.
//     Without a LIMIT every position is sorted, as packed machine words
//     radix-sorted in place (sortwords.go) where words order every key, and
//     by the Compare-based comparator — the reference — where they do not.
//   - aggregates (aggtail.go): a grouped SELECT — GROUP BY bare columns,
//     or none — whose aggregates are COUNT(*) or COUNT/SUM/TOTAL/AVG/MIN/
//     MAX, DISTINCT or not, over a bare column or a safe-total expression,
//     and whose select items, HAVING and ORDER BY terms are bare columns,
//     such aggregates or safe-total expressions over both, folds the
//     selected rows into typed accumulators in position order — the order
//     evalAggregate adds floats in and groups are first seen in — a vector
//     at a time, as the last filter or hash-join probe before it keeps
//     them (parallel.go). HAVING, DISTINCT, ORDER BY — through a heap of
//     LIMIT+OFFSET groups — and the window run over the groups, and only
//     the window's rows are written into the result.
//   - gather: a projection of bare columns copies the returned window into
//     the result, a column at a time.
//
// All three are serial and read cells at positions (selection.row and
// colAt.read: a table's or a sub-select's column, or a row of rows, on the
// left or the right of a join's pair). They charge nothing: the rows they
// read were charged when the FROM read them.
//
// A consumer applies only where evaluating less, or in another order, than
// the interpreter does cannot be observed: every expression it skips or
// moves is safe-total (planner.go), and a row tail's LIMIT/OFFSET are
// constants. Everything else — a non-grouped projection or ORDER BY that is
// not a column read, a computed LIMIT over rows, a GROUP BY expression
// (`GROUP BY num % 10`), GROUP_CONCAT, a select item, HAVING or ORDER BY
// over groups that may fail or runs a subquery — continues on projectTail,
// the interpreter's tail, which reads the selected rows in place, is the
// naive executor's and stays the reference implementation. Which consumer
// runs is decided at Prepare, from the bound select list (planSelect).

// Result.Path values: the consumer, prefixed by what it consumed — one
// relation's positions or a join's pairs — or rows with the clause that sent
// a planned selection to the interpreter's tail; plain rows is what never
// reaches a consumer (the naive executor, compound arms).
const (
	pathRows           = "rows"
	pathTopK           = "positions/topk"
	pathAgg            = "positions/agg"
	pathGather         = "positions/gather"
	pathPairsTopK      = "pairs/topk"
	pathPairsAgg       = "pairs/agg"
	pathPairsGather    = "pairs/gather"
	pathRowsProjection = "rows(projection)"
	pathRowsOrderBy    = "rows(order-by)"
	pathRowsLimit      = "rows(limit)"
	pathRowsAggregate  = "rows(aggregate)"
	pathRowsGroupBy    = "rows(group-by)"
	pathRowsHaving     = "rows(having)"
)

// notePath records the physical path of the statement's top-level SELECT.
func (ec *execCtx) notePath(sel *SelectStmt, path string) {
	if sel == ec.top {
		ec.path = path
	}
}

// tailPositions produces a planned SELECT's result from the selection its
// FROM and WHERE left — one relation's rows or a join's pairs: the consumer
// the plan chose, or projectTail over the materialised selection. anyRow
// (an EXISTS body, which is asked only whether it has a row) has a consumer
// return the first row of its result and no more.
func (ec *execCtx) tailPositions(sel *SelectStmt, s selection, outer *scope, pl *selectPlan, run *aggRun) (*Rows, error) {
	path := func(positions, pairs string) string {
		if s.right != nil {
			return pairs
		}
		return positions
	}
	switch {
	case pl.aggTail != nil:
		ec.notePath(sel, path(pathAgg, pathPairsAgg))
		return ec.aggregatePositions(sel, s, run, pl.anyRow)
	case pl.rowTail != nil:
		if len(pl.rowTail.keys) > 0 {
			ec.notePath(sel, path(pathTopK, pathPairsTopK))
		} else {
			ec.notePath(sel, path(pathGather, pathPairsGather))
		}
		return ec.rowTailPositions(sel, s, pl.rowTail, outer, pl.anyRow)
	}
	ec.notePath(sel, pl.reason)
	return ec.projectTail(sel, s, outer)
}

// scanPositions is the scan of base table i, whose first column is slot off
// of the FROM row, under the conjuncts pl pushes into it (none: every row):
// the first `col = literal` conjunct narrows the scan to the column's
// equality-index bucket (already a selection, ascending, so emission order
// is a full scan's), and every pushed conjunct — the indexed equality
// included, re-verified with real `=` semantics — then filters what is
// left: for a full scan through the typed columns where a conjunct has a
// vector form, and otherwise — over a bucket — reading each cell of the
// bucket (kernels.go).
// The scan is charged the rows it reads: the bucket, or the table. With
// run set, its filter folds the rows it keeps into run and hands on none.
func (ec *execCtx) scanPositions(t *Table, pl *selectPlan, off, i int, outer *scope, run *aggRun) (selection, error) {
	s := selection{src: t.rel(), all: true}
	pushed := false
	for k := range pl.where {
		c := &pl.where[k]
		if c.scan != i {
			continue
		}
		pushed = true
		if k := &c.kern; !c.point || !s.all || k.shape == noKernel {
			continue
		} else if k.lit.IsNull() { // `col = NULL` is never true: nothing selected
			s.all = false
		} else if pos, ok := t.eqLookup(k.col, k.lit); ok {
			s.all, s.pos = false, pos
		}
	}
	if err := ec.charge(int64(s.len())); err != nil || !pushed || s.len() == 0 {
		return s, err
	}
	ec.countBatches(s.len())
	return ec.filter(s, pl.where, i, off, outer, run)
}

// --- plain rows: gather, DISTINCT, top-k ---

// orderKey is one ORDER BY term resolved to a source column.
type orderKey struct {
	col  int
	desc bool
}

// rowTailPlan is a non-grouped SELECT whose tail runs on positions: output
// column i is source column ixs[i] — or the literal consts[^ixs[i]] when
// that is negative (projectionCols) — ORDER BY reads the source columns in
// keys, and LIMIT/OFFSET are constants.
type rowTailPlan struct {
	ixs    []int
	consts []Value
	keys   []orderKey
}

// planRowTail proves a non-grouped select list runs on positions, or names
// the clause that prevents it. The select list must be stars, bare columns
// and literals; every ORDER BY term must be one evalOrderTerm answers with a
// column read — an output column (an in-range ordinal or an output
// column's name, both read the projected column) or a column of the FROM
// row — because those cannot fail on any row, which makes sorting fewer
// rows than the interpreter unobservable; and LIMIT/OFFSET must be
// constants for the same reason, since they are read before the sort
// instead of after.
func planRowTail(sel *SelectStmt) (*rowTailPlan, string) {
	ixs, consts, ok := projectionCols(sel)
	if !ok {
		return nil, pathRowsProjection
	}
	rp := &rowTailPlan{ixs: ixs, consts: consts}
	for j, ob := range sel.OrderBy {
		col, ok := localCol(ob.Expr)
		if oi := sel.bound.order[j]; oi >= 0 {
			col, ok = ixs[oi], true
		}
		if !ok {
			return nil, pathRowsOrderBy
		}
		if col >= 0 { // a literal output column orders nothing
			rp.keys = append(rp.keys, orderKey{col: col, desc: ob.Desc})
		}
	}
	if !constLimit(sel.Limit) || !constLimit(sel.Offset) {
		return nil, pathRowsLimit
	}
	return rp, ""
}

// constLimit reports whether a LIMIT/OFFSET expression is absent, a
// literal or a negated literal: evaluating it needs no scope and cannot
// fail.
func constLimit(e Expr) bool {
	if u, ok := e.(*Unary); ok && u.op == opNeg {
		e = u.X
	}
	_, isLit := e.(*Literal)
	return e == nil || isLit
}

// rowTailPositions produces the result of a planned row tail: DISTINCT
// thins the selection to first occurrences, ORDER BY picks the window's
// positions through the heap (without it the window is a slice of the
// selection), and only the window — for anyRow its first row — is gathered.
func (ec *execCtx) rowTailPositions(sel *SelectStmt, s selection, rp *rowTailPlan, outer *scope, anyRow bool) (*Rows, error) {
	if sel.Distinct {
		s = distinctPositions(s, rp.ixs)
	}
	n := s.len()
	lo, hi := 0, n
	if sel.Limit != nil {
		limit, offset, err := ec.evalLimit(sel, outer)
		if err != nil {
			return nil, err
		}
		lo, hi = limitWindow(n, limit, offset)
	}
	if anyRow && hi > lo+1 {
		hi = lo + 1
	}
	if len(rp.keys) > 0 && hi > lo {
		// The one selection not in ascending order: it is only ever
		// gathered.
		s = s.pick(topPositions(&s, rp.keys, hi))
	}
	return gatherRows(&s, lo, hi, rp, sel.bound.columns), nil
}

// gatherRows projects selected rows lo..hi into a result, each cell read
// at its position and written straight into its output column.
func gatherRows(s *selection, lo, hi int, rp *rowTailPlan, columns []string) *Rows {
	var at [8]colAt // a narrow projection's addresses stay on the stack
	src := s.colsAt(at[:0], rp.ixs)
	return newRows(columns, hi-lo, func(i, k int) Value {
		a := &src[k]
		if a.col < 0 {
			return rp.consts[^a.col]
		}
		return a.read(s.row(lo + i))
	})
}

// distinctPositions keeps the first of every distinct projected row —
// dedupeOutput's rule, applied before anything is projected. Literal
// columns (negative ixs) are the same in every row and tell none apart.
func distinctPositions(s selection, ixs []int) selection {
	seen := make(map[string]struct{})
	var at [8]colAt
	cols := s.colsAt(at[:0], ixs)
	var kept []int
	var buf []byte
	for i, n := 0, s.len(); i < n; i++ {
		l, r := s.row(i)
		buf = buf[:0]
		for k := range cols {
			if cols[k].col < 0 {
				continue
			}
			buf = cols[k].read(l, r).AppendKey(buf)
			buf = append(buf, '\x00')
		}
		if _, dup := seen[string(buf)]; !dup {
			seen[string(buf)] = struct{}{}
			kept = append(kept, i)
		}
	}
	return s.pick(kept)
}

// topPositions returns the first k rows of s in ORDER BY order, as indexes
// into s. before(a, b) — keys in turn, then the lower index, which is the
// earlier row of the scan or of the join's emission — is the strict total
// order a stable sort of the input realises. With k = len(s) — no LIMIT —
// every row is sorted, through packed words (sortwords.go) when words can
// order every key. Otherwise selection and ordering are separate steps: a
// max-heap keeps the k best positions seen so far, its root replaced
// whenever a later row sorts before it, which ends holding exactly the rows
// a full stable sort would put first; the k kept positions are then sorted.
// The heap's admission test compares a row's first key with the root's, read
// once per replacement, and calls before only on a tie. So the one choice
// made here follows from k, n and the key cells alone.
func topPositions(s *selection, keys []orderKey, k int) []int {
	if k == 0 {
		return nil
	}
	var kbuf [4]sortKey
	ks := kbuf[:0]
	for _, key := range keys {
		ks = append(ks, sortKey{at: s.colAt(key.col), desc: key.desc})
	}
	before := func(a, b int) bool {
		la, ra := s.row(a)
		lb, rb := s.row(b)
		for i := range ks {
			if c := Compare(ks[i].at.read(la, ra), ks[i].at.read(lb, rb)); c != 0 {
				return (c < 0) != ks[i].desc
			}
		}
		return a < b
	}
	h := make([]int, k)
	n := s.len()
	if k == n && sortByWords(s, ks, h) {
		return h
	}
	for i := range h {
		h[i] = i
	}
	if k < n {
		// A max-heap: every parent sorts after its children, so h[0] is the
		// worst position kept.
		for i := k/2 - 1; i >= 0; i-- {
			heapDown(h, i, before)
		}
		// Admission compares row i's first key with the root's, read once per
		// replacement: two INTEGER or two REAL cells that differ decide it
		// as Compare would; a tie, NaN or two kinds is before's to decide.
		at0, desc0 := ks[0].at, ks[0].desc
		first := func(i int) Value {
			l, r := s.row(i)
			if at0.side != 0 {
				return at0.read(l, r)
			}
			return at0.at(l)
		}
		root := first(h[0])
		for i := k; i < n; i++ {
			v, m := first(i), uint8(2) // cmpMask's bits: 1 less, 2 equal, 4 greater
			switch {
			case v.Kind == KindInt && root.Kind == KindInt:
				m = cmpMask(v.I, root.I)
			case v.Kind == KindFloat && root.Kind == KindFloat:
				m = cmpMask(v.Real(), root.Real())
			}
			admit := (m == 1) != desc0
			if m == 2 {
				admit = before(i, h[0])
			}
			if admit {
				h[0] = i
				heapDown(h, 0, before)
				root = first(h[0])
			}
		}
	}
	slices.SortFunc(h, func(a, b int) int {
		if before(a, b) {
			return -1
		}
		return 1 // indexes are distinct, so never equal
	})
	return h
}
