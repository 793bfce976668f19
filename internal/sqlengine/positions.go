package sqlengine

import "slices"

// Late materialisation. A planned SELECT does not turn its FROM into rows:
// the scan, the index bucket and the filters hand on a selection
// (parallel.go) — ascending positions into t.Rows, or every row of a
// sub-select or a nested loop — and a hash join does not build joined rows: it
// hands on a two-sided selection, (left, right) position pairs in emission
// order. One of three consumers then builds []Value rows only for what the
// query returns, whatever the size of the input:
//
//   - top-k: ORDER BY over source columns keeps the best LIMIT+OFFSET
//     positions in a bounded heap ordered by (keys, position) and sorts
//     just those. The position tie-break is what a stable sort of the scan
//     order does, so the kept rows and their order are those of orderOutput.
//     Without a LIMIT every position is sorted, as packed machine words
//     radix-sorted in place (sortwords.go) where words order every key, and
//     by the Compare-based comparator — the reference — where they do not.
//   - aggregates: COUNT/SUM/TOTAL/AVG/MIN/MAX over a bare column, ungrouped
//     or grouped by bare columns, fold each selected cell into a typed
//     accumulator in position order — the order evalAggregate adds floats
//     in and the order groups are first seen in.
//   - gather: a projection of bare columns copies the returned window into
//     one backing array.
//
// All three are serial and read the relations' rows directly (selection.row
// and cell: one row for a one-sided selection, the left or the right row for
// a join's): no column vector is built for a column that is only sorted,
// aggregated or joined. They charge nothing: the rows they read were
// charged when the FROM read them.
//
// A consumer applies only where evaluating less than the interpreter does
// cannot be observed: every expression it skips is a column read that
// cannot fail, and LIMIT/OFFSET are constants. Everything else — expression
// keys or projections, DISTINCT aggregates, HAVING, an ORDER BY that needs
// the row's environment, a computed LIMIT, a column name the two sides of a
// join share — materialises the selection once (for a join: builds the
// joined rows it kept) and continues on projectTail, the interpreter's tail,
// which is the naive executor's and stays the reference implementation.

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
// the select list allows, or projectTail over the materialised selection.
// anyRow (an EXISTS body, which is asked only whether it has a row) has a
// consumer return the first row of its result and no more.
func (ec *execCtx) tailPositions(sel *SelectStmt, src *rowSet, s selection, outer *scope, anyRow bool) (*Rows, error) {
	path := func(positions, pairs string) string {
		if s.right != nil {
			return pairs
		}
		return positions
	}
	columns := projectionNames(sel, src)
	var reason string
	if len(sel.GroupBy) > 0 || anyAggregate(sel) {
		var ap *aggPlan
		if ap, reason = planAggTail(sel, src.cols, columns); ap != nil {
			ec.notePath(sel, path(pathAgg, pathPairsAgg))
			return ec.aggregatePositions(sel, s, ap, columns, outer, anyRow)
		}
	} else {
		var rp *rowTailPlan
		if rp, reason = planRowTail(sel, src.cols, columns); rp != nil {
			if len(rp.keys) > 0 {
				ec.notePath(sel, path(pathTopK, pathPairsTopK))
			} else {
				ec.notePath(sel, path(pathGather, pathPairsGather))
			}
			return ec.rowTailPositions(sel, s, rp, columns, outer, anyRow)
		}
	}
	ec.notePath(sel, reason)
	return ec.projectTail(sel, src, s.materialise(), outer)
}

// scanPositions is the scan of base table i under the conjuncts of where fp
// pushes into it (none: every row): the first usable `col = literal`
// conjunct narrows the scan to the column's equality-index bucket (already a
// selection, ascending, so emission order is a full scan's), and every
// pushed conjunct — the indexed equality included, re-verified with real `=`
// semantics — then filters what is left, through kernels: over the column
// vectors for a full scan, and over the rows themselves for a bucket, which
// is small and not worth a vector. The scan is charged the rows it reads:
// the bucket, or the table.
func (ec *execCtx) scanPositions(t *Table, cols []scopeCol, where []conjunct, fp *fromPlan, i int, outer *scope) (selection, error) {
	s := selection{rows: t.Rows, all: true}
	pushed := false
	for k, c := range where {
		if !fp.pushedAt(k, i) {
			continue
		}
		pushed = true
		if c.eqLit == nil || !s.all {
			continue
		}
		col, cnt := resolveCols(cols, c.eqLit.col)
		if cnt != 1 {
			continue
		}
		if c.eqLit.lit.IsNull() { // `col = NULL` is never true: nothing selected
			s.all = false
		} else if pos, ok := t.eqLookup(col, string(coarseKey(nil, c.eqLit.lit))); ok {
			s.all, s.pos = false, pos
		}
	}
	if err := ec.charge(int64(s.len())); err != nil || !pushed || s.len() == 0 {
		return s, err
	}
	ps := predSource{cols: cols}
	if s.all {
		ps.t = t
	}
	preds := make([]rowPred, 0, 4)
	for k, c := range where {
		if fp.pushedAt(k, i) {
			preds = append(preds, compilePred(ps, c.expr))
		}
	}
	return ec.filterPositions(cols, s, preds, outer)
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
// column read — an in-range ordinal, an output column name (both read the
// projected column), or a column reference resolving uniquely in the scan
// — because those cannot fail on any row, which makes sorting fewer rows
// than the interpreter unobservable; and LIMIT/OFFSET must be constants for
// the same reason, since they are read before the sort instead of after.
func planRowTail(sel *SelectStmt, cols []scopeCol, columns []string) (*rowTailPlan, string) {
	ixs, consts, ok := projectionCols(sel, cols)
	if !ok {
		return nil, pathRowsProjection
	}
	rp := &rowTailPlan{ixs: ixs, consts: consts}
	for _, ob := range sel.OrderBy {
		col, ok := bareColumn(ob.Expr, cols)
		if oi := outputOrderTerm(ob.Expr, columns); oi >= 0 {
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
	if u, ok := e.(*Unary); ok && u.Op == "-" {
		e = u.X
	}
	_, isLit := e.(*Literal)
	return e == nil || isLit
}

// rowTailPositions produces the result of a planned row tail: DISTINCT
// thins the selection to first occurrences, ORDER BY picks the window's
// positions through the heap (without it the window is a slice of the
// selection), and only the window — for anyRow its first row — is gathered.
func (ec *execCtx) rowTailPositions(sel *SelectStmt, s selection, rp *rowTailPlan, columns []string, outer *scope, anyRow bool) (*Rows, error) {
	if sel.Distinct {
		s = distinctPositions(s, rp.ixs)
	}
	out := &Rows{Columns: columns}
	n := s.len()
	if n == 0 {
		return out, nil // no rows at all: Data stays nil, as from projectTail
	}
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
	if len(rp.keys) > 0 {
		// The one selection not in ascending order: it is only ever
		// gathered.
		s = s.pick(topPositions(&s, rp.keys, hi))
	}
	out.Data = gatherRows(&s, lo, hi, rp)
	return out, nil
}

// gatherRows projects selected rows lo..hi into one backing array, one
// full-capacity sub-slice per row so appending to a result row cannot reach
// its neighbour.
func gatherRows(s *selection, lo, hi int, rp *rowTailPlan) [][]Value {
	w := len(rp.ixs)
	cols := s.colsAt(rp.ixs)
	backing := make([]Value, (hi-lo)*w)
	data := make([][]Value, hi-lo)
	for i := range data {
		vals := backing[i*w : (i+1)*w : (i+1)*w]
		l, r := s.row(lo + i)
		for k, c := range cols {
			if c.col < 0 {
				vals[k] = rp.consts[^c.col]
			} else {
				vals[k] = cell(l, r, c)
			}
		}
		data[i] = vals
	}
	return data
}

// distinctPositions keeps the first of every distinct projected row —
// dedupeOutput's rule, applied before anything is projected. Literal
// columns (negative ixs) are the same in every row and tell none apart.
func distinctPositions(s selection, ixs []int) selection {
	seen := make(map[string]struct{})
	cols := s.colsAt(ixs)
	var kept []int
	var buf []byte
	for i, n := 0, s.len(); i < n; i++ {
		l, r := s.row(i)
		buf = buf[:0]
		for _, c := range cols {
			if c.col < 0 {
				continue
			}
			buf = cell(l, r, c).AppendKey(buf)
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
	ks := make([]sortKey, len(keys))
	for i, key := range keys {
		ks[i] = sortKey{at: s.colAt(key.col), desc: key.desc}
	}
	before := func(a, b int) bool {
		la, ra := s.row(a)
		lb, rb := s.row(b)
		for i := range ks {
			if c := Compare(cell(la, ra, ks[i].at), cell(lb, rb, ks[i].at)); c != 0 {
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
		// siftDown restores the heap below i: every parent sorts after its
		// children, so h[0] is the worst position kept.
		siftDown := func(i int) {
			for {
				worst := i
				if l := 2*i + 1; l < k && before(h[worst], h[l]) {
					worst = l
				}
				if r := 2*i + 2; r < k && before(h[worst], h[r]) {
					worst = r
				}
				if worst == i {
					return
				}
				h[i], h[worst] = h[worst], h[i]
				i = worst
			}
		}
		for i := k/2 - 1; i >= 0; i-- {
			siftDown(i)
		}
		// Admission compares row i's first key with the root's, read once per
		// replacement: two INTEGER or two REAL cells that differ decide it
		// as Compare would; a tie, NaN or two kinds is before's to decide.
		at0, desc0 := ks[0].at, ks[0].desc
		first := func(i int) Value {
			l, r := s.row(i)
			return cell(l, r, at0)
		}
		root := first(h[0])
		for i := k; i < n; i++ {
			v, m := first(i), uint8(2) // cmpMask3's bits: 1 less, 2 equal, 4 greater
			switch {
			case v.Kind == KindInt && root.Kind == KindInt:
				m = cmpMaskInt(v.I, root.I)
			case v.Kind == KindFloat && root.Kind == KindFloat:
				m = cmpMaskFloat(v.Real(), root.Real())
			}
			admit := (m == 1) != desc0
			if m == 2 {
				admit = before(i, h[0])
			}
			if admit {
				h[0] = i
				siftDown(0)
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

// --- aggregates ---

// aggFn is what one output column of an aggregate tail computes.
type aggFn uint8

const (
	aggGroupCol  aggFn = iota // a bare column, read from the group's first row
	aggCountStar              // COUNT(*)
	aggCount
	aggSum
	aggTotal
	aggAvg
	aggMin
	aggMax
)

type aggItem struct {
	fn  aggFn
	col int // source column; unused by COUNT(*)
}

// aggPlan is a grouped SELECT whose tail runs on positions: groups keyed
// by the source columns in groupCols (none: one group over everything),
// one aggItem per output column.
type aggPlan struct {
	groupCols []int
	items     []aggItem
}

// planAggTail proves a grouped select list runs on typed accumulators, or
// names the clause that prevents it: GROUP BY bare columns only; every
// select item a bare column or one of COUNT(*), COUNT/SUM/TOTAL/AVG/MIN/
// MAX(bare column) without DISTINCT; no HAVING; ORDER BY by ordinal or
// output column name only, because finishSelect sorts the group rows
// without an environment to evaluate anything else in. Every reference
// must resolve uniquely in the scan, so no item can fail.
func planAggTail(sel *SelectStmt, cols []scopeCol, columns []string) (*aggPlan, string) {
	ap := &aggPlan{}
	for _, ge := range sel.GroupBy {
		col, ok := bareColumn(ge, cols)
		if !ok {
			return nil, pathRowsGroupBy
		}
		ap.groupCols = append(ap.groupCols, col)
	}
	for _, item := range sel.Columns {
		if item.Star {
			return nil, pathRowsProjection
		}
		if col, ok := bareColumn(item.Expr, cols); ok {
			ap.items = append(ap.items, aggItem{fn: aggGroupCol, col: col})
			continue
		}
		fc, ok := item.Expr.(*FuncCall)
		if !ok || !isAggregateCall(fc) {
			return nil, pathRowsProjection
		}
		it, ok := aggItemOf(fc, cols)
		if !ok {
			return nil, pathRowsAggregate
		}
		ap.items = append(ap.items, it)
	}
	if sel.Having != nil {
		return nil, pathRowsHaving
	}
	for _, ob := range sel.OrderBy {
		if outputOrderTerm(ob.Expr, columns) < 0 {
			return nil, pathRowsOrderBy
		}
	}
	return ap, ""
}

func aggItemOf(fc *FuncCall, cols []scopeCol) (aggItem, bool) {
	if fc.Distinct {
		return aggItem{}, false
	}
	if fc.Star {
		return aggItem{fn: aggCountStar}, fc.Name == "COUNT"
	}
	if len(fc.Args) != 1 {
		return aggItem{}, false
	}
	col, ok := bareColumn(fc.Args[0], cols)
	if !ok {
		return aggItem{}, false
	}
	it := aggItem{col: col}
	switch fc.Name {
	case "COUNT":
		it.fn = aggCount
	case "SUM":
		it.fn = aggSum
	case "TOTAL":
		it.fn = aggTotal
	case "AVG":
		it.fn = aggAvg
	case "MIN":
		it.fn = aggMin
	case "MAX":
		it.fn = aggMax
	default: // GROUP_CONCAT
		return aggItem{}, false
	}
	return it, true
}

// aggState accumulates one aggregate over one group. n counts what the
// aggregate counts: rows for COUNT(*), non-NULL cells otherwise. sumI and
// sumF are evalAggregate's two running sums (SUM answers with sumI only
// while every cell was an integer); best is MIN/MAX's current pick.
type aggState struct {
	n      int64
	sumI   int64
	sumF   float64
	nonInt bool
	best   Value
}

// add folds one cell in, in evalAggregate's order of operations. COUNT(*)
// reads no cell: aggregatePositions counts its rows itself.
func (st *aggState) add(fn aggFn, v Value) {
	if v.Kind == KindNull {
		return
	}
	st.n++
	switch fn {
	case aggSum, aggTotal, aggAvg:
		if v.Kind == KindInt {
			st.sumI += v.I
			st.sumF += float64(v.I)
		} else {
			st.nonInt = true
			st.sumF += v.AsFloat()
		}
	case aggMin:
		if st.n == 1 || Compare(v, st.best) < 0 {
			st.best = v
		}
	case aggMax:
		if st.n == 1 || Compare(v, st.best) > 0 {
			st.best = v
		}
	}
}

// result is the aggregate's value over what was added.
func (st *aggState) result(fn aggFn) Value {
	switch fn {
	case aggCountStar, aggCount:
		return Int(st.n)
	case aggTotal:
		return Float(st.sumF)
	}
	if st.n == 0 {
		return Null()
	}
	switch fn {
	case aggSum:
		if st.nonInt {
			return Float(st.sumF)
		}
		return Int(st.sumI)
	case aggAvg:
		return Float(st.sumF / float64(st.n))
	default: // aggMin, aggMax
		return st.best
	}
}

// aggregatePositions runs an aggPlan over the selection: one pass in
// position order assigns each row its group (first-seen order, keyed as
// projectGrouped keys them) and folds its cells into that group's
// accumulators; then one output row per group, and the interpreter's own
// DISTINCT/ORDER BY/LIMIT over those few rows, of which anyRow keeps the
// first.
func (ec *execCtx) aggregatePositions(sel *SelectStmt, s selection, ap *aggPlan, columns []string, outer *scope, anyRow bool) (*Rows, error) {
	w := len(ap.items)
	var (
		states []aggState // w per group, group-major
		reps   []int      // each group's first row, as an index into s
		groups map[string]int
		kb     []byte
	)
	groupAt, itemAt := s.colsAt(ap.groupCols), make([]colAt, w)
	for k, it := range ap.items {
		itemAt[k] = s.colAt(it.col)
	}
	if len(ap.groupCols) == 0 {
		// One implicit group, present even over no rows; its
		// representative is then an all-NULL row.
		states, reps = make([]aggState, w), []int{-1}
		if s.len() > 0 {
			reps[0] = 0
		}
	} else {
		groups = make(map[string]int)
	}
	// COUNT(*) reads no cell; over one implicit group with nothing else to
	// fold, each count is the selection's length and no row is visited.
	countOnly := groups == nil
	for _, it := range ap.items {
		countOnly = countOnly && it.fn == aggCountStar
	}
	if countOnly {
		for k := range states {
			states[k].n = int64(s.len())
		}
	}
	for i, n := 0, s.len(); i < n && !countOnly; i++ {
		l, r := s.row(i)
		g := 0
		if groups != nil {
			kb = kb[:0]
			for _, c := range groupAt {
				kb = cell(l, r, c).AppendKey(kb)
				kb = append(kb, '\x00')
			}
			var seen bool
			if g, seen = groups[string(kb)]; !seen {
				g = len(reps)
				groups[string(kb)] = g
				reps = append(reps, i)
				for range ap.items {
					states = append(states, aggState{})
				}
			}
		}
		st := states[g*w : (g+1)*w]
		for k, it := range ap.items {
			switch it.fn {
			case aggGroupCol:
			case aggCountStar:
				st[k].n++
			default:
				st[k].add(it.fn, cell(l, r, itemAt[k]))
			}
		}
	}

	out := &selOutput{columns: columns}
	backing := make([]Value, len(reps)*w)
	for g, rep := range reps {
		vals := backing[g*w : (g+1)*w : (g+1)*w]
		for k, it := range ap.items {
			switch {
			case it.fn != aggGroupCol:
				vals[k] = states[g*w+k].result(it.fn)
			case rep >= 0:
				l, r := s.row(rep)
				vals[k] = cell(l, r, itemAt[k])
			}
		}
		out.add(vals, nil)
	}
	if sel.Distinct {
		dedupeOutput(out)
	}
	if err := ec.finishSelect(sel, out, outer, nil); err != nil {
		return nil, err
	}
	if anyRow && len(out.data) > 1 {
		out.data = out.data[:1:1]
	}
	return out.rows(), nil
}
