package sqlengine

import (
	"fmt"
	"slices"
	"sort"
)

// Rows is a query result, stored as a table stores its rows: one typed
// column (vector.go) per output column, n cells each — 8 bytes a cell of an
// INTEGER or REAL column, a 16-byte string header a TEXT one, a NULL bitmap
// only in a column that holds a NULL, Values only in a column of several
// storage classes. It is read by (row, column) through Len and Cell, the
// accessors Table has. A result is a copy: no cell of it is read from a
// table later, so DML after the statement cannot reach it. The consumers of
// positions.go write the cells they gather straight into its columns;
// everything that builds rows as rows — the interpreter's tail, compounds,
// tests — goes through NewRows.
type Rows struct {
	Columns []string
	cols    []column
	n       int
}

// NewRows returns the result whose row i is data[i], one cell per column
// of columns.
func NewRows(columns []string, data [][]Value) *Rows {
	return newRows(columns, len(data), func(i, k int) Value { return data[i][k] })
}

// newRows returns the n-row result whose cell (i, k) is cell(i, k), written
// a column at a time: each column's array is allocated once, at its exact
// size, for the class its cells turn out to have.
func newRows(columns []string, n int, cell func(i, k int) Value) *Rows {
	r := &Rows{Columns: columns, cols: make([]column, len(columns)), n: n}
	for k := range r.cols {
		c := &r.cols[k]
		c.reserve(0, n)
		for i := range n {
			c.add(i, cell(i, k))
		}
	}
	return r
}

// Len returns the number of rows.
func (r *Rows) Len() int { return r.n }

// Cell returns the value of column col in row i.
func (r *Rows) Cell(i, col int) Value { return r.cols[col].value(i) }

// rowData copies the result out as rows, for the interpreter, which
// combines and sorts rows as rows.
func (r *Rows) rowData() [][]Value {
	w := len(r.cols)
	backing := make([]Value, r.n*w)
	data := make([][]Value, r.n)
	for i := range data {
		data[i] = backing[i*w : (i+1)*w : (i+1)*w]
		for k := range r.cols {
			data[i][k] = r.cols[k].value(i)
		}
	}
	return data
}

// rel returns the result as a relation a selection indexes: a FROM
// sub-select's rows, read in place.
func (r *Rows) rel() rel { return rel{cols: r.cols, n: r.n} }

// Result is the outcome of executing any statement. Cost counts the rows
// the chosen plan touched: a scan the rows it read, an index lookup its
// bucket, a hash join the pairs it tested, a nested loop |L|·|R| of its
// inputs, a subquery its body's, an UPDATE or DELETE its table. It is a
// deterministic measure of the work done, and maxCost caps it.
type Result struct {
	Rows         *Rows
	RowsAffected int64
	Cost         int64
	// Batches counts the morsels processed by morsel-driven operators —
	// filters and join probes (0 = none ran). Like Path it is telemetry.
	Batches int64
	// Workers is always 1: a statement runs on its caller's goroutine. It is
	// kept for bench/ until ROADMAP 1(i).
	Workers int
	// Path names the physical path the statement's top-level SELECT took
	// from scan to tail (empty for other statements). Like Batches it is
	// telemetry only. A planned SELECT hands its tail a selection — positions
	// into one relation's rows (a table, a sub-select, a nested loop's
	// output), or a hash join's (left, right) position pairs — and reports the
	// consumer that turned it into the result: "positions/topk" or
	// "pairs/topk" (ORDER BY through a bounded heap), "positions/agg" or
	// "pairs/agg" (typed aggregate accumulators), "positions/gather" or
	// "pairs/gather" (plain projection) — or, when the planner could not
	// prove a consumer equivalent, "rows(<reason>)": the selection was
	// materialised for the interpreter's tail by the clause named, one of
	// projection, order-by, limit, aggregate, group-by or having. Plain
	// "rows" is what never reaches a consumer: the naive executor, and a
	// compound SELECT, whose arms are combined as rows.
	Path string
}

// Exec parses and executes a single statement. Parsing and planning go
// through the database's prepared-plan cache, so repeat executions of the
// same statement text skip both.
func (db *Database) Exec(sql string) (*Result, error) {
	st, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return st.Exec()
}

// Query parses and executes a statement that must produce rows.
func (db *Database) Query(sql string) (*Rows, error) {
	res, err := db.Exec(sql)
	if err != nil {
		return nil, err
	}
	if res.Rows == nil {
		return nil, fmt.Errorf("sqlengine: statement produced no result rows")
	}
	return res.Rows, nil
}

// MustExec executes sql and panics on error. Intended for test fixtures and
// dataset construction where the SQL is program-generated.
func (db *Database) MustExec(sql string) *Result {
	res, err := db.Exec(sql)
	if err != nil {
		panic(err)
	}
	return res
}

func (ec *execCtx) execStatement(st Statement) (*Result, error) {
	res, err := ec.execStatementInner(st)
	if err != nil {
		return nil, err
	}
	res.Batches = ec.batches
	res.Workers = 1
	res.Path = ec.path
	return res, nil
}

func (ec *execCtx) execStatementInner(st Statement) (*Result, error) {
	db := ec.db
	switch s := st.(type) {
	case *SelectStmt:
		ec.top, ec.path = s, pathRows
		rows, err := ec.execSelect(s, nil)
		if err != nil {
			return nil, err
		}
		return &Result{Rows: rows, Cost: ec.cost}, nil
	case *CreateTableStmt:
		if _, err := db.createTable(s); err != nil {
			return nil, err
		}
		return &Result{Cost: ec.cost}, nil
	case *InsertStmt:
		n, err := ec.execInsert(s)
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n, Cost: ec.cost}, nil
	case *UpdateStmt:
		n, err := ec.execUpdate(s)
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n, Cost: ec.cost}, nil
	case *DeleteStmt:
		n, err := ec.execDelete(s)
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n, Cost: ec.cost}, nil
	default:
		return nil, fmt.Errorf("sqlengine: unsupported statement %T", st)
	}
}

// execCtx carries per-execution state: the database, the cost counter, and
// whether the statement runs on the naive reference, which reads no plan.
type execCtx struct {
	db    *Database
	cost  int64
	naive bool
	// Morsels processed (countBatches), the physical execution stat.
	batches int64
	// top is the statement's top-level SELECT and path the physical path
	// it took (Result.Path); nested and compound-arm SELECTs leave it alone.
	top  *SelectStmt
	path string
	// Uncorrelated-subquery memo, per statement execution: results keyed
	// by subquery node (see subquery.go).
	subMemo map[*SelectStmt]*Rows
}

// planFor returns the plan for sel, nil when executing unplanned.
func (ec *execCtx) planFor(sel *SelectStmt) *selectPlan {
	if ec.naive {
		return nil
	}
	return &sel.bound.plan
}

// maxCost bounds runaway queries (e.g. accidental cross joins in predicted
// SQL): Cost exceeding it aborts execution with an error, which the
// evaluation harness counts as a failed query.
const maxCost = 50_000_000

func (ec *execCtx) charge(n int64) error {
	ec.cost += n
	if ec.cost > maxCost {
		return fmt.Errorf("sqlengine: query exceeded cost budget (%d rows touched)", maxCost)
	}
	return nil
}

// scope is one level of rows a bound column reference reads (bind.go): a
// FROM row, with a parent link for correlated subqueries. The row is row,
// or where cols is set, the row at position pos of those columns — a
// table's or a sub-select's result's — read in place. off is the slot of
// the row's first column in its SELECT's FROM row — non-zero only where a
// scan of one FROM item evaluates a pushed conjunct over that item's rows.
type scope struct {
	row    []Value
	cols   []column
	pos    int
	off    int
	parent *scope
}

// value reads the column cr is bound to: depth levels out, at its slot.
func (s *scope) value(cr *ColumnRef) Value {
	for d := cr.depth; d > 0; d-- {
		s = s.parent
	}
	return s.cell(cr.slot)
}

// cell reads the column at slot of the scope's row.
func (s *scope) cell(slot int) Value {
	if s.cols != nil {
		return s.cols[slot-s.off].value(s.pos)
	}
	return s.row[slot-s.off]
}

// --- SELECT execution ---

func (ec *execCtx) execSelect(sel *SelectStmt, outer *scope) (*Rows, error) {
	if sel.Compound == CompoundNone {
		return ec.execSelectPlanned(sel, outer, ec.planFor(sel))
	}
	// Compound: evaluate each core without the shared tail, then combine
	// the arms' rows as rows.
	head, err := ec.execSelectCoreOnly(sel, outer)
	if err != nil {
		return nil, err
	}
	data := head.rowData()
	for cur := sel; cur.Compound != CompoundNone; cur = cur.Next {
		next, err := ec.execSelectCoreOnly(cur.Next, outer)
		if err != nil {
			return nil, err
		}
		if len(next.Columns) != len(head.Columns) {
			return nil, fmt.Errorf("sqlengine: compound SELECT column count mismatch (%d vs %d)", len(head.Columns), len(next.Columns))
		}
		data = combineRows(data, next.rowData(), cur.Compound)
	}
	// Apply the tail (ORDER BY / LIMIT) over the combined output.
	out := &selOutput{columns: head.Columns}
	for _, r := range data {
		out.add(r, nil)
	}
	if err := ec.finishSelect(sel, out, outer); err != nil {
		return nil, err
	}
	return out.rows(), nil
}

// execSelectCoreOnly executes one arm of a compound select, ignoring the
// ORDER BY/LIMIT tail which belongs to the whole compound. The clone shares
// the arm's binding and plan, which planned the arm without that tail.
func (ec *execCtx) execSelectCoreOnly(sel *SelectStmt, outer *scope) (*Rows, error) {
	clone := *sel
	clone.Compound = CompoundNone
	clone.Next = nil
	clone.OrderBy = nil
	clone.Limit = nil
	clone.Offset = nil
	return ec.execSelectPlanned(&clone, outer, ec.planFor(sel))
}

// combineRows combines two arms' rows by the compound operator: UNION ALL
// concatenates, the others keep the first of each distinct row that the
// operator admits, in order.
func combineRows(a, b [][]Value, op CompoundOp) [][]Value {
	var buf []byte
	keyOf := func(r []Value) string {
		buf = buf[:0]
		for _, v := range r {
			buf = v.AppendKey(buf)
			buf = append(buf, '\x00')
		}
		return string(buf)
	}
	if op == CompoundUnionAll {
		return append(a, b...)
	}
	var out [][]Value
	seen := make(map[string]bool)
	admit := func(r []Value) {
		if k := keyOf(r); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	switch op {
	case CompoundUnion:
		for _, r := range a {
			admit(r)
		}
		for _, r := range b {
			admit(r)
		}
	case CompoundExcept, CompoundIntersect:
		other := make(map[string]bool)
		for _, r := range b {
			other[keyOf(r)] = true
		}
		for _, r := range a {
			if other[keyOf(r)] == (op == CompoundIntersect) {
				admit(r)
			}
		}
	}
	return out
}

// selOutput accumulates projected rows together with a per-row evaluation
// environment so ORDER BY can evaluate arbitrary expressions after
// projection.
type selOutput struct {
	columns []string
	data    [][]Value
	envs    []*evalEnv // parallel to data; nil entries mean "output only"
}

func (o *selOutput) add(vals []Value, env *evalEnv) {
	o.data = append(o.data, vals)
	o.envs = append(o.envs, env)
}

func (o *selOutput) rows() *Rows { return NewRows(o.columns, o.data) }

// execSelectPlanned is the one SELECT pipeline: FROM hands on a selection,
// WHERE thins it, and the tail turns it into the result. pl is nil for
// unplanned execution, which then is the naive reference: full scans, nested
// loops, the interpreter on every row.
func (ec *execCtx) execSelectPlanned(sel *SelectStmt, outer *scope, pl *selectPlan) (*Rows, error) {
	// An aggregate tail's run is fed by the last operator before it, which
	// then lists no row: the filter after the FROM where one runs, else the
	// FROM's own — unless an EXISTS's reach proof may read the FROM's rows,
	// which it does where a join under the EXISTS pushed nothing.
	var run, fromRun *aggRun
	if pl != nil && pl.aggTail != nil {
		run = &aggRun{ec: ec, ap: pl.aggTail, outer: outer}
		if fromRun = run; sel.Where != nil && (!pl.whereSafe || pl.residual) || len(pl.exists) > 0 && !pl.pushed {
			fromRun = nil
		}
	}
	// 1. FROM (with pushdown placement when the plan has one). What comes
	// back is a selection: positions into a scanned table, every row of a
	// sub-select or a nested-loop join, or a hash join's position pairs.
	s, err := ec.execFrom(sel, outer, pl, fromRun)
	if err != nil {
		return nil, err
	}
	// 2. WHERE thins the selection. A planned WHERE is filtered in batch when
	// every conjunct but its uncorrelated EXISTS ones is safe-total: the AND
	// chain passes a row iff every conjunct is true on it, and short-circuit
	// differences are unobservable on pure total expressions. The conjuncts
	// no scan evaluated are filtered here, and then the EXISTS conjuncts are
	// settled. Any other WHERE is one conjunct, evaluated on every row in
	// order.
	switch {
	case pl != nil && pl.whereSafe:
		// The FROM relation, for settleExists: pushdown, which a join under
		// an EXISTS never gets, filtered a single table's scan.
		from := s
		if pl.pushed {
			from = selection{src: s.src, all: true}
		}
		if pl.residual {
			ec.countBatches(s.len())
			s, err = ec.filter(s, pl.where, -1, 0, outer, run)
		}
		if err == nil && len(pl.exists) > 0 {
			s, err = ec.settleExists(outer, pl, from, s, run)
		}
	case sel.Where != nil:
		s, err = ec.filter(s, []conjunct{{expr: sel.Where, scan: -1}}, -1, 0, outer, run)
	}
	if err != nil {
		return nil, err
	}
	// 3. The tail: planned, on the selection's consumers; unplanned, the
	// interpreter's.
	if pl != nil {
		return ec.tailPositions(sel, s, outer, pl, run)
	}
	return ec.projectTail(sel, s, outer)
}

// projectTail runs everything after the WHERE filter on the selected rows,
// through the interpreter: grouping or projection, DISTINCT, ORDER BY and
// LIMIT. It is the naive reference's tail, and where a planned selection
// lands when no consumer of positions.go applies. Each row is read in place
// through one scope; a row whose environment ORDER BY evaluates later
// keeps a scope of its own.
func (ec *execCtx) projectTail(sel *SelectStmt, s selection, outer *scope) (*Rows, error) {
	out := &selOutput{columns: sel.bound.columns}
	if sel.bound.grouped {
		if err := ec.projectGrouped(sel, s, outer, out); err != nil {
			return nil, err
		}
	} else {
		keep := len(sel.OrderBy) > 0 && slices.Contains(sel.bound.order, -1)
		env, buf := &evalEnv{ec: ec, sc: &scope{parent: outer}}, s.rowBuf()
		for i, n := 0, s.len(); i < n; i++ {
			l, r := s.row(i)
			if keep {
				env = &evalEnv{ec: ec, sc: s.keepScope(l, r, outer)}
			} else {
				s.scopeAt(env.sc, l, r, buf)
			}
			vals, err := ec.projectRow(sel, env)
			if err != nil {
				return nil, err
			}
			if keep {
				out.add(vals, env)
			} else {
				out.add(vals, nil)
			}
		}
	}

	if sel.Distinct {
		dedupeOutput(out)
	}
	if err := ec.finishSelect(sel, out, outer); err != nil {
		return nil, err
	}
	return out.rows(), nil
}

// finishSelect applies ORDER BY, LIMIT and OFFSET to an accumulated output.
func (ec *execCtx) finishSelect(sel *SelectStmt, out *selOutput, outer *scope) error {
	if len(sel.OrderBy) > 0 {
		if err := ec.orderOutput(sel, out); err != nil {
			return err
		}
	}
	if sel.Limit != nil {
		limit, offset, err := ec.evalLimit(sel, outer)
		if err != nil {
			return err
		}
		lo, hi := limitWindow(len(out.data), limit, offset)
		out.data, out.envs = out.data[lo:hi], out.envs[lo:hi]
	}
	return nil
}

// evalLimit evaluates the LIMIT and OFFSET expressions of sel (which must
// have a LIMIT; OFFSET defaults to 0).
func (ec *execCtx) evalLimit(sel *SelectStmt, outer *scope) (limit, offset int64, err error) {
	env := &evalEnv{ec: ec, sc: &scope{parent: outer}}
	lv, err := env.eval(sel.Limit)
	if err != nil {
		return 0, 0, err
	}
	if sel.Offset != nil {
		ov, err := env.eval(sel.Offset)
		if err != nil {
			return 0, 0, err
		}
		offset = ov.AsInt()
	}
	return lv.AsInt(), offset, nil
}

// limitWindow returns the half-open range of n ordered rows that LIMIT
// limit OFFSET offset keeps: a negative limit keeps everything, a negative
// offset skips nothing. The limit is compared against what is left after
// the offset rather than added to it, so LIMIT 9223372036854775807
// OFFSET 1 cannot wrap.
func limitWindow(n int, limit, offset int64) (lo, hi int) {
	if offset < 0 {
		offset = 0
	}
	if offset > int64(n) {
		offset = int64(n)
	}
	lo, hi = int(offset), n
	if limit >= 0 && limit < int64(n-lo) {
		hi = lo + int(limit)
	}
	return lo, hi
}

// orderOutput sorts the output rows by the ORDER BY terms. Each term is an
// output column (an ordinal or an output column's name, as bound) or an
// arbitrary expression, evaluated in the row's saved environment.
func (ec *execCtx) orderOutput(sel *SelectStmt, out *selOutput) error {
	type keyed struct {
		vals []Value
		env  *evalEnv
		keys []Value
	}
	items := make([]keyed, len(out.data))
	for i := range out.data {
		items[i] = keyed{vals: out.data[i], env: out.envs[i]}
		items[i].keys = make([]Value, len(sel.OrderBy))
		for j := range sel.OrderBy {
			v, err := ec.evalOrderTerm(sel, j, out, i)
			if err != nil {
				return err
			}
			items[i].keys[j] = v
		}
	}
	sort.SliceStable(items, func(a, b int) bool {
		for j, ob := range sel.OrderBy {
			c := Compare(items[a].keys[j], items[b].keys[j])
			if c == 0 {
				continue
			}
			if ob.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i := range items {
		out.data[i] = items[i].vals
		out.envs[i] = items[i].env
	}
	return nil
}

func (ec *execCtx) evalOrderTerm(sel *SelectStmt, j int, out *selOutput, rowIdx int) (Value, error) {
	if o := sel.bound.order[j]; o >= 0 {
		return out.data[rowIdx][o], nil
	}
	e := sel.OrderBy[j].Expr
	if lit, ok := e.(*Literal); ok && lit.Val.Kind == KindInt {
		return Value{}, fmt.Errorf("sqlengine: ORDER BY ordinal %d out of range", lit.Val.I)
	}
	env := out.envs[rowIdx]
	if env == nil {
		return Value{}, fmt.Errorf("sqlengine: ORDER BY expression %s must name an output column here", e.SQL())
	}
	return env.eval(e)
}

func dedupeOutput(out *selOutput) {
	seen := make(map[string]bool, len(out.data))
	var data [][]Value
	var envs []*evalEnv
	var buf []byte
	for i, r := range out.data {
		buf = buf[:0]
		for _, v := range r {
			buf = v.AppendKey(buf)
			buf = append(buf, '\x00')
		}
		k := string(buf)
		if !seen[k] {
			seen[k] = true
			data = append(data, r)
			envs = append(envs, out.envs[i])
		}
	}
	out.data, out.envs = data, envs
}

// projectRow evaluates the select list for one (non-grouped) row.
func (ec *execCtx) projectRow(sel *SelectStmt, env *evalEnv) ([]Value, error) {
	var vals []Value
	for k, item := range sel.Columns {
		if item.Star {
			for _, slot := range sel.bound.stars[k] {
				vals = append(vals, env.sc.cell(slot))
			}
			continue
		}
		v, err := env.eval(item.Expr)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// group is one GROUP BY partition: the rows of s at indexes idx, in input
// order — all n of s where idx is nil — read one at a time through the scope
// sc (and, over a join's output, the pair buffer buf), which the groups of
// one SELECT share.
//
// A planned aggregate tail's group (aggtail.go) has none of those: ap is
// set, and an aggregate call over it reads its value from accs, the
// group's value of each of ap's accumulators.
type group struct {
	s    *selection
	idx  []int
	n    int
	sc   *scope
	buf  []Value
	ap   *aggPlan
	accs []Value
}

// member points the group's scope at its j'th row.
func (g *group) member(j int) {
	if g.idx != nil {
		j = g.idx[j]
	}
	l, r := g.s.row(j)
	g.s.scopeAt(g.sc, l, r, g.buf)
}

// projectGrouped partitions the selected rows into groups in first-seen
// order, applies HAVING, and projects the select list with aggregate
// support, each group computed over its rows in input order. A group's
// first row is its representative, kept in a scope of its own.
func (ec *execCtx) projectGrouped(sel *SelectStmt, s selection, outer *scope, out *selOutput) error {
	n := s.len()
	sc := &scope{parent: outer}
	buf := s.rowBuf()
	var groups []*group
	var reps []*scope
	if len(sel.GroupBy) == 0 {
		// Single implicit group (possibly empty: COUNT over no rows): a
		// non-nil group, so aggregate evaluation recognises the grouped
		// context even for the empty group.
		groups = append(groups, &group{s: &s, n: n, sc: sc, buf: buf})
		if n > 0 {
			l, r := s.row(0)
			reps = append(reps, s.keepScope(l, r, outer))
		} else {
			reps = append(reps, &scope{row: make([]Value, sel.bound.width()), parent: outer})
		}
	} else {
		idx := make(map[string]int)
		env := &evalEnv{ec: ec, sc: sc}
		var kb []byte
		for i := 0; i < n; i++ {
			l, r := s.row(i)
			s.scopeAt(sc, l, r, buf)
			kb = kb[:0]
			for _, ge := range sel.GroupBy {
				v, err := env.eval(ge)
				if err != nil {
					return err
				}
				kb = v.AppendKey(kb)
				kb = append(kb, '\x00')
			}
			gi, ok := idx[string(kb)]
			if !ok {
				gi = len(groups)
				idx[string(kb)] = gi
				groups = append(groups, &group{s: &s, idx: []int{}, sc: sc, buf: buf})
				reps = append(reps, s.keepScope(l, r, outer))
			}
			g := groups[gi]
			g.idx = append(g.idx, i)
			g.n++
		}
	}

	for gi, g := range groups {
		env := &evalEnv{ec: ec, sc: reps[gi], group: g}
		if sel.Having != nil {
			if ok, err := env.holds(sel.Having); err != nil {
				return err
			} else if !ok {
				continue
			}
		}
		vals, err := ec.projectRow(sel, env)
		if err != nil {
			return err
		}
		out.add(vals, env)
	}
	return nil
}

// projectionCols maps a select list made only of stars, column references
// to the FROM row and literals (`SELECT 1 FROM t`, the body of most EXISTS)
// to FROM row slots, one per output column; a literal's entry is negative,
// ^ix indexing consts. ok is false for any other select list.
func projectionCols(sel *SelectStmt) (ixs []int, consts []Value, ok bool) {
	for k, item := range sel.Columns {
		switch {
		case item.Star:
			ixs = append(ixs, sel.bound.stars[k]...)
		default:
			if lit, isLit := item.Expr.(*Literal); isLit {
				ixs = append(ixs, ^len(consts))
				consts = append(consts, lit.Val)
				continue
			}
			slot, ok := localCol(item.Expr)
			if !ok {
				return nil, nil, false
			}
			ixs = append(ixs, slot)
		}
	}
	return ixs, consts, true
}

// localCol returns the slot of the FROM row column e reads, when e is a
// plain column reference bound to its own SELECT's FROM row.
func localCol(e Expr) (slot int, ok bool) {
	cr, isRef := e.(*ColumnRef)
	if !isRef || cr.Name == "*" || cr.depth > 0 {
		return -1, false
	}
	return cr.slot, true
}

// --- FROM evaluation ---

// execFrom evaluates the FROM clause, pushing WHERE conjuncts into its
// scans where pl places them (planPush). The relation it returns is listed
// by a selection — a scan's positions, every row of a subquery or a
// nested-loop join, or the position pairs of a hash join — whose rows are
// laid out as the FROM row (bind.go). Rows are built only for what a join
// reads as input. With run set, the last operator — the one table's pushed
// filter or the last hash join — folds its rows into it and hands on none.
func (ec *execCtx) execFrom(sel *SelectStmt, outer *scope, pl *selectPlan, run *aggRun) (selection, error) {
	if len(sel.From) == 0 {
		// SELECT without FROM: a single empty row.
		return selection{src: rel{rows: [][]Value{{}}}, all: true}, nil
	}
	from, last := sel.bound.from, len(sel.From)-1
	runAt := func(i int) *aggRun {
		if i == last {
			return run
		}
		return nil
	}
	s, err := ec.execFromItem(sel, 0, outer, pl, runAt(0))
	for i := 1; i < len(sel.From) && err == nil; i++ {
		var rs selection
		if rs, err = ec.execFromItem(sel, i, outer, pl, nil); err != nil {
			break
		}
		var ja *joinAnalysis
		if pl != nil && pl.joins != nil {
			ja = pl.joins[i]
		}
		// A join reads its inputs at their positions; an earlier hash
		// join's pairs are materialised for it.
		if s.right != nil {
			s = selection{src: rel{rows: s.materialise()}, all: true}
		}
		s, err = ec.join(&s, &rs, from[i].off, len(from[i].cols), sel.From[i].Join, sel.From[i].On, outer, ja, runAt(i))
	}
	return s, err
}

// execFromItem evaluates FROM item i as a selection: all of a sub-select's
// result or of an unfiltered table, or the positions the table's pushed
// conjuncts keep (scanPositions), folded into run where it is set. Only a
// plan pushes conjuncts, and never into a subquery item.
func (ec *execCtx) execFromItem(sel *SelectStmt, i int, outer *scope, pl *selectPlan, run *aggRun) (selection, error) {
	if sub := sel.From[i].Sub; sub != nil {
		rows, err := ec.execSelect(sub, outer)
		if err != nil {
			return selection{}, err
		}
		return selection{src: rows.rel(), all: true}, nil
	}
	it := &sel.bound.from[i]
	if pl == nil || !pl.pushed {
		return selection{src: it.t.rel(), all: true}, ec.charge(int64(it.t.n))
	}
	return ec.scanPositions(it.t, pl, it.off, i, outer, run)
}

// join combines two relations, whose rows are nl and nr cells wide. With a
// usable plan the join runs as a hash join, whose output is position pairs
// (folded into run where it is set); otherwise the nested loop below, charged its |L|·|R| pairs up front,
// builds the joined rows, with one reusable pair buffer and environment
// (fresh slices are allocated only for emitted rows).
func (ec *execCtx) join(left, right *selection, nl, nr int, jt JoinType, on Expr, outer *scope, ja *joinAnalysis, run *aggRun) (selection, error) {
	if ja != nil && ja.lcols != nil {
		if s, hashed, err := ec.hashJoin(left, right, nl, nr, jt, ja, outer, run); hashed {
			return s, err
		}
	}
	ln, rn := left.len(), right.len()
	if err := ec.charge(int64(ln) * int64(rn)); err != nil {
		return selection{}, err
	}
	width := nl + nr
	var out [][]Value
	buf := make([]Value, width)
	env := &evalEnv{ec: ec, sc: &scope{row: buf, parent: outer}}
	for li := 0; li < ln; li++ {
		matched := false
		left.src.fill(buf, left.at(li))
		for ri := 0; ri < rn; ri++ {
			right.src.fill(buf[nl:], right.at(ri))
			if on != nil {
				if ok, err := env.holds(on); err != nil {
					return selection{}, err
				} else if !ok {
					continue
				}
			}
			matched = true
			row := make([]Value, width)
			copy(row, buf)
			out = append(out, row)
		}
		if jt == JoinLeft && !matched {
			row := make([]Value, width)
			copy(row, buf[:nl])
			out = append(out, row)
		}
	}
	return selection{src: rel{rows: out}, all: true}, nil
}

// --- DML execution ---

func (ec *execCtx) execInsert(ins *InsertStmt) (int64, error) {
	t := ins.table
	if err := t.writable(); err != nil {
		return 0, err
	}
	env := &evalEnv{ec: ec, sc: &scope{}}
	var n int64
	for _, rowExprs := range ins.Rows {
		vals := make([]Value, len(rowExprs))
		for i, e := range rowExprs {
			v, err := env.eval(e)
			if err != nil {
				return n, err
			}
			vals[i] = v
		}
		if err := t.insertRow(ins.Columns, vals); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// execUpdate rewrites the cells of the rows its WHERE holds on, in table
// order. Every SET of a row is evaluated before any of its cells changes.
func (ec *execCtx) execUpdate(up *UpdateStmt) (int64, error) {
	t := up.table
	if err := t.writable(); err != nil {
		return 0, err
	}
	var n int64
	defer func() {
		if n > 0 {
			t.invalidateIndexes()
		}
	}()
	sc := &scope{cols: t.cols}
	env := &evalEnv{ec: ec, sc: sc}
	vals := make([]Value, len(up.Set))
	for sc.pos = 0; sc.pos < t.n; sc.pos++ {
		if err := ec.charge(1); err != nil {
			return n, err
		}
		if up.Where != nil {
			if ok, err := env.holds(up.Where); err != nil {
				return n, err
			} else if !ok {
				continue
			}
		}
		for i, set := range up.Set {
			v, err := env.eval(set.Value)
			if err != nil {
				return n, err
			}
			vals[i] = coerce(v, t.Columns[up.cols[i]].Type)
		}
		for i, col := range up.cols {
			t.cols[col].set(t.n, sc.pos, vals[i])
		}
		n++
	}
	return n, nil
}

// execDelete removes the rows its WHERE holds on: the columns are rebuilt
// from the rows that stay, once every row has been tested.
func (ec *execCtx) execDelete(del *DeleteStmt) (int64, error) {
	t := del.table
	if err := t.writable(); err != nil {
		return 0, err
	}
	var n int64
	sc := &scope{cols: t.cols}
	env := &evalEnv{ec: ec, sc: sc}
	remove := make([]bool, t.n)
	for sc.pos = 0; sc.pos < t.n; sc.pos++ {
		if err := ec.charge(1); err != nil {
			return n, err
		}
		remove[sc.pos] = true
		if del.Where != nil {
			var err error
			if remove[sc.pos], err = env.holds(del.Where); err != nil {
				return n, err
			}
		}
		if remove[sc.pos] {
			n++
		}
	}
	cols, kept := make([]column, len(t.cols)), 0
	for p, gone := range remove {
		if gone {
			continue
		}
		for c := range cols {
			cols[c].add(kept, t.cols[c].value(p))
		}
		kept++
	}
	t.cols, t.n = cols, kept
	t.invalidateIndexes()
	return n, nil
}

// anyAggregate reports whether the select list, HAVING or ORDER BY of sel
// contains an aggregate function call.
func anyAggregate(sel *SelectStmt) bool {
	for _, item := range sel.Columns {
		if item.Expr != nil && exprHasAggregate(item.Expr) {
			return true
		}
	}
	if sel.Having != nil && exprHasAggregate(sel.Having) {
		return true
	}
	for _, ob := range sel.OrderBy {
		if exprHasAggregate(ob.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e Expr) bool {
	if fc, ok := e.(*FuncCall); ok && fc.agg != aggNone {
		return true
	}
	has := false
	eachOperand(e, func(x Expr) { has = has || exprHasAggregate(x) })
	return has
}
