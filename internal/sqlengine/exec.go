package sqlengine

import (
	"fmt"
	"sort"
	"strings"
)

// Rows is a materialised query result.
type Rows struct {
	Columns []string
	Data    [][]Value
}

// Result is the outcome of executing any statement. Cost counts the rows
// the naive executor touches (scans, join pairs, subquery work); it is the
// deterministic stand-in for execution time used by the VES metric.
//
// Cost is a *logical* measure, independent of the physical plan: when the
// planner substitutes a hash join for a nested loop or pushes a predicate
// below a join, it still charges exactly the rows the naive plan would
// have touched. That plan-independence is what keeps VES — and every
// experiment table derived from it — stable while wall-clock time drops;
// see the contract notes in planner.go.
type Result struct {
	Rows         *Rows
	RowsAffected int64
	Cost         int64
	// Batches and Workers describe the *physical* execution and carry no
	// semantic weight (unlike Cost they may change across engine versions):
	// Batches counts the morsels processed by morsel-driven operators —
	// filters and join probes (0 = none ran) — and Workers is the widest
	// parallel fan-out any single operator reached (1 = serial).
	Batches int64
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
	res.Workers = max(ec.maxPar, 1)
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

// execCtx carries per-execution state: the database, the cost counter and
// the planner's per-SELECT analysis (nil for unplanned execution — the
// executor then behaves exactly like the pre-planner naive engine).
type execCtx struct {
	db    *Database
	cost  int64
	plans map[*SelectStmt]*selectPlan
	// Physical execution stats, written only by the coordinating
	// goroutine (batchRun): morsels processed, widest worker fan-out.
	batches int64
	maxPar  int
	// top is the statement's top-level SELECT and path the physical path
	// it took (Result.Path); nested and compound-arm SELECTs leave it alone.
	top  *SelectStmt
	path string
	// Uncorrelated-subquery memo, per statement execution: results keyed
	// by subquery node, plus the cached correlation verdict (see
	// subquery.go).
	subMemo map[*SelectStmt]*Rows
	subCorr map[*SelectStmt]bool
}

// planFor returns the plan for sel, nil when executing unplanned.
func (ec *execCtx) planFor(sel *SelectStmt) *selectPlan { return ec.plans[sel] }

// maxCost bounds runaway queries (e.g. accidental cross joins in predicted
// SQL). Exceeding it aborts execution with an error, which the evaluation
// harness counts as a failed query.
const maxCost = 50_000_000

func (ec *execCtx) charge(n int64) error {
	ec.cost += n
	if ec.cost > maxCost {
		return fmt.Errorf("sqlengine: query exceeded cost budget (%d rows touched)", maxCost)
	}
	return nil
}

// scopeCol names one column visible in a row scope; both fields are
// lower-cased for case-insensitive resolution.
type scopeCol struct {
	table string
	name  string
}

// scope binds a set of visible columns to one row of values, with a parent
// link for correlated subqueries.
type scope struct {
	cols   []scopeCol
	row    []Value
	parent *scope
}

// resolve finds a column by (optionally qualified) name, walking outward
// through parent scopes. Ambiguous unqualified references within one scope
// level are an error, as in SQLite.
func (s *scope) resolve(cr *ColumnRef) (Value, error) {
	lt, ln := cr.folded()
	for cur := s; cur != nil; cur = cur.parent {
		found := -1
		for i, c := range cur.cols {
			if c.name != ln {
				continue
			}
			if lt != "" && c.table != lt {
				continue
			}
			if found >= 0 {
				return Value{}, fmt.Errorf("sqlengine: ambiguous column name %q", cr.Name)
			}
			found = i
		}
		if found >= 0 {
			return cur.row[found], nil
		}
	}
	if cr.Table != "" {
		return Value{}, fmt.Errorf("sqlengine: no such column: %s.%s", cr.Table, cr.Name)
	}
	return Value{}, fmt.Errorf("sqlengine: no such column: %s", cr.Name)
}

// rowSet is an intermediate relation during FROM evaluation. rows is set
// only on a join's two inputs (execFrom): what the relation holds is
// otherwise listed by the selection that travels with it. logical is the
// cardinality the *naive* executor's relation would have at this point in
// the pipeline: it differs from the number of rows only when predicate
// pushdown filtered a scan, and it is what join charges are computed from so
// that Cost stays plan-independent.
type rowSet struct {
	cols    []scopeCol
	rows    [][]Value
	logical int
}

// --- SELECT execution ---

func (ec *execCtx) execSelect(sel *SelectStmt, outer *scope) (*Rows, error) {
	if sel.Compound == CompoundNone {
		return ec.execSelectPlanned(sel, outer, ec.planFor(sel))
	}
	// Compound: evaluate each core without the shared tail, then combine.
	head, err := ec.execSelectCoreOnly(sel, outer)
	if err != nil {
		return nil, err
	}
	combined := head
	for cur := sel; cur.Compound != CompoundNone; cur = cur.Next {
		next, err := ec.execSelectCoreOnly(cur.Next, outer)
		if err != nil {
			return nil, err
		}
		if len(next.Columns) != len(combined.Columns) {
			return nil, fmt.Errorf("sqlengine: compound SELECT column count mismatch (%d vs %d)", len(combined.Columns), len(next.Columns))
		}
		combined = combineRows(combined, next, cur.Compound)
	}
	// Apply the tail (ORDER BY / LIMIT) over the combined output.
	out := &selOutput{columns: combined.Columns}
	for _, r := range combined.Data {
		out.add(r, nil)
	}
	if err := ec.finishSelect(sel, out, outer, nil); err != nil {
		return nil, err
	}
	return out.rows(), nil
}

// execSelectCoreOnly executes one arm of a compound select, ignoring the
// ORDER BY/LIMIT tail which belongs to the whole compound. The clone shares
// the arm's FROM/WHERE, so the arm's plan (keyed by the original pointer)
// still applies.
func (ec *execCtx) execSelectCoreOnly(sel *SelectStmt, outer *scope) (*Rows, error) {
	clone := *sel
	clone.Compound = CompoundNone
	clone.Next = nil
	clone.OrderBy = nil
	clone.Limit = nil
	clone.Offset = nil
	return ec.execSelectPlanned(&clone, outer, ec.planFor(sel))
}

func combineRows(a, b *Rows, op CompoundOp) *Rows {
	var buf []byte
	keyOf := func(r []Value) string {
		buf = buf[:0]
		for _, v := range r {
			buf = v.AppendKey(buf)
			buf = append(buf, '\x00')
		}
		return string(buf)
	}
	out := &Rows{Columns: a.Columns}
	switch op {
	case CompoundUnionAll:
		out.Data = append(append(out.Data, a.Data...), b.Data...)
	case CompoundUnion:
		seen := make(map[string]bool)
		for _, r := range append(append([][]Value{}, a.Data...), b.Data...) {
			k := keyOf(r)
			if !seen[k] {
				seen[k] = true
				out.Data = append(out.Data, r)
			}
		}
	case CompoundExcept:
		drop := make(map[string]bool)
		for _, r := range b.Data {
			drop[keyOf(r)] = true
		}
		seen := make(map[string]bool)
		for _, r := range a.Data {
			k := keyOf(r)
			if !drop[k] && !seen[k] {
				seen[k] = true
				out.Data = append(out.Data, r)
			}
		}
	case CompoundIntersect:
		keep := make(map[string]bool)
		for _, r := range b.Data {
			keep[keyOf(r)] = true
		}
		seen := make(map[string]bool)
		for _, r := range a.Data {
			k := keyOf(r)
			if keep[k] && !seen[k] {
				seen[k] = true
				out.Data = append(out.Data, r)
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

func (o *selOutput) rows() *Rows { return &Rows{Columns: o.columns, Data: o.data} }

// execSelectPlanned is the one SELECT pipeline: FROM hands on a selection,
// WHERE thins it, and the tail turns it into the result. pl is nil for
// unplanned execution, which then is the naive reference: full scans, nested
// loops, the interpreter on every row.
func (ec *execCtx) execSelectPlanned(sel *SelectStmt, outer *scope, pl *selectPlan) (*Rows, error) {
	// 1. FROM (with pushdown placement when the plan allows it). What comes
	// back is a selection: positions into a scanned table, every row of a
	// sub-select or a nested-loop join, or a hash join's position pairs.
	src, s, fp, err := ec.execFrom(sel, outer, pl)
	if err != nil {
		return nil, err
	}
	// 2. WHERE thins the selection. A safe-total conjunction over a big
	// enough input runs as a batch filter — the AND-tree passes iff every
	// conjunct is true, and short-circuit differences are unobservable on
	// pure total expressions; anything else runs through the interpreter,
	// every row in order.
	batch := pl != nil && pl.whereSafe && ec.useBatch(s.len())
	var conj []Expr
	switch {
	case fp != nil:
		// Pushdown ran: pushed conjuncts were applied during the scans and
		// every conjunct is safe-total, so a row passes the original WHERE
		// iff every residual conjunct is true on it.
		conj = fp.residual
	case sel.Where != nil && batch:
		for _, c := range pl.where {
			conj = append(conj, c.expr)
		}
	case sel.Where != nil:
		conj = []Expr{sel.Where}
	}
	switch {
	case len(conj) == 0:
	case batch:
		s, err = ec.filterPositions(src.cols, s, compilePreds(&predSource{cols: src.cols, left: s.leftWidth()}, conj), outer)
	default:
		s, err = ec.filterInterpreted(src.cols, s, conj, outer)
	}
	if err != nil {
		return nil, err
	}
	// 3. The tail: planned, on the selection; unplanned, on its rows.
	if pl != nil {
		return ec.tailPositions(sel, src, s, outer)
	}
	return ec.projectTail(sel, src, s.materialise(), outer)
}

// projectTail runs everything after the WHERE filter on materialised rows,
// through the interpreter: grouping or projection, DISTINCT, ORDER BY and
// LIMIT. It is the naive reference's tail, and where a planned selection
// lands when no consumer of positions.go applies.
func (ec *execCtx) projectTail(sel *SelectStmt, src *rowSet, filtered [][]Value, outer *scope) (*Rows, error) {
	grouped := len(sel.GroupBy) > 0 || anyAggregate(sel)
	out := &selOutput{columns: projectionNames(sel, src)}

	if grouped {
		if err := ec.projectGrouped(sel, src, filtered, outer, out); err != nil {
			return nil, err
		}
	} else {
		for _, row := range filtered {
			sc := &scope{cols: src.cols, row: row, parent: outer}
			env := &evalEnv{ec: ec, sc: sc}
			vals, err := ec.projectRow(sel, src, env)
			if err != nil {
				return nil, err
			}
			out.add(vals, env)
		}
	}

	if sel.Distinct {
		dedupeOutput(out)
	}
	if err := ec.finishSelect(sel, out, outer, src); err != nil {
		return nil, err
	}
	return out.rows(), nil
}

// finishSelect applies ORDER BY, LIMIT and OFFSET to an accumulated output.
func (ec *execCtx) finishSelect(sel *SelectStmt, out *selOutput, outer *scope, src *rowSet) error {
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
		if hi-lo < len(out.data) {
			// A copy at its exact size, not a sub-slice: whoever retains the
			// result must not keep every row the window dropped alive with it.
			// (envs go no further than this statement.)
			data := make([][]Value, hi-lo)
			copy(data, out.data[lo:hi])
			out.data = data
		}
		out.envs = out.envs[lo:hi]
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

// orderOutput sorts the output rows by the ORDER BY terms. Each term can be
// an ordinal, an output-column alias/name, or an arbitrary expression
// (evaluated in the row's saved environment).
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
		for j, ob := range sel.OrderBy {
			v, err := ec.evalOrderTerm(ob.Expr, out, i)
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

func (ec *execCtx) evalOrderTerm(e Expr, out *selOutput, rowIdx int) (Value, error) {
	// Ordinal: ORDER BY 2
	if lit, ok := e.(*Literal); ok && lit.Val.Kind == KindInt {
		idx := int(lit.Val.I) - 1
		if idx < 0 || idx >= len(out.columns) {
			return Value{}, fmt.Errorf("sqlengine: ORDER BY ordinal %d out of range", lit.Val.I)
		}
		return out.data[rowIdx][idx], nil
	}
	// Output column name or alias.
	if cr, ok := e.(*ColumnRef); ok && cr.Table == "" {
		for i, c := range out.columns {
			if strings.EqualFold(c, cr.Name) {
				return out.data[rowIdx][i], nil
			}
		}
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

// projectionNames computes output column names for the select list.
func projectionNames(sel *SelectStmt, src *rowSet) []string {
	var names []string
	for _, item := range sel.Columns {
		switch {
		case item.Star && item.StarTable == "":
			for _, c := range src.cols {
				names = append(names, c.name)
			}
		case item.Star:
			lt := strings.ToLower(item.StarTable)
			for _, c := range src.cols {
				if c.table == lt {
					names = append(names, c.name)
				}
			}
		case item.Alias != "":
			names = append(names, item.Alias)
		default:
			if cr, ok := item.Expr.(*ColumnRef); ok {
				names = append(names, cr.Name)
			} else {
				names = append(names, item.Expr.SQL())
			}
		}
	}
	return names
}

// projectRow evaluates the select list for one (non-grouped) row.
func (ec *execCtx) projectRow(sel *SelectStmt, src *rowSet, env *evalEnv) ([]Value, error) {
	var vals []Value
	for _, item := range sel.Columns {
		switch {
		case item.Star && item.StarTable == "":
			vals = append(vals, env.sc.row...)
		case item.Star:
			lt := strings.ToLower(item.StarTable)
			matched := false
			for i, c := range src.cols {
				if c.table == lt {
					vals = append(vals, env.sc.row[i])
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("sqlengine: no such table: %s", item.StarTable)
			}
		default:
			v, err := env.eval(item.Expr)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
	}
	return vals, nil
}

// rowGroup is one GROUP BY partition: the representative scope (first row
// in input order) and every member row's scope.
type rowGroup struct {
	rep  *scope
	rows []*scope
}

// projectGrouped partitions rows into groups in first-seen order, applies
// HAVING, and projects the select list with aggregate support, each group
// computed over its rows in input order.
func (ec *execCtx) projectGrouped(sel *SelectStmt, src *rowSet, rows [][]Value, outer *scope, out *selOutput) error {
	var groups []*rowGroup
	if len(sel.GroupBy) == 0 {
		// Single implicit group (possibly empty: COUNT over no rows). The
		// rows slice stays non-nil so aggregate evaluation recognises the
		// grouped context even for the empty group.
		g := &rowGroup{rows: make([]*scope, 0, len(rows))}
		for _, row := range rows {
			sc := &scope{cols: src.cols, row: row, parent: outer}
			if g.rep == nil {
				g.rep = sc
			}
			g.rows = append(g.rows, sc)
		}
		if g.rep == nil {
			g.rep = &scope{cols: src.cols, row: make([]Value, len(src.cols)), parent: outer}
		}
		groups = append(groups, g)
	} else {
		idx := make(map[string]*rowGroup)
		var order []string
		var kb []byte
		for _, row := range rows {
			sc := &scope{cols: src.cols, row: row, parent: outer}
			env := &evalEnv{ec: ec, sc: sc}
			kb = kb[:0]
			for _, ge := range sel.GroupBy {
				v, err := env.eval(ge)
				if err != nil {
					return err
				}
				kb = v.AppendKey(kb)
				kb = append(kb, '\x00')
			}
			k := string(kb)
			g, ok := idx[k]
			if !ok {
				g = &rowGroup{rep: sc}
				idx[k] = g
				order = append(order, k)
			}
			g.rows = append(g.rows, sc)
		}
		for _, k := range order {
			groups = append(groups, idx[k])
		}
	}

	for _, g := range groups {
		env := &evalEnv{ec: ec, sc: g.rep, group: g.rows}
		if sel.Having != nil {
			hv, err := env.eval(sel.Having)
			if err != nil {
				return err
			}
			if t, known := hv.Truth(); !t || !known {
				continue
			}
		}
		vals, err := ec.projectRow(sel, src, env)
		if err != nil {
			return err
		}
		out.add(vals, env)
	}
	return nil
}

// projectionCols maps a select list made only of stars, uniquely resolving
// column references and literals (`SELECT 1 FROM t`, the body of most
// EXISTS) to source column positions, one per output column; a literal's
// entry is negative, ^ix indexing consts. ok is false for any other select
// list.
func projectionCols(sel *SelectStmt, cols []scopeCol) (ixs []int, consts []Value, ok bool) {
	for _, item := range sel.Columns {
		switch {
		case item.Star && item.StarTable == "":
			for i := range cols {
				ixs = append(ixs, i)
			}
		case item.Star:
			lt := strings.ToLower(item.StarTable)
			matched := false
			for i, c := range cols {
				if c.table == lt {
					ixs = append(ixs, i)
					matched = true
				}
			}
			if !matched {
				return nil, nil, false
			}
		default:
			if lit, isLit := item.Expr.(*Literal); isLit {
				ixs = append(ixs, ^len(consts))
				consts = append(consts, lit.Val)
				continue
			}
			idx, ok := bareColumn(item.Expr, cols)
			if !ok {
				return nil, nil, false
			}
			ixs = append(ixs, idx)
		}
	}
	return ixs, consts, true
}

// bareColumn resolves e as a plain column reference within cols. ok is
// false unless e is one and resolves uniquely, so an absent or ambiguous
// reference keeps the interpreter's error.
func bareColumn(e Expr, cols []scopeCol) (idx int, ok bool) {
	cr, isRef := e.(*ColumnRef)
	if !isRef || cr.Name == "*" {
		return -1, false
	}
	idx, n := resolveCols(cols, cr)
	return idx, n == 1
}

// outputOrderTerm returns the output column an ORDER BY term names without
// needing an evaluation environment — an in-range ordinal or an
// unqualified output column name or alias, the first two rules of
// evalOrderTerm — or -1.
func outputOrderTerm(e Expr, columns []string) int {
	if lit, ok := e.(*Literal); ok && lit.Val.Kind == KindInt {
		if idx := int(lit.Val.I) - 1; idx >= 0 && idx < len(columns) {
			return idx
		}
		return -1
	}
	if cr, ok := e.(*ColumnRef); ok && cr.Table == "" {
		for i, c := range columns {
			if strings.EqualFold(c, cr.Name) {
				return i
			}
		}
	}
	return -1
}

// --- FROM evaluation ---

// execFrom evaluates the FROM clause. The relation it returns is described
// by src (its columns) and listed by the selection: a scan's positions,
// every row of a subquery or a nested-loop join, or the position pairs of a
// hash join. Rows are built only for what a join reads as input.
func (ec *execCtx) execFrom(sel *SelectStmt, outer *scope, pl *selectPlan) (src *rowSet, s selection, fp *fromPlan, err error) {
	items := sel.From
	if len(items) == 0 {
		// SELECT without FROM: a single empty row.
		return &rowSet{logical: 1}, selection{rows: [][]Value{{}}, all: true}, nil, nil
	}
	fp = ec.planFrom(pl, sel, outer)
	pushedFor := func(i int) []conjunct {
		if fp == nil {
			return nil
		}
		return fp.pushed[i]
	}
	acc, s, err := ec.execFromItem(&items[0], outer, pushedFor(0))
	if err != nil {
		return nil, selection{}, nil, err
	}
	for i := 1; i < len(items); i++ {
		right, rs, err := ec.execFromItem(&items[i], outer, pushedFor(i))
		if err != nil {
			return nil, selection{}, nil, err
		}
		var ja *joinAnalysis
		if pl != nil && pl.joins != nil {
			ja = pl.joins[i]
		}
		// A join reads both inputs as rows: a filtered scan's positions and
		// an earlier hash join's pairs are materialised for it.
		acc.rows, right.rows = s.materialise(), rs.materialise()
		if s, err = ec.join(acc, right, items[i].Join, items[i].On, outer, ja); err != nil {
			return nil, selection{}, nil, err
		}
		cols := make([]scopeCol, 0, len(acc.cols)+len(right.cols))
		cols = append(append(cols, acc.cols...), right.cols...)
		acc = &rowSet{cols: cols, logical: s.len()}
	}
	return acc, s, fp, nil
}

// scanCols returns t's columns as a scan exposes them under the
// (lower-cased) FROM name.
func scanCols(name string, t *Table) []scopeCol {
	cols := make([]scopeCol, len(t.lowerCols))
	for i, c := range t.lowerCols {
		cols[i] = scopeCol{table: name, name: c}
	}
	return cols
}

// execFromItem evaluates one FROM item: its columns and logical size (the
// rowSet's rows stay unset), and its rows as a selection — all of a
// sub-select's result or of an unfiltered table, or the positions the table's
// pushed conjuncts keep (scanPositions). pushed holds the WHERE conjuncts the
// planner placed at this scan (always nil for subquery items and for
// unplanned execution). The scan is charged at full table size whether or
// not pushdown filters it — that is the naive executor's charge.
func (ec *execCtx) execFromItem(item *FromItem, outer *scope, pushed []conjunct) (*rowSet, selection, error) {
	name := strings.ToLower(item.Name())
	if item.Sub != nil {
		sub, err := ec.execSelect(item.Sub, outer)
		if err != nil {
			return nil, selection{}, err
		}
		rs := &rowSet{logical: len(sub.Data)}
		for _, c := range sub.Columns {
			rs.cols = append(rs.cols, scopeCol{table: name, name: strings.ToLower(c)})
		}
		return rs, selection{rows: sub.Data, all: true}, nil
	}
	t, ok := ec.db.Table(item.Table)
	if !ok {
		return nil, selection{}, fmt.Errorf("sqlengine: no such table: %s", item.Table)
	}
	if err := ec.charge(int64(len(t.Rows))); err != nil {
		return nil, selection{}, err
	}
	rs := &rowSet{cols: scanCols(name, t), logical: len(t.Rows)}
	s, err := ec.scanPositions(t, rs.cols, pushed, outer)
	return rs, s, err
}

// join combines two relations. The logical pair count |L|·|R| is charged up
// front — exactly the naive nested loop's total, and computed from the
// inputs' logical cardinalities so that pushdown-filtered scans do not
// change the charge. With a usable plan the join runs as a hash join, whose
// output is position pairs; otherwise the nested loop below builds the
// joined rows, with one reusable pair buffer and environment (fresh slices
// are allocated only for emitted rows).
func (ec *execCtx) join(left, right *rowSet, jt JoinType, on Expr, outer *scope, ja *joinAnalysis) (selection, error) {
	if err := ec.charge(int64(left.logical) * int64(right.logical)); err != nil {
		return selection{}, err
	}
	if on != nil && ja != nil && ja.safe {
		if equis, residual, ok := resolveHashJoin(left, right, ja, outer); ok {
			return ec.hashJoin(left, right, jt, equis, residual, outer)
		}
	}
	cols := make([]scopeCol, 0, len(left.cols)+len(right.cols))
	cols = append(cols, left.cols...)
	cols = append(cols, right.cols...)
	var out [][]Value
	nullRight := make([]Value, len(right.cols))
	buf := make([]Value, len(cols))
	sc := &scope{cols: cols, row: buf, parent: outer}
	env := &evalEnv{ec: ec, sc: sc}
	for _, lr := range left.rows {
		matched := false
		copy(buf, lr)
		for _, rr := range right.rows {
			copy(buf[len(left.cols):], rr)
			if on != nil {
				v, err := env.eval(on)
				if err != nil {
					return selection{}, err
				}
				if t, known := v.Truth(); !t || !known {
					continue
				}
			}
			matched = true
			row := make([]Value, len(cols))
			copy(row, buf)
			out = append(out, row)
		}
		if jt == JoinLeft && !matched {
			row := make([]Value, 0, len(cols))
			row = append(row, lr...)
			row = append(row, nullRight...)
			out = append(out, row)
		}
	}
	return selection{rows: out, all: true}, nil
}

// --- DML execution ---

func (ec *execCtx) execInsert(ins *InsertStmt) (int64, error) {
	t, ok := ec.db.Table(ins.Table)
	if !ok {
		return 0, fmt.Errorf("sqlengine: no such table: %s", ins.Table)
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

func (ec *execCtx) execUpdate(up *UpdateStmt) (int64, error) {
	t, ok := ec.db.Table(up.Table)
	if !ok {
		return 0, fmt.Errorf("sqlengine: no such table: %s", up.Table)
	}
	var n int64
	sc := &scope{cols: scanCols(strings.ToLower(t.Name), t)}
	env := &evalEnv{ec: ec, sc: sc}
	for ri, row := range t.Rows {
		if err := ec.charge(1); err != nil {
			return n, err
		}
		sc.row = row
		if up.Where != nil {
			v, err := env.eval(up.Where)
			if err != nil {
				return n, err
			}
			if truth, known := v.Truth(); !truth || !known {
				continue
			}
		}
		newRow := make([]Value, len(row))
		copy(newRow, row)
		for _, set := range up.Set {
			idx := t.ColumnIndex(set.Column)
			if idx < 0 {
				return n, fmt.Errorf("sqlengine: no such column: %s", set.Column)
			}
			v, err := env.eval(set.Value)
			if err != nil {
				return n, err
			}
			newRow[idx] = coerce(v, t.Columns[idx].Type)
		}
		t.Rows[ri] = newRow
		n++
	}
	if n > 0 {
		t.invalidateIndexes()
	}
	return n, nil
}

func (ec *execCtx) execDelete(del *DeleteStmt) (int64, error) {
	t, ok := ec.db.Table(del.Table)
	if !ok {
		return 0, fmt.Errorf("sqlengine: no such table: %s", del.Table)
	}
	var kept [][]Value
	var n int64
	sc := &scope{cols: scanCols(strings.ToLower(t.Name), t)}
	env := &evalEnv{ec: ec, sc: sc}
	for _, row := range t.Rows {
		if err := ec.charge(1); err != nil {
			return n, err
		}
		remove := true
		if del.Where != nil {
			sc.row = row
			v, err := env.eval(del.Where)
			if err != nil {
				return n, err
			}
			truth, known := v.Truth()
			remove = truth && known
		}
		if remove {
			n++
		} else {
			kept = append(kept, row)
		}
	}
	t.Rows = kept
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
	switch x := e.(type) {
	case *FuncCall:
		if isAggregateCall(x) {
			return true
		}
		for _, a := range x.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *Binary:
		return exprHasAggregate(x.L) || exprHasAggregate(x.R)
	case *Unary:
		return exprHasAggregate(x.X)
	case *CaseExpr:
		if x.Operand != nil && exprHasAggregate(x.Operand) {
			return true
		}
		for _, w := range x.Whens {
			if exprHasAggregate(w.When) || exprHasAggregate(w.Then) {
				return true
			}
		}
		if x.Else != nil && exprHasAggregate(x.Else) {
			return true
		}
	case *BetweenExpr:
		return exprHasAggregate(x.X) || exprHasAggregate(x.Lo) || exprHasAggregate(x.Hi)
	case *LikeExpr:
		return exprHasAggregate(x.X) || exprHasAggregate(x.Pattern)
	case *IsNullExpr:
		return exprHasAggregate(x.X)
	case *InExpr:
		if exprHasAggregate(x.X) {
			return true
		}
		for _, e := range x.List {
			if exprHasAggregate(e) {
				return true
			}
		}
	case *CastExpr:
		return exprHasAggregate(x.X)
	}
	return false
}

// isAggregateCall reports whether fc is an aggregate invocation. MIN/MAX
// with more than one argument are SQLite's scalar variants.
func isAggregateCall(fc *FuncCall) bool {
	switch fc.Name {
	case "COUNT", "SUM", "AVG", "TOTAL", "GROUP_CONCAT":
		return true
	case "MIN", "MAX":
		return fc.Star || len(fc.Args) == 1
	}
	return false
}
