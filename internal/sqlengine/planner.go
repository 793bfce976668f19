package sqlengine

import (
	"strconv"
	"strings"
	"sync/atomic"
)

// This file is the query planner. It analyses parsed SELECTs once (at
// Prepare time) and lets the executor replace the naive physical plan —
// full scans into nested-loop joins — with hash equi-joins, predicate
// pushdown and point-lookup indexes.
//
// The planner's contract with the naive executor, the reference every
// equivalence test runs (Stmt.ExecReference):
//
//   - identical rows in identical order, and the same error class — except
//     that where the reference exceeds maxCost the plan may answer;
//   - Result.Cost no greater than the reference's. Cost counts what the
//     chosen plan touches (exec.go), and no optimisation below touches
//     more than the naive plan does.
//
// Every optimisation is gated on static guarantees; anything the planner
// cannot prove falls back to the naive path.
//
//   - Hash equi-join: the ON conjunction is split; conjuncts of shape
//     `left.col = right.col` become hash conditions, the rest become
//     residual filters on hash-matched pairs. The output relation equals
//     the nested-loop output in content *and order* (probe in left-row
//     order, each key's right rows chained ascending), and is emitted as
//     (left, right) position pairs, not rows (hashjoin.go). Residual
//     conjuncts are evaluated on fewer pairs than the naive loop would, so
//     they must be safe-total: subquery-free and unable to error on any
//     input (exprSafeTotal). Any unresolvable or ambiguous column reference
//     in the ON clause bails to the nested loop, which reproduces the naive
//     error behaviour exactly.
//
//   - Predicate pushdown: the WHERE conjunction is split and single-table
//     conjuncts are evaluated during the base-table scan, before the join
//     multiplies rows. Any FROM item may be filtered but the right side of
//     a LEFT JOIN (NULL-extension semantics). Pushdown requires every WHERE
//     and ON conjunct to be safe-total, because rows removed early are rows
//     the naive executor would still have evaluated the others on.
//
//   - The one exception is a top-level `[NOT] EXISTS` conjunct whose body
//     is uncorrelated (subquery.go): it is a constant of the statement, set
//     aside at Prepare while the other conjuncts are pushed down, indexed
//     and filtered as if it were absent. The naive AND chain evaluates it,
//     and raises its errors, on the first row where no earlier conjunct is
//     FALSE; settleExists evaluates it iff such a row exists.
//
//   - Point-lookup index: a pushed conjunct of shape `col = literal` uses
//     a lazily built per-column hash index (invalidated by any DML)
//     instead of scanning.

// selectPlan is the planner's per-SELECT structural analysis, computed once
// at Prepare time from the AST alone (no schema access — column resolution
// is deferred to execution, where the scopes are known).
type selectPlan struct {
	// where is the flattened WHERE conjunction in evaluation order, less its
	// top-level EXISTS conjuncts; empty when there is nothing else.
	where []conjunct
	// exists holds the top-level [NOT] EXISTS conjuncts in evaluation order.
	exists []existsConjunct
	// whereSafe reports that every conjunct in where is safe-total — the
	// precondition for pushdown and the batch filter, which also need every
	// EXISTS in exists to be uncorrelated (subquery.go).
	whereSafe bool
	// anyRow marks the body of an EXISTS: only whether it has a row is
	// read, so a positions tail returns at most one (positions.go).
	anyRow bool
	// uncorrelated caches, once an execution has proved it, that this SELECT
	// as a subquery reads nothing of an enclosing row (subquery.go). It is
	// the one field written after Prepare, and only ever from false to true.
	uncorrelated atomic.Bool
	// joins holds the ON-clause analysis per FROM item (index aligned with
	// SelectStmt.From; entry 0 and ON-less items are nil).
	joins []*joinAnalysis
}

// conjunct is one AND-term of a WHERE or ON clause.
type conjunct struct {
	expr Expr
	// refs lists every column reference in expr (subquery bodies excluded —
	// a conjunct containing a subquery is never safe, so its refs are
	// never consulted).
	refs []*ColumnRef
	// eq is set when expr is `colref = colref`, the hash-join candidate
	// shape.
	eq *eqPattern
	// eqLit is set when expr is `colref = literal` (either order), the
	// point-lookup index shape.
	eqLit *eqLitPattern
	// safe reports expr is safe-total: pure (no subqueries) and total
	// (cannot error on any row), so evaluating it on more or fewer rows than
	// the naive executor is unobservable.
	safe bool
}

// existsConjunct is a top-level [NOT] EXISTS term of a WHERE; at counts
// the where conjuncts before it, the ones the naive AND chain evaluates
// first.
type existsConjunct struct {
	x  *ExistsExpr
	at int
}

type eqPattern struct{ a, b *ColumnRef }

type eqLitPattern struct {
	col *ColumnRef
	lit Value
}

// joinAnalysis is the flattened ON conjunction of one join.
type joinAnalysis struct {
	conj []conjunct
	// safe reports every conjunct is safe-total — the hash-join
	// precondition (residuals run on hash-matched pairs only).
	safe bool
}

// planStatement walks every SELECT nested anywhere in st (FROM subqueries,
// IN/EXISTS/scalar subqueries, compound arms, DML expressions) and analyses
// each one. Returns nil when the statement contains no SELECT.
func planStatement(st Statement) map[*SelectStmt]*selectPlan {
	m := make(map[*SelectStmt]*selectPlan)
	switch s := st.(type) {
	case *SelectStmt:
		walkSelect(s, m)
	case *InsertStmt:
		for _, row := range s.Rows {
			for _, e := range row {
				walkExprSelects(e, m)
			}
		}
	case *UpdateStmt:
		for _, set := range s.Set {
			walkExprSelects(set.Value, m)
		}
		walkExprSelects(s.Where, m)
	case *DeleteStmt:
		walkExprSelects(s.Where, m)
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

func walkSelect(sel *SelectStmt, m map[*SelectStmt]*selectPlan) {
	if sel == nil {
		return
	}
	if _, done := m[sel]; done {
		return
	}
	m[sel] = planSelect(sel)
	for i := range sel.From {
		walkSelect(sel.From[i].Sub, m)
		walkExprSelects(sel.From[i].On, m)
	}
	for _, item := range sel.Columns {
		walkExprSelects(item.Expr, m)
	}
	walkExprSelects(sel.Where, m)
	for _, e := range sel.GroupBy {
		walkExprSelects(e, m)
	}
	walkExprSelects(sel.Having, m)
	for _, ob := range sel.OrderBy {
		walkExprSelects(ob.Expr, m)
	}
	walkExprSelects(sel.Limit, m)
	walkExprSelects(sel.Offset, m)
	walkSelect(sel.Next, m)
}

func walkExprSelects(e Expr, m map[*SelectStmt]*selectPlan) {
	switch x := e.(type) {
	case nil:
	case *Unary:
		walkExprSelects(x.X, m)
	case *Binary:
		walkExprSelects(x.L, m)
		walkExprSelects(x.R, m)
	case *FuncCall:
		for _, a := range x.Args {
			walkExprSelects(a, m)
		}
	case *CaseExpr:
		walkExprSelects(x.Operand, m)
		for _, w := range x.Whens {
			walkExprSelects(w.When, m)
			walkExprSelects(w.Then, m)
		}
		walkExprSelects(x.Else, m)
	case *BetweenExpr:
		walkExprSelects(x.X, m)
		walkExprSelects(x.Lo, m)
		walkExprSelects(x.Hi, m)
	case *LikeExpr:
		walkExprSelects(x.X, m)
		walkExprSelects(x.Pattern, m)
	case *IsNullExpr:
		walkExprSelects(x.X, m)
	case *InExpr:
		walkExprSelects(x.X, m)
		for _, le := range x.List {
			walkExprSelects(le, m)
		}
		walkSelect(x.Sub, m)
	case *ExistsExpr:
		walkSelect(x.Sub, m)
		// Not a compound body: UNION and the rest combine whole arms.
		m[x.Sub].anyRow = x.Sub.Compound == CompoundNone
	case *SubqueryExpr:
		walkSelect(x.Sub, m)
	case *CastExpr:
		walkExprSelects(x.X, m)
	}
}

func planSelect(sel *SelectStmt) *selectPlan {
	pl := &selectPlan{whereSafe: true}
	if sel.Where != nil {
		for _, e := range flattenAnd(sel.Where, nil) {
			if x, ok := e.(*ExistsExpr); ok {
				pl.exists = append(pl.exists, existsConjunct{x: x, at: len(pl.where)})
				continue
			}
			c := analyzeConjunct(e)
			if !c.safe {
				pl.whereSafe = false
			}
			pl.where = append(pl.where, c)
		}
	}
	if len(sel.From) > 1 {
		pl.joins = make([]*joinAnalysis, len(sel.From))
		for i := 1; i < len(sel.From); i++ {
			if sel.From[i].On == nil {
				continue
			}
			ja := &joinAnalysis{safe: true}
			for _, e := range flattenAnd(sel.From[i].On, nil) {
				c := analyzeConjunct(e)
				if !c.safe {
					ja.safe = false
				}
				ja.conj = append(ja.conj, c)
			}
			pl.joins[i] = ja
		}
	}
	return pl
}

// flattenAnd appends the AND-tree leaves of e to dst in evaluation order.
func flattenAnd(e Expr, dst []Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return flattenAnd(b.R, flattenAnd(b.L, dst))
	}
	return append(dst, e)
}

func analyzeConjunct(e Expr) conjunct {
	c := conjunct{expr: e, safe: exprSafeTotal(e)}
	c.refs = collectRefs(e, nil)
	if b, ok := e.(*Binary); ok && b.Op == "=" {
		lref, lok := b.L.(*ColumnRef)
		rref, rok := b.R.(*ColumnRef)
		switch {
		case lok && rok:
			c.eq = &eqPattern{a: lref, b: rref}
		case lok:
			if lit, ok := b.R.(*Literal); ok {
				c.eqLit = &eqLitPattern{col: lref, lit: lit.Val}
			}
		case rok:
			if lit, ok := b.L.(*Literal); ok {
				c.eqLit = &eqLitPattern{col: rref, lit: lit.Val}
			}
		}
	}
	return c
}

// collectRefs appends every column reference in e (outside subquery bodies)
// to dst.
func collectRefs(e Expr, dst []*ColumnRef) []*ColumnRef {
	switch x := e.(type) {
	case nil:
	case *ColumnRef:
		dst = append(dst, x)
	case *Unary:
		dst = collectRefs(x.X, dst)
	case *Binary:
		dst = collectRefs(x.L, dst)
		dst = collectRefs(x.R, dst)
	case *FuncCall:
		for _, a := range x.Args {
			dst = collectRefs(a, dst)
		}
	case *CaseExpr:
		dst = collectRefs(x.Operand, dst)
		for _, w := range x.Whens {
			dst = collectRefs(w.When, dst)
			dst = collectRefs(w.Then, dst)
		}
		dst = collectRefs(x.Else, dst)
	case *BetweenExpr:
		dst = collectRefs(x.X, dst)
		dst = collectRefs(x.Lo, dst)
		dst = collectRefs(x.Hi, dst)
	case *LikeExpr:
		dst = collectRefs(x.X, dst)
		dst = collectRefs(x.Pattern, dst)
	case *IsNullExpr:
		dst = collectRefs(x.X, dst)
	case *InExpr:
		dst = collectRefs(x.X, dst)
		for _, le := range x.List {
			dst = collectRefs(le, dst)
		}
	case *CastExpr:
		dst = collectRefs(x.X, dst)
	}
	return dst
}

// exprSafeTotal reports whether e is pure and total: it contains no
// subquery (a subquery's body can fail, and fills the statement's memo) and
// cannot return an evaluation error on any input row, so evaluating it on a
// different row set cannot change whether the query fails. Column
// references are validated separately at execution time, where the scopes
// are known.
func exprSafeTotal(e Expr) bool {
	switch x := e.(type) {
	case *Literal:
		return true
	case *ColumnRef:
		// A bare `t.*` outside COUNT() is an evaluation error.
		return x.Name != "*"
	case *Unary:
		return (x.Op == "-" || x.Op == "NOT") && exprSafeTotal(x.X)
	case *Binary:
		switch x.Op {
		case "AND", "OR", "=", "!=", "<", "<=", ">", ">=", "||", "+", "-", "*", "/", "%":
			return exprSafeTotal(x.L) && exprSafeTotal(x.R)
		}
		return false
	case *CaseExpr:
		if x.Operand != nil && !exprSafeTotal(x.Operand) {
			return false
		}
		for _, w := range x.Whens {
			if !exprSafeTotal(w.When) || !exprSafeTotal(w.Then) {
				return false
			}
		}
		return x.Else == nil || exprSafeTotal(x.Else)
	case *BetweenExpr:
		return exprSafeTotal(x.X) && exprSafeTotal(x.Lo) && exprSafeTotal(x.Hi)
	case *LikeExpr:
		return exprSafeTotal(x.X) && exprSafeTotal(x.Pattern)
	case *IsNullExpr:
		return exprSafeTotal(x.X)
	case *InExpr:
		if x.Sub != nil {
			return false
		}
		if !exprSafeTotal(x.X) {
			return false
		}
		for _, le := range x.List {
			if !exprSafeTotal(le) {
				return false
			}
		}
		return true
	case *CastExpr:
		return exprSafeTotal(x.X)
	case *FuncCall:
		return scalarCallSafe(x)
	default:
		// ExistsExpr, SubqueryExpr, anything unknown.
		return false
	}
}

// scalarCallSafe reports whether a function call is a known scalar with a
// statically valid arity that cannot error at runtime. Aggregates are
// unsafe here: outside a grouped projection they raise "misuse of
// aggregate function".
func scalarCallSafe(fc *FuncCall) bool {
	if fc.Star || isAggregateCall(fc) {
		return false
	}
	for _, a := range fc.Args {
		if !exprSafeTotal(a) {
			return false
		}
	}
	n := len(fc.Args)
	switch fc.Name {
	case "ABS", "LENGTH", "UPPER", "LOWER", "TRIM", "LTRIM", "RTRIM", "TYPEOF", "DATE":
		return n == 1
	case "ROUND":
		return n == 1 || n == 2
	case "SUBSTR", "SUBSTRING":
		return n == 2 || n == 3
	case "INSTR", "IFNULL", "NULLIF":
		return n == 2
	case "REPLACE", "IIF":
		return n == 3
	case "COALESCE":
		return true
	case "MIN", "MAX":
		// The scalar multi-argument variant; 0/1 args are aggregate or error.
		return n >= 2
	case "STRFTIME":
		// Total only when the format is a literal that the engine's
		// strftime subset fully substitutes (no '%' left over).
		if n != 2 {
			return false
		}
		lit, ok := fc.Args[0].(*Literal)
		if !ok {
			return false
		}
		format := lit.Val.AsText()
		format = strings.ReplaceAll(format, "%Y", "")
		format = strings.ReplaceAll(format, "%m", "")
		format = strings.ReplaceAll(format, "%d", "")
		return !strings.Contains(format, "%")
	}
	return false
}

// --- Execution-time planning helpers ---

// fromPlan is the pushdown placement for one FROM chain, computed per
// execution (placement depends on the catalog and the outer scope, which
// are not known at Prepare time). The zero fromPlan pushes nothing.
type fromPlan struct {
	// cols holds each FROM item's columns as its scan exposes them, when
	// every item is a base table; the scans reuse them.
	cols [][]scopeCol
	// at holds, per WHERE conjunct (selectPlan.where), the FROM item whose
	// scan evaluates it, or -1: the post-join filter's. Because pushdown
	// requires every conjunct but the EXISTS ones (settled apart) to be
	// safe-total, a row passes the rest of the WHERE iff every conjunct at
	// -1 is true on it. nil when nothing is pushed.
	at []int
}

// pushedAt reports whether where[k] is pushed into the scan of item i.
func (fp *fromPlan) pushedAt(k, i int) bool { return fp.at != nil && fp.at[k] == i }

// planFrom decides pushdown placement. Nothing is pushed — the FROM
// relation is filtered whole — unless every placement rule holds: every
// WHERE and ON conjunct safe-total, every FROM item a base table, and every
// column reference resolving uniquely (ambiguity and no-such-column must
// surface exactly as the naive executor surfaces them). A join under an
// uncorrelated EXISTS pushes nothing either: when no row passes, the reach
// proof (settleExists) reads the FROM relation, which the join then has
// built whole. A conjunct is pushed into the one item its columns belong
// to, unless that item is the right side of a LEFT JOIN.
func (ec *execCtx) planFrom(pl *selectPlan, sel *SelectStmt, outer *scope) fromPlan {
	items := sel.From
	n := len(items)
	if pl == nil || len(pl.where) == 0 || !pl.whereSafe || n == 0 || n > 1 && len(pl.exists) > 0 {
		return fromPlan{}
	}
	itemCols := make([][]scopeCol, n)
	for i := range items {
		if items[i].Sub != nil {
			return fromPlan{}
		}
		t, ok := ec.db.Table(items[i].Table)
		if !ok {
			return fromPlan{} // let the naive scan raise "no such table"
		}
		itemCols[i] = scanCols(strings.ToLower(items[i].Name()), t)
	}
	none := fromPlan{cols: itemCols}
	// Pushdown shrinks join inputs, so the ON clauses get evaluated on
	// fewer pairs than the naive executor evaluates them on. That is only
	// invisible when every ON conjunct is safe-total and every ON column
	// reference resolves cleanly (an unresolvable reference errors naively
	// on the first pair — pushdown could empty an input and mask it).
	// Anything less: no pushdown.
	for i := 1; i < n; i++ {
		if items[i].On == nil {
			continue
		}
		ja := pl.joins[i]
		if ja == nil || !ja.safe {
			return none
		}
		// The ON of join i sees the columns of items 0..i.
		for _, c := range ja.conj {
			for _, r := range c.refs {
				if _, cnt := resolveItems(itemCols[:i+1], r); cnt > 1 || cnt == 0 && outerResolveClass(outer, r) != 1 {
					return none
				}
			}
		}
	}
	at := make([]int, len(pl.where))
	anyPushed := false
	for k, c := range pl.where {
		target := -1 // item index; -1 undecided, -2 multi-item
		for _, r := range c.refs {
			item, cnt := resolveItems(itemCols, r)
			if cnt > 1 {
				return none // naive evaluation raises "ambiguous column name"
			}
			if cnt == 0 {
				if outerResolveClass(outer, r) != 1 {
					return none // "no such column" (or outer ambiguity) must surface naively
				}
				continue // correlated reference: fine, scan scopes chain to outer
			}
			if target == -1 {
				target = item
			} else if target != item {
				target = -2
			}
		}
		if target >= 0 && (target == 0 || items[target].Join != JoinLeft) {
			at[k] = target
			anyPushed = true
		} else {
			at[k] = -1
		}
	}
	if !anyPushed {
		return none
	}
	return fromPlan{cols: itemCols, at: at}
}

// resolves reports whether every column reference in conj resolves
// uniquely in cols or, absent there, in the outer scopes. Otherwise the
// interpreter must filter: it raises "no such column" or "ambiguous column
// name" on the first row its AND chain reaches the reference on, and a
// kernel earlier in the batch filter may have rejected that row.
func resolves(conj []conjunct, cols []scopeCol, outer *scope) bool {
	for _, c := range conj {
		for _, r := range c.refs {
			switch _, n := resolveCols(cols, r); {
			case n > 1, n == 0 && outerResolveClass(outer, r) != 1:
				return false
			}
		}
	}
	return true
}

// resolveItems resolves a column reference against the FROM items' columns
// as one scope level (the executor's join scope), returning the owning item
// and the total number of matches across all items.
func resolveItems(itemCols [][]scopeCol, cr *ColumnRef) (item, count int) {
	lt, ln := cr.folded()
	item = -1
	for i, cols := range itemCols {
		for _, c := range cols {
			if c.name != ln {
				continue
			}
			if lt != "" && c.table != lt {
				continue
			}
			count++
			if item == -1 {
				item = i
			}
		}
	}
	return item, count
}

// resolveCols counts matches for a reference within one column list,
// returning the first matching position.
func resolveCols(cols []scopeCol, cr *ColumnRef) (idx, count int) {
	lt, ln := cr.folded()
	idx = -1
	for i, c := range cols {
		if c.name != ln {
			continue
		}
		if lt != "" && c.table != lt {
			continue
		}
		count++
		if idx == -1 {
			idx = i
		}
	}
	return idx, count
}

// outerResolveClass classifies how a reference resolves in the outer scope
// chain: 1 = uniquely at some level, 2 = ambiguous at the first level that
// matches, 0 = nowhere.
func outerResolveClass(outer *scope, cr *ColumnRef) int {
	for cur := outer; cur != nil; cur = cur.parent {
		_, n := resolveCols(cur.cols, cr)
		if n == 1 {
			return 1
		}
		if n > 1 {
			return 2
		}
	}
	return 0
}

// coarseKey appends an equality bucket key for v: values that compare equal
// under the executor's `=` (including the numeric-affinity coercion in
// harmonise) always get the same key, while distinct values may collide
// (e.g. TEXT '05' and '5' share a bucket). Consumers — the hash join and
// the point-lookup index — re-verify every candidate with sqlEq, so
// collisions cost a comparison, never a wrong row.
func coarseKey(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, 'n')
	case KindInt:
		return appendNumKey(dst, float64(v.I))
	case KindFloat:
		return appendNumKey(dst, v.Real())
	default:
		if f, ok := numericText(v.S); ok {
			// harmonise would coerce this text when compared to a number.
			return appendNumKey(dst, f)
		}
		return append(append(dst, 'T'), v.S...)
	}
}

// appendNumKey encodes one numeric bucket component. Negative zero is
// normalised first: -0.0 == 0 under SQL comparison, but strconv's 'b'
// format preserves the sign bit and would split the bucket.
func appendNumKey(dst []byte, f float64) []byte {
	if f == 0 {
		f = 0
	}
	return strconv.AppendFloat(append(dst, 'N'), f, 'b', -1, 64)
}

// sqlEq replicates the truth of the executor's `=` operator: NULL never
// matches, and mixed numeric/text operands go through the same harmonise
// coercion evalBinary applies.
func sqlEq(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	a, b = harmonise(a, b)
	return Compare(a, b) == 0
}
