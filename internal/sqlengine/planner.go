package sqlengine

import (
	"strconv"
	"strings"
)

// This file is the query planner. It analyses parsed SELECTs once (at
// Prepare time) and lets the executor replace the naive physical plan —
// full scans into nested-loop joins — with hash equi-joins, predicate
// pushdown and point-lookup indexes.
//
// The planner's contract is strict plan/naive equivalence:
//
//   - identical rows in identical order, and
//   - identical Result.Cost.
//
// Cost is *logical*: it counts the rows the naive executor would have
// touched, not the rows the chosen plan touches. That is what keeps the
// VES metric (which weights accuracy by cost ratios) byte-stable across
// planner changes. Every optimisation below is therefore gated on static
// guarantees; anything the planner cannot prove falls back to the naive
// path, which is kept intact as the reference implementation.
//
// The guarantees, and how each optimisation preserves them:
//
//   - Hash equi-join: the ON conjunction is split; conjuncts of shape
//     `left.col = right.col` become hash conditions, the rest become
//     residual filters on hash-matched pairs. The output relation equals
//     the nested-loop output in content *and order* (probe in left-row
//     order, each key's right rows chained ascending), and is emitted as
//     (left, right) position pairs, not rows (hashjoin.go). The join still
//     charges |L|·|R| — the naive pair count — via the rowSet's logical
//     cardinality. Residual conjuncts are evaluated on fewer pairs than
//     the naive loop would, so they must be provably pure: subquery-free
//     (subqueries charge cost) and total (cannot error on any input); see
//     exprSafeTotal. Any unresolvable or ambiguous column reference in the
//     ON clause bails to the nested loop, which reproduces the naive
//     error behaviour exactly.
//
//   - Predicate pushdown: the WHERE conjunction is split and single-table
//     conjuncts are evaluated during the base-table scan, before the join
//     multiplies rows. Filtering a join input changes the naive
//     intermediate cardinalities that later join charges depend on, so
//     pushdown is only applied where every affected charge is statically
//     known: with no joins anywhere; with exactly one join on either side
//     (both full table sizes are catalog facts); and with two or more
//     joins only into the last joined table (earlier intermediates are
//     unaffected, and the last charge uses the full catalog size). The
//     right side of a LEFT JOIN is never filtered (NULL-extension
//     semantics), and pushdown requires every WHERE conjunct — pushed or
//     residual — to be safe-total, because rows removed early are rows
//     the naive executor would still have evaluated the remaining
//     conjuncts on.
//
//   - Point-lookup index: a pushed conjunct of shape `col = literal` uses
//     a lazily built per-column hash index (invalidated by any DML)
//     instead of scanning; the scan is still charged at full table size.

// selectPlan is the planner's per-SELECT structural analysis, computed once
// at Prepare time from the AST alone (no schema access — column resolution
// is deferred to execution, where the scopes are known).
type selectPlan struct {
	// where is the flattened WHERE conjunction in evaluation order; empty
	// when the SELECT has no WHERE.
	where []conjunct
	// whereSafe reports that every WHERE conjunct is safe-total — the
	// precondition for pushdown.
	whereSafe bool
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
	// safe reports expr is safe-total: pure (no subqueries, which charge
	// cost) and total (cannot error on any row), so evaluating it on more
	// or fewer rows than the naive executor is unobservable.
	safe bool
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
// subquery (subquery execution charges cost, so evaluating e on a
// different row set than the naive executor would change Cost) and cannot
// return an evaluation error on any input row (so evaluating it on a
// different row set cannot change whether the query fails). Column
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
// are not known at Prepare time).
type fromPlan struct {
	// pushed holds, per FROM item, the WHERE conjuncts to evaluate during
	// that item's scan.
	pushed [][]conjunct
	// residual holds the WHERE conjuncts left for the post-join filter
	// stage. Because pushdown requires every conjunct to be safe-total,
	// a row passes the original WHERE iff every residual conjunct is true
	// on it.
	residual []Expr
}

// planFrom decides pushdown placement. It returns nil — meaning "evaluate
// the WHERE clause naively" — unless every placement rule holds:
// every WHERE conjunct safe-total, every FROM item a base table, every
// column reference resolving uniquely (ambiguity and no-such-column must
// surface exactly as the naive executor surfaces them), and the target
// position cost-safe per the rules in the package comment above.
func (ec *execCtx) planFrom(pl *selectPlan, sel *SelectStmt, outer *scope) *fromPlan {
	if pl == nil || len(pl.where) == 0 || !pl.whereSafe {
		return nil
	}
	items := sel.From
	n := len(items)
	if n == 0 {
		return nil
	}
	nJoins := n - 1
	itemCols := make([][]scopeCol, n)
	for i := range items {
		if items[i].Sub != nil {
			return nil
		}
		t, ok := ec.db.Table(items[i].Table)
		if !ok {
			return nil // let the naive scan raise "no such table"
		}
		itemCols[i] = scanCols(strings.ToLower(items[i].Name()), t)
	}
	// Pushdown shrinks join inputs, so the affected ON clauses get
	// evaluated on fewer pairs than the naive executor evaluates them on.
	// That is only invisible when every ON conjunct is safe-total (an ON
	// subquery charges cost per pair) and every ON column reference
	// resolves cleanly (an unresolvable reference errors naively on the
	// first pair — pushdown could empty an input and mask it). Anything
	// less: no pushdown.
	for i := 1; i < n; i++ {
		if items[i].On == nil {
			continue
		}
		ja := pl.joins[i]
		if ja == nil || !ja.safe {
			return nil
		}
		// The ON of join i sees the columns of items 0..i.
		visible := itemCols[:i+1]
		for _, c := range ja.conj {
			for _, r := range c.refs {
				_, cnt := resolveItems(visible, r)
				if cnt > 1 {
					return nil
				}
				if cnt == 0 && outerResolveClass(outer, r) != 1 {
					return nil
				}
			}
		}
	}
	pushable := func(i int) bool {
		switch {
		case nJoins == 0:
			return true
		case nJoins == 1:
			if i == 0 {
				// The left side of any single join, including LEFT JOIN:
				// left-side predicates commute with NULL extension.
				return true
			}
			return items[1].Join != JoinLeft
		default:
			// Filtering any earlier input changes the naive intermediate
			// cardinalities that later join charges are defined by; only
			// the last joined table leaves every charge statically known.
			return i == nJoins && items[i].Join != JoinLeft
		}
	}
	fp := &fromPlan{pushed: make([][]conjunct, n)}
	anyPushed := false
	for _, c := range pl.where {
		target := -1 // item index; -1 undecided, -2 multi-item
		for _, r := range c.refs {
			item, cnt := resolveItems(itemCols, r)
			if cnt > 1 {
				return nil // naive evaluation raises "ambiguous column name"
			}
			if cnt == 0 {
				if outerResolveClass(outer, r) != 1 {
					return nil // "no such column" (or outer ambiguity) must surface naively
				}
				continue // correlated reference: fine, scan scopes chain to outer
			}
			if target == -1 {
				target = item
			} else if target != item {
				target = -2
			}
		}
		if target >= 0 && pushable(target) {
			fp.pushed[target] = append(fp.pushed[target], c)
			anyPushed = true
		} else {
			fp.residual = append(fp.residual, c.expr)
		}
	}
	if !anyPushed {
		return nil
	}
	return fp
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
		return appendNumKey(dst, v.F)
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
