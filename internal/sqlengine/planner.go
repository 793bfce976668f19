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
//     input (exprSafeTotal). Every name is bound at Prepare (bind.go), so
//     which side each column lies on is known before anything runs.
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

// selectPlan is the planner's per-SELECT analysis, computed once at Prepare
// time from the bound AST (bind.go), kept in boundSelect.plan and never
// written after.
type selectPlan struct {
	// where is the flattened WHERE conjunction in evaluation order, less its
	// top-level EXISTS conjuncts; empty when there is nothing else.
	where []conjunct
	// exists holds the top-level [NOT] EXISTS conjuncts in evaluation order.
	exists []existsConjunct
	// whereSafe reports that every conjunct in where is safe-total and every
	// EXISTS in exists uncorrelated — the precondition for pushdown and the
	// batch filter.
	whereSafe bool
	// pushed reports that some conjunct in where is evaluated by the scan of
	// a FROM item (conjunct.scan, planPush), and residual that some is not:
	// the filter after the FROM evaluates it. Because pushdown requires
	// whereSafe, a row passes the rest of the WHERE iff every residual
	// conjunct is true on it.
	pushed, residual bool
	// anyRow marks the body of an EXISTS: only whether it has a row is
	// read, so a positions tail returns at most one (positions.go).
	anyRow bool
	// joins holds the ON-clause analysis per FROM item (index aligned with
	// SelectStmt.From; entry 0 and ON-less items are nil).
	joins []*joinAnalysis
	// The tail: a row tail or an aggregate tail on positions, or the
	// clause that sends the selection to the interpreter's (positions.go).
	rowTail *rowTailPlan
	aggTail *aggPlan
	reason  string
}

// conjunct is one AND-term of a WHERE or ON clause.
type conjunct struct {
	expr Expr
	// eq holds the two references when expr is `colref = colref`, the
	// hash-join candidate shape; point reports that expr is
	// `colref = literal` (either order), the point-lookup index shape.
	eq    eqPattern
	point bool
	// safe reports expr is safe-total: pure (no subqueries) and total
	// (cannot error on any row), so evaluating it on more or fewer rows than
	// the naive executor is unobservable.
	safe bool
	// scan is the FROM item whose scan evaluates expr, or -1: the filter
	// after the FROM (planPush). kern is expr compiled over the rows it
	// filters there, if its shape compiles (kernels.go).
	scan int
	kern kernel
}

// existsConjunct is a top-level [NOT] EXISTS term of a WHERE; at counts
// the where conjuncts before it, the ones the naive AND chain evaluates
// first.
type existsConjunct struct {
	x  *ExistsExpr
	at int
}

type eqPattern struct{ a, b *ColumnRef }

// joinAnalysis is the planner's reading of one join's ON conjunction.
type joinAnalysis struct {
	// safe reports every conjunct is safe-total — the hash-join
	// precondition (residuals run on hash-matched pairs only).
	safe bool
	// lcols, rcols and residual split a safe ON clause for the hash join:
	// its cross-side column equalities, lcols[i] of the left input's rows
	// equal to rcols[i] of the right's, and the rest. All are nil when there
	// is no equality, and the nested loop runs.
	lcols, rcols []int
	residual     []Expr
}

// planSelect analyses one bound SELECT core into its boundSelect.plan. A
// compound arm's tail is planned without the compound's ORDER BY and LIMIT,
// which its arms never run.
func planSelect(sel *SelectStmt) {
	pl := &sel.bound.plan
	pl.whereSafe = true
	if sel.Where != nil {
		conj := flattenAnd(sel.Where, nil)
		pl.where = make([]conjunct, 0, len(conj))
		for _, e := range conj {
			if x, ok := e.(*ExistsExpr); ok {
				pl.exists = append(pl.exists, existsConjunct{x: x, at: len(pl.where)})
				pl.whereSafe = pl.whereSafe && !x.Sub.bound.correlated
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
			if sel.From[i].On != nil {
				pl.joins[i] = planJoin(sel.From[i].On, sel.bound.from[i].off)
			}
		}
	}
	planPush(sel, pl)
	for k := range pl.where {
		c := &pl.where[k]
		off := 0
		if c.scan >= 0 {
			off = sel.bound.from[c.scan].off
		}
		c.kern = kernelOf(c.expr, off)
		pl.residual = pl.residual || c.scan < 0
	}
	core := *sel
	if sel.Compound != CompoundNone {
		core.OrderBy, core.Limit, core.Offset = nil, nil, nil
	}
	sel.bound.grouped = len(sel.GroupBy) > 0 || anyAggregate(&core)
	if sel.bound.grouped {
		pl.aggTail, pl.reason = planAggTail(&core)
	} else {
		pl.rowTail, pl.reason = planRowTail(&core)
	}
}

// planJoin analyses the ON clause of the join whose right input starts at
// slot right of the FROM row: a column of the left input lies before it.
func planJoin(on Expr, right int) *joinAnalysis {
	ja := &joinAnalysis{safe: true}
	var conj []conjunct
	for _, e := range flattenAnd(on, nil) {
		c := analyzeConjunct(e)
		ja.safe = ja.safe && c.safe
		conj = append(conj, c)
	}
	if !ja.safe {
		return ja
	}
	for _, c := range conj {
		if c.eq.a != nil && c.eq.a.depth == 0 && c.eq.b.depth == 0 {
			a, b := c.eq.a.slot, c.eq.b.slot
			if b < a {
				a, b = b, a
			}
			if a < right && b >= right {
				ja.lcols, ja.rcols = append(ja.lcols, a), append(ja.rcols, b-right)
				continue
			}
		}
		// Same-side or correlated equality: plain residual filter.
		ja.residual = append(ja.residual, c.expr)
	}
	if ja.lcols == nil {
		ja.residual = nil
	}
	return ja
}

// flattenAnd appends the AND-tree leaves of e to dst in evaluation order.
func flattenAnd(e Expr, dst []Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.op == opAnd {
		return flattenAnd(b.R, flattenAnd(b.L, dst))
	}
	return append(dst, e)
}

func analyzeConjunct(e Expr) conjunct {
	c := conjunct{expr: e, safe: exprSafeTotal(e), scan: -1}
	if b, ok := e.(*Binary); ok && b.op == opEq {
		lref, lok := b.L.(*ColumnRef)
		rref, rok := b.R.(*ColumnRef)
		_, llit := b.L.(*Literal)
		_, rlit := b.R.(*Literal)
		if lok && rok {
			c.eq = eqPattern{a: lref, b: rref}
		}
		c.point = lok && rlit || rok && llit
	}
	return c
}

// collectRefs appends every column reference in e (outside subquery bodies)
// to dst.
func collectRefs(e Expr, dst []*ColumnRef) []*ColumnRef {
	if cr, ok := e.(*ColumnRef); ok {
		return append(dst, cr)
	}
	eachOperand(e, func(x Expr) { dst = collectRefs(x, dst) })
	return dst
}

// exprSafeTotal reports whether e is pure and total: it contains no
// subquery (a subquery's body can fail, and fills the statement's memo) and
// cannot return an evaluation error on any input row, so evaluating it on a
// different row set cannot change whether the query fails. It reads e as
// Prepare compiled it: every column reference is bound, so reading one cannot
// fail, every operator is an opcode and every call resolved (resolveCall).
func exprSafeTotal(e Expr) bool {
	if !nodeSafe(e) {
		return false
	}
	safe := true
	eachOperand(e, func(x Expr) { safe = safe && exprSafeTotal(x) })
	return safe
}

// nodeSafe reports whether e's own node is pure and total over operands
// that are (exprSafeTotal).
func nodeSafe(e Expr) bool {
	switch x := e.(type) {
	case *ColumnRef:
		// A bare `t.*` outside COUNT() is an evaluation error.
		return x.depth >= 0
	case *Unary:
		if x.op == opUnknown {
			return false
		}
	case *Binary:
		if x.op == opUnknown {
			return false
		}
	case *InExpr:
		if x.Sub != nil {
			return false
		}
	case *FuncCall:
		// A scalar function passed an argument count it accepts, and
		// arguments its total test, if any, holds. An aggregate raises
		// "misuse of aggregate function" outside a grouped projection; it,
		// and a name no function has, resolve to no scalar function.
		f, n := x.fn, len(x.Args)
		if f == nil || x.Star || n < f.min || f.max >= 0 && n > f.max || f.total != nil && !f.total(x.Args) {
			return false
		}
	case *Literal, *CaseExpr, *BetweenExpr, *LikeExpr, *IsNullExpr, *CastExpr:
	default:
		// ExistsExpr, SubqueryExpr, anything unknown.
		return false
	}
	return true
}

// literalDateFormat is STRFTIME's total test: its format is a literal that
// the engine's strftime subset fully substitutes (no '%' left over).
func literalDateFormat(args []Expr) bool {
	lit, ok := args[0].(*Literal)
	if !ok {
		return false
	}
	format := lit.Val.AsText()
	format = strings.ReplaceAll(format, "%Y", "")
	format = strings.ReplaceAll(format, "%m", "")
	format = strings.ReplaceAll(format, "%d", "")
	return !strings.Contains(format, "%")
}

// planPush decides pushdown placement. Nothing is pushed — the FROM
// relation is filtered whole — unless every placement rule holds: the
// WHERE is safe (whereSafe), every ON conjunct is safe-total and every FROM
// item a base table. A join under an uncorrelated EXISTS pushes nothing
// either: when no row passes, the reach proof (settleExists) reads the FROM
// relation, which the join then has built whole. A conjunct is pushed into
// the one item its columns belong to, unless that item is the right side of
// a LEFT JOIN; a reference to an enclosing row is read through the scan's
// scope as anywhere else.
func planPush(sel *SelectStmt, pl *selectPlan) {
	items, from := sel.From, sel.bound.from
	n := len(items)
	if len(pl.where) == 0 || !pl.whereSafe || n == 0 || n > 1 && len(pl.exists) > 0 {
		return
	}
	for i := range items {
		if items[i].Sub != nil || pl.joins != nil && pl.joins[i] != nil && !pl.joins[i].safe {
			return
		}
	}
	for k := range pl.where {
		c := &pl.where[k]
		target := -1 // item index; -1 undecided, -2 multi-item
		// A conjunct containing a subquery is never safe, so no reference
		// in a subquery body is missed here.
		for _, r := range collectRefs(c.expr, nil) {
			if r.depth > 0 {
				continue
			}
			item := 0
			for item+1 < n && from[item+1].off <= r.slot {
				item++
			}
			if target == -1 {
				target = item
			} else if target != item {
				target = -2
			}
		}
		if target >= 0 && (target == 0 || items[target].Join != JoinLeft) {
			c.scan = target
			pl.pushed = true
		}
	}
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

// sqlEq is the truth of the evaluator's `=`: NULL never matches, and
// other operands compare as compareSQL orders them.
func sqlEq(a, b Value) bool {
	return !a.IsNull() && !b.IsNull() && compareSQL(a, b) == 0
}
