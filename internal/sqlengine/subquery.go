package sqlengine

import "strings"

// Subquery memoization. Evaluated per outer row, an EXISTS/IN/scalar
// subquery whose body is uncorrelated — no column reference escapes into
// the outer row scope — returns the same result each time, and at scale
// turns a linear scan into a quadratic one. execSub runs such subqueries
// once per statement execution and caches the result in the execCtx; the
// memo lives in expression evaluation, so the naive reference has it too.
//
// An uncorrelated [NOT] EXISTS conjunct at the top of a WHERE is therefore
// a constant of the statement, and the planner does not let it switch off
// pushdown, the index or the kernels: the other conjuncts filter as if it
// were absent, and settleExists evaluates it — once, through the memo —
// iff the naive AND chain would have reached it. The body of any EXISTS is
// planned to return at most one row (selectPlan.anyRow).

// execSub executes a subquery expression, memoizing the result when the
// subquery is provably uncorrelated.
func (env *evalEnv) execSub(sel *SelectStmt) (*Rows, error) {
	ec := env.ec
	if rows, ok := ec.subMemo[sel]; ok {
		return rows, nil
	}
	rows, err := ec.execSelect(sel, env.sc)
	if err != nil || ec.correlated(sel) {
		return rows, err
	}
	if ec.subMemo == nil {
		ec.subMemo = make(map[*SelectStmt]*Rows)
	}
	ec.subMemo[sel] = rows
	return rows, nil
}

// correlated reports whether sel reads a column of an enclosing row. The
// verdict reads the catalog, so it is cached for the statement's execution;
// a planned sel that proves uncorrelated keeps that verdict in its plan for
// every later execution, because a table is never dropped or altered: what
// resolves within sel's own FROM now always will.
func (ec *execCtx) correlated(sel *SelectStmt) bool {
	pl := ec.planFor(sel)
	if pl != nil && pl.uncorrelated.Load() {
		return false
	}
	corr, seen := ec.subCorr[sel]
	if !seen {
		corr = subqueryCorrelated(ec.db, sel, nil)
		if pl != nil && !corr {
			pl.uncorrelated.Store(true)
			return false
		}
		if ec.subCorr == nil {
			ec.subCorr = make(map[*SelectStmt]bool)
		}
		ec.subCorr[sel] = corr
	}
	return corr
}

// existsConstant reports whether every top-level EXISTS conjunct of pl is
// uncorrelated: a constant the batch filter may settle apart.
func (ec *execCtx) existsConstant(pl *selectPlan) bool {
	for _, c := range pl.exists {
		if ec.correlated(c.x.Sub) {
			return false
		}
	}
	return true
}

// settleExists applies pl's EXISTS conjuncts to kept, the selection the
// other conjuncts left of from, the FROM relation. The naive AND chain
// evaluates an EXISTS — and raises its body's errors — on the first row
// where no earlier conjunct is FALSE. A kept row is TRUE on every other
// conjunct, so while kept is not empty each EXISTS is reached in turn until
// one is false. Over an empty kept the result is empty either way, and
// only the error is in question: the earlier conjuncts are tested for "not
// FALSE" over the whole FROM relation. That proof charges nothing; it reads
// rows the FROM already holds.
func (ec *execCtx) settleExists(outer *scope, pl *selectPlan, cols []scopeCol, from, kept selection) (selection, error) {
	env := evalEnv{ec: ec, sc: outer}
	for _, c := range pl.exists {
		if kept.len() == 0 {
			reached, err := ec.anyNotFalse(cols, from, pl.where[:c.at], outer)
			if err != nil || !reached {
				return kept, err
			}
		}
		v, err := env.eval(c.x)
		if err != nil {
			return selection{}, err
		}
		if t, _ := v.Truth(); !t {
			return kept.keep(nil, 0), nil
		}
	}
	return kept, nil
}

// anyNotFalse reports whether some row of in makes none of conj FALSE —
// whether the naive AND chain gets past them. conj is safe-total and its
// references resolve, so evaluating it raises nothing.
func (ec *execCtx) anyNotFalse(cols []scopeCol, in selection, conj []conjunct, outer *scope) (bool, error) {
	sc := &scope{cols: cols, parent: outer}
	env := &evalEnv{ec: ec, sc: sc}
	var buf []Value
	if in.right != nil {
		buf = make([]Value, len(cols))
	}
rows:
	for i, n := 0, in.len(); i < n; i++ {
		l, r := in.row(i)
		sc.row = scopeRow(l, r, buf)
		for _, c := range conj {
			v, err := env.eval(c.expr)
			if err != nil {
				return false, err
			}
			if t, known := v.Truth(); known && !t {
				continue rows
			}
		}
		return true, nil
	}
	return false, nil
}

// frameCols maps one FROM level: addressable item name -> lower-cased
// column set.
type frameCols map[string]map[string]bool

// subqueryCorrelated reports whether sel contains a column reference that
// does not resolve within sel's own FROM items (including nested subquery
// levels). Conservative by construction: derived-table sources, missing
// tables and unknown expression nodes all count as correlated, which only
// forgoes memoization — never correctness.
func subqueryCorrelated(db *Database, sel *SelectStmt, outer []frameCols) bool {
	for cur := sel; cur != nil; cur = cur.Next {
		frame, ok := localFrame(db, cur)
		if !ok {
			return true
		}
		frames := make([]frameCols, 0, len(outer)+1)
		frames = append(frames, outer...)
		frames = append(frames, frame)
		exprs := []Expr{cur.Where, cur.Having, cur.Limit, cur.Offset}
		for _, it := range cur.Columns {
			exprs = append(exprs, it.Expr)
		}
		for _, fi := range cur.From {
			exprs = append(exprs, fi.On)
		}
		exprs = append(exprs, cur.GroupBy...)
		for _, oi := range cur.OrderBy {
			exprs = append(exprs, oi.Expr)
		}
		for _, e := range exprs {
			if e != nil && exprCorrelated(db, e, frames) {
				return true
			}
		}
		if cur.Compound == CompoundNone {
			break
		}
	}
	return false
}

// localFrame builds the column sets visible from sel's own FROM clause.
// ok is false when the frame cannot be determined statically (derived
// tables, unknown tables) — the caller then treats sel as correlated.
func localFrame(db *Database, sel *SelectStmt) (frameCols, bool) {
	frame := make(frameCols, len(sel.From))
	for _, fi := range sel.From {
		if fi.Sub != nil {
			return nil, false
		}
		t, ok := db.Table(fi.Table)
		if !ok {
			return nil, false
		}
		cols := make(map[string]bool, len(t.Columns))
		for _, c := range t.lowerCols {
			cols[c] = true
		}
		frame[strings.ToLower(fi.Name())] = cols
	}
	return frame, true
}

// refResolves reports whether a column reference resolves in any frame,
// innermost last — mirroring scope.resolve without values.
func refResolves(frames []frameCols, cr *ColumnRef) bool {
	lt, ln := cr.folded()
	for _, frame := range frames {
		if lt != "" {
			if cols, ok := frame[lt]; ok && (ln == "*" || cols[ln]) {
				return true
			}
			continue
		}
		for _, cols := range frame {
			if cols[ln] {
				return true
			}
		}
	}
	// Unqualified * (only legal inside COUNT) never reaches outward.
	return lt == "" && ln == "*"
}

// exprCorrelated walks one expression; unknown node types count as
// correlated.
func exprCorrelated(db *Database, e Expr, frames []frameCols) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *Literal:
		return false
	case *ColumnRef:
		return !refResolves(frames, x)
	case *Unary:
		return exprCorrelated(db, x.X, frames)
	case *Binary:
		return exprCorrelated(db, x.L, frames) || exprCorrelated(db, x.R, frames)
	case *FuncCall:
		for _, a := range x.Args {
			if exprCorrelated(db, a, frames) {
				return true
			}
		}
		return false
	case *CaseExpr:
		if exprCorrelated(db, x.Operand, frames) || exprCorrelated(db, x.Else, frames) {
			return true
		}
		for _, w := range x.Whens {
			if exprCorrelated(db, w.When, frames) || exprCorrelated(db, w.Then, frames) {
				return true
			}
		}
		return false
	case *InExpr:
		if exprCorrelated(db, x.X, frames) {
			return true
		}
		for _, it := range x.List {
			if exprCorrelated(db, it, frames) {
				return true
			}
		}
		if x.Sub != nil && subqueryCorrelated(db, x.Sub, frames) {
			return true
		}
		return false
	case *BetweenExpr:
		return exprCorrelated(db, x.X, frames) || exprCorrelated(db, x.Lo, frames) || exprCorrelated(db, x.Hi, frames)
	case *LikeExpr:
		return exprCorrelated(db, x.X, frames) || exprCorrelated(db, x.Pattern, frames)
	case *IsNullExpr:
		return exprCorrelated(db, x.X, frames)
	case *ExistsExpr:
		return subqueryCorrelated(db, x.Sub, frames)
	case *SubqueryExpr:
		return subqueryCorrelated(db, x.Sub, frames)
	case *CastExpr:
		return exprCorrelated(db, x.X, frames)
	default:
		return true
	}
}
