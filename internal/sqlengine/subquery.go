package sqlengine

// Subquery memoization. Evaluated per outer row, an EXISTS/IN/scalar
// subquery whose body is uncorrelated — no column reference in it binds to
// an enclosing row (bind.go) — returns the same result each time, and at
// scale turns a linear scan into a quadratic one. execSub runs such
// subqueries once per statement execution and caches the result in the
// execCtx; the memo lives in expression evaluation and the verdict in the
// bound AST, so the naive reference has both too.
//
// An uncorrelated [NOT] EXISTS conjunct at the top of a WHERE is therefore
// a constant of the statement, and the planner does not let it switch off
// pushdown, the index or the kernels: the other conjuncts filter as if it
// were absent, and settleExists evaluates it — once, through the memo —
// iff the naive AND chain would have reached it. The body of any EXISTS is
// planned to return at most one row (selectPlan.anyRow).

// execSub executes a subquery expression, memoizing the result when the
// subquery is uncorrelated.
func (env *evalEnv) execSub(sel *SelectStmt) (*Rows, error) {
	ec := env.ec
	if rows, ok := ec.subMemo[sel]; ok {
		return rows, nil
	}
	rows, err := ec.execSelect(sel, env.sc)
	if err != nil || sel.bound.correlated {
		return rows, err
	}
	if ec.subMemo == nil {
		ec.subMemo = make(map[*SelectStmt]*Rows)
	}
	ec.subMemo[sel] = rows
	return rows, nil
}

// settleExists applies pl's EXISTS conjuncts to kept, the selection the
// other conjuncts left of from, the FROM relation, or to the rows an
// operator folded into run instead. The naive AND chain evaluates an EXISTS
// — and raises its body's errors — on the first row where no earlier
// conjunct is FALSE. A kept row is TRUE on every other conjunct, so while a
// row is kept each EXISTS is reached in turn until one is false, which
// empties kept and leaves run to fold nothing. With no row kept the result
// is empty either way, and only the error is in question: the earlier
// conjuncts are tested for "not FALSE" over the whole FROM relation. That
// proof charges nothing; it reads rows the FROM already holds.
func (ec *execCtx) settleExists(outer *scope, pl *selectPlan, from, kept selection, run *aggRun) (selection, error) {
	env := evalEnv{ec: ec, sc: outer}
	for _, c := range pl.exists {
		if kept.len() == 0 && (run == nil || run.rows == 0) {
			reached, err := ec.anyNotFalse(from, pl.where[:c.at], outer)
			if err != nil || !reached {
				return kept, err
			}
		}
		if ok, err := env.holds(c.x); err != nil {
			return selection{}, err
		} else if !ok {
			if run != nil {
				run.started = false
			}
			return kept.keep(nil, 0), nil
		}
	}
	return kept, nil
}

// anyNotFalse reports whether some row of in makes none of conj FALSE —
// whether the naive AND chain gets past them. conj is safe-total, so
// evaluating it raises nothing.
func (ec *execCtx) anyNotFalse(in selection, conj []conjunct, outer *scope) (bool, error) {
	sc := &scope{parent: outer}
	env := &evalEnv{ec: ec, sc: sc}
	buf := in.rowBuf()
rows:
	for i, n := 0, in.len(); i < n; i++ {
		l, r := in.row(i)
		in.scopeAt(sc, l, r, buf)
		for _, c := range conj {
			if t, known, err := env.truth(c.expr); err != nil {
				return false, err
			} else if known && !t {
				continue rows
			}
		}
		return true, nil
	}
	return false, nil
}
