package sqlengine

import "strings"

// Vectorized predicate kernels. A kernel is a compiled per-row predicate
// for one safe-total WHERE/ON conjunct: instead of walking the expression
// tree and resolving column names per row, the shapes the planner already
// recognises (col <op> literal, BETWEEN, IN, LIKE, IS NULL, and NOT over
// any of them) compile once into closures over a column vector (vector.go),
// a row position or a selected row, and the filter loop in parallel.go
// applies them per morsel.
//
// Every kernel replicates the row interpreter's semantics exactly — the
// same NULL propagation, the same harmonise text/numeric coercion, the
// same Compare ordering — so a kernel-filtered scan emits byte-identical
// rows to the naive loop. A conjunct with no kernelizable shape keeps its
// expression and is evaluated per row with a worker-local environment;
// safe-total conjuncts cannot touch the shared execCtx (no subqueries, no
// cost charges) and can only fail with row-independent resolution errors,
// which is what makes both forms legal inside parallel morsels.

// rowPred is one compiled conjunct. Exactly one evaluation form applies:
// byIdx (kernel over a base-table scan position, reading a vector or the
// table's rows), byRow (kernel over a selected row of an intermediate
// relation, see selection.row), or expr (worker-local interpreter fallback).
type rowPred struct {
	byIdx func(i int) bool
	byRow func(l, r []Value) bool
	expr  Expr
}

// cmpMask3 encodes a three-way comparison outcome as a bit: 1 = less,
// 2 = equal, 4 = greater. Comparison operators become a constant mask
// tested against it, so one kernel body serves all six operators.
func cmpMask3(c int) uint8 {
	if c < 0 {
		return 1
	}
	if c > 0 {
		return 4
	}
	return 2
}

func cmpMaskInt(a, b int64) uint8 {
	if a < b {
		return 1
	}
	if a > b {
		return 4
	}
	return 2
}

func cmpMaskFloat(a, b float64) uint8 {
	if a < b {
		return 1
	}
	if a > b {
		return 4
	}
	return 2
}

// opMask returns the accepting mask for a comparison operator, or 0 for
// a non-comparison operator.
func opMask(op string) uint8 {
	switch op {
	case "=":
		return 2
	case "!=":
		return 1 | 4
	case "<":
		return 1
	case "<=":
		return 1 | 2
	case ">":
		return 4
	case ">=":
		return 4 | 2
	default:
		return 0
	}
}

// flipOp mirrors a comparison so `lit op col` becomes `col flip(op) lit`.
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default: // = and != are symmetric
		return op
	}
}

// predSource abstracts where a kernel reads its column cells from: a
// base-table scan position (with an optional typed vector) or a selected
// row of an intermediate relation.
type predSource struct {
	t    *Table // non-nil: scan source, kernels may be position-based
	vecs bool   // consult t's columnar shadow (table is large enough)
	cols []scopeCol
	left int // a join's output: the left input's width (selection.leftWidth)
}

// resolveLocal resolves a column reference strictly within the source's
// scope level. ok is false unless the reference resolves uniquely — an
// ambiguous or absent reference must keep its expression form so the
// interpreter raises exactly the naive error.
func (ps *predSource) resolveLocal(cr *ColumnRef) (int, bool) {
	idx, n := resolveCols(ps.cols, cr)
	return idx, n == 1
}

// compilePreds compiles one rowPred per conjunct expression. Exprs must
// all be safe-total (the caller's precondition for running them inside
// morsels at all).
func compilePreds(ps *predSource, exprs []Expr) []rowPred {
	preds := make([]rowPred, len(exprs))
	for i, e := range exprs {
		preds[i] = compilePred(ps, e)
	}
	return preds
}

func compilePred(ps *predSource, e Expr) rowPred {
	if p := compileKernel(ps, e, false); p.usable() {
		return p
	}
	return rowPred{expr: e}
}

// compileKernel returns the kernel for e — for NOT e when neg — or an
// unusable rowPred when e has no kernel shape. NOT distributes into the
// shapes' own negation: a comparison takes the complementary mask (a NULL
// cell or literal still fails, as NOT NULL does) and the others flip the
// not flag their kernels already take. A negated column is read from the
// rows: negation passes most of them, and a vector built for it would stay
// resident for no gain a selective filter could repay. What a comparison
// reads from rows — a negated column, an index bucket, a join's output —
// still compares a TEXT or INTEGER cell against a literal of its own kind
// without the general path (cmpKernel).
func compileKernel(ps *predSource, e Expr, neg bool) rowPred {
	switch x := e.(type) {
	case *Unary:
		if x.Op == "NOT" {
			rows := *ps
			rows.vecs = false
			return compileKernel(&rows, x.X, !neg)
		}
	case *Binary:
		if opMask(x.Op) != 0 {
			maskFor := func(op string) uint8 {
				if neg {
					return opMask(op) ^ 7
				}
				return opMask(op)
			}
			if cr, ok := x.L.(*ColumnRef); ok && cr.Name != "*" {
				if lit, ok := x.R.(*Literal); ok {
					if p := cmpKernel(ps, cr, lit.Val, maskFor(x.Op)); p.usable() {
						return p
					}
				}
			}
			if cr, ok := x.R.(*ColumnRef); ok && cr.Name != "*" {
				if lit, ok := x.L.(*Literal); ok {
					return cmpKernel(ps, cr, lit.Val, maskFor(flipOp(x.Op)))
				}
			}
		}
	case *IsNullExpr:
		if cr, ok := x.X.(*ColumnRef); ok && cr.Name != "*" {
			return isNullKernel(ps, cr, x.Not != neg)
		}
	case *BetweenExpr:
		if cr, ok := x.X.(*ColumnRef); ok && cr.Name != "*" {
			lo, lok := x.Lo.(*Literal)
			hi, hok := x.Hi.(*Literal)
			if lok && hok {
				return betweenKernel(ps, cr, lo.Val, hi.Val, x.Not != neg)
			}
		}
	case *InExpr:
		if cr, ok := x.X.(*ColumnRef); ok && cr.Name != "*" && x.Sub == nil {
			lits := make([]Value, 0, len(x.List))
			for _, le := range x.List {
				lit, ok := le.(*Literal)
				if !ok {
					return rowPred{}
				}
				lits = append(lits, lit.Val)
			}
			return inKernel(ps, cr, lits, x.Not != neg)
		}
	case *LikeExpr:
		if cr, ok := x.X.(*ColumnRef); ok && cr.Name != "*" {
			if lit, ok := x.Pattern.(*Literal); ok {
				return likeKernel(ps, cr, lit.Val, x.Not != neg)
			}
		}
	}
	return rowPred{}
}

func (p rowPred) usable() bool { return p.byIdx != nil || p.byRow != nil }

// rowKernel is the row form of a kernel body: test applied to column col of
// a selected row.
func (ps *predSource) rowKernel(col int, test func(Value) bool) func(l, r []Value) bool {
	c := splitCol(ps.left, col)
	return func(l, r []Value) bool { return test(cell(l, r, c)) }
}

// idxKernel is the row-reading position form of a kernel body: test applied
// to column col of the scanned table's row i. It serves what no typed vector
// does — a negated column, an index bucket, a column of mixed kinds.
func (ps *predSource) idxKernel(col int, test func(Value) bool) func(i int) bool {
	rows := ps.t.Rows
	return func(i int) bool { return test(rows[i][col]) }
}

// cmpKernel compiles `col <op> lit` with the interpreter's exact
// semantics: NULL on either side fails the filter, mixed numeric/text
// operands harmonise, then Compare orders across kinds. Where cells are read
// from rows, a TEXT cell against a TEXT literal and an INTEGER cell against
// an INTEGER literal — where harmonise changes nothing — compare directly,
// and every other cell takes that general path.
func cmpKernel(ps *predSource, cr *ColumnRef, lit Value, mask uint8) rowPred {
	col, ok := ps.resolveLocal(cr)
	if !ok {
		return rowPred{}
	}
	if lit.IsNull() {
		return constPred(ps, false)
	}
	generic := func(v Value) bool {
		if v.IsNull() {
			return false
		}
		a, b := harmonise(v, lit)
		return mask&cmpMask3(Compare(a, b)) != 0
	}
	test := generic
	switch lit.Kind {
	case KindText:
		ls := lit.S
		test = func(v Value) bool {
			if v.Kind == KindText {
				return mask&cmpMask3(strings.Compare(v.S, ls)) != 0
			}
			return generic(v)
		}
	case KindInt:
		li := lit.I
		test = func(v Value) bool {
			if v.Kind == KindInt {
				return mask&cmpMaskInt(v.I, li) != 0
			}
			return generic(v)
		}
	}
	if ps.t == nil {
		return rowPred{byRow: ps.rowKernel(col, test)}
	}
	if !ps.vecs {
		return rowPred{byIdx: ps.idxKernel(col, test)}
	}
	vec := ps.t.columnVec(col)
	if !vec.typed || vec.kind == KindNull {
		return rowPred{byIdx: ps.idxKernel(col, test)}
	}
	litF, litNum := 0.0, false
	switch lit.Kind {
	case KindInt:
		litF, litNum = float64(lit.I), true
	case KindFloat:
		litF, litNum = lit.F, true
	case KindText:
		litF, litNum = numericText(lit.S)
	}
	switch vec.kind {
	case KindInt:
		ints := vec.ints
		if lit.Kind == KindInt {
			li := lit.I
			return rowPred{byIdx: func(i int) bool {
				return !vec.null(i) && mask&cmpMaskInt(ints[i], li) != 0
			}}
		}
		if litNum {
			// Int column vs REAL literal, or vs numeric-looking text that
			// harmonise coerces to REAL: numeric comparison as float.
			return rowPred{byIdx: func(i int) bool {
				return !vec.null(i) && mask&cmpMaskFloat(float64(ints[i]), litF) != 0
			}}
		}
		// Numeric column vs non-numeric text: numbers order before text.
		res := mask&1 != 0
		return rowPred{byIdx: func(i int) bool { return !vec.null(i) && res }}
	case KindFloat:
		floats := vec.floats
		if litNum {
			return rowPred{byIdx: func(i int) bool {
				return !vec.null(i) && mask&cmpMaskFloat(floats[i], litF) != 0
			}}
		}
		res := mask&1 != 0
		return rowPred{byIdx: func(i int) bool { return !vec.null(i) && res }}
	case KindText:
		strs := vec.strs
		if lit.Kind == KindText {
			// Text vs text: no harmonise coercion, byte-wise Compare.
			ls := lit.S
			return rowPred{byIdx: func(i int) bool {
				return !vec.null(i) && mask&cmpMask3(strings.Compare(strs[i], ls)) != 0
			}}
		}
		// Text column vs numeric literal: numeric-looking cells harmonise
		// to REAL and compare numerically; the rest order after numbers.
		textRes := mask&4 != 0
		return rowPred{byIdx: func(i int) bool {
			if vec.null(i) {
				return false
			}
			if f, ok := numericText(strs[i]); ok {
				return mask&cmpMaskFloat(f, litF) != 0
			}
			return textRes
		}}
	}
	return rowPred{byIdx: ps.idxKernel(col, generic)}
}

func isNullKernel(ps *predSource, cr *ColumnRef, not bool) rowPred {
	col, ok := ps.resolveLocal(cr)
	if !ok {
		return rowPred{}
	}
	if ps.t == nil {
		return rowPred{byRow: ps.rowKernel(col, func(v Value) bool { return v.IsNull() != not })}
	}
	if ps.vecs {
		vec := ps.t.columnVec(col)
		if vec.typed {
			// Only typed vectors carry an authoritative null bitmap.
			return rowPred{byIdx: func(i int) bool { return vec.null(i) != not }}
		}
	}
	return rowPred{byIdx: ps.idxKernel(col, func(v Value) bool { return v.IsNull() != not })}
}

func betweenKernel(ps *predSource, cr *ColumnRef, lo, hi Value, not bool) rowPred {
	col, ok := ps.resolveLocal(cr)
	if !ok {
		return rowPred{}
	}
	if lo.IsNull() || hi.IsNull() {
		// Any NULL bound makes the BETWEEN NULL for every row: never true.
		return constPred(ps, false)
	}
	generic := func(v Value) bool {
		if v.IsNull() {
			return false
		}
		a1, b1 := harmonise(v, lo)
		a2, b2 := harmonise(v, hi)
		in := Compare(a1, b1) >= 0 && Compare(a2, b2) <= 0
		return in != not
	}
	if ps.t == nil {
		return rowPred{byRow: ps.rowKernel(col, generic)}
	}
	if ps.vecs {
		vec := ps.t.columnVec(col)
		if vec.typed && vec.kind == KindInt && lo.Kind == KindInt && hi.Kind == KindInt {
			ints, li, hv := vec.ints, lo.I, hi.I
			return rowPred{byIdx: func(i int) bool {
				if vec.null(i) {
					return false
				}
				x := ints[i]
				return (x >= li && x <= hv) != not
			}}
		}
	}
	return rowPred{byIdx: ps.idxKernel(col, generic)}
}

func inKernel(ps *predSource, cr *ColumnRef, lits []Value, not bool) rowPred {
	col, ok := ps.resolveLocal(cr)
	if !ok {
		return rowPred{}
	}
	sawNull := false
	cands := make([]Value, 0, len(lits))
	for _, c := range lits {
		if c.IsNull() {
			sawNull = true
			continue
		}
		cands = append(cands, c)
	}
	generic := func(v Value) bool {
		if v.IsNull() {
			return false // NULL IN (...) is NULL: filtered out
		}
		for _, c := range cands {
			a, b := harmonise(v, c)
			if Compare(a, b) == 0 {
				return !not
			}
		}
		if sawNull {
			return false // unknown: filtered out
		}
		return not
	}
	if ps.t == nil {
		return rowPred{byRow: ps.rowKernel(col, generic)}
	}
	return rowPred{byIdx: ps.idxKernel(col, generic)}
}

func likeKernel(ps *predSource, cr *ColumnRef, pattern Value, not bool) rowPred {
	col, ok := ps.resolveLocal(cr)
	if !ok {
		return rowPred{}
	}
	if pattern.IsNull() {
		return constPred(ps, false)
	}
	p := strings.ToLower(pattern.AsText())
	generic := func(v Value) bool {
		if v.IsNull() {
			return false
		}
		return likeRec(p, strings.ToLower(v.AsText())) != not
	}
	if ps.t == nil {
		return rowPred{byRow: ps.rowKernel(col, generic)}
	}
	if ps.vecs {
		vec := ps.t.columnVec(col)
		if vec.typed && vec.kind == KindText {
			strs := vec.strs
			return rowPred{byIdx: func(i int) bool {
				return !vec.null(i) && likeRec(p, strings.ToLower(strs[i])) != not
			}}
		}
	}
	return rowPred{byIdx: ps.idxKernel(col, generic)}
}

// constPred is a kernel with a row-independent verdict (e.g. `col = NULL`).
func constPred(ps *predSource, res bool) rowPred {
	if ps.t == nil {
		return rowPred{byRow: func(l, r []Value) bool { return res }}
	}
	return rowPred{byIdx: func(int) bool { return res }}
}
