package sqlengine

import "strings"

// Vectorized predicate kernels. A kernel is a compiled per-row predicate
// for one safe-total WHERE/ON conjunct: instead of walking the expression
// tree and resolving column names per row, the shapes the planner already
// recognises (col <op> literal, BETWEEN, IN, LIKE, IS NULL, and NOT over
// any of them) compile once into a closure over a column vector (vector.go)
// or a test of one cell of the selected row, and the filter loop in
// parallel.go applies them.
//
// Every kernel replicates the row interpreter's semantics exactly — the
// same NULL propagation, the same harmonise text/numeric coercion, the
// same Compare ordering — so a kernel-filtered scan emits byte-identical
// rows to the naive loop. A conjunct with no kernelizable shape keeps its
// expression and is evaluated per row in the filter's own environment;
// safe-total conjuncts cannot touch the execCtx (no subqueries, no cost
// charges) and can only fail with row-independent resolution errors, which
// is what makes both forms legal in a batch filter.

// rowPred is one compiled conjunct. Exactly one evaluation form applies:
// byIdx (kernel over a full scan's position, reading a column vector); a
// cell kernel over the cell at of the selected row (see selection.row) —
// `cell <op> *lit` when mask is set, which needs no closure (lit is the
// plan's own literal), else test; or expr (interpreter fallback).
type rowPred struct {
	byIdx func(i int) bool
	at    colAt
	test  func(Value) bool
	lit   *Value
	mask  uint8
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

// predSource is what a kernel reads its cells from: the selected rows of a
// relation whose columns are cols, and for a full scan of a base table (t
// non-nil) that table's column vectors.
type predSource struct {
	t    *Table // non-nil: a full scan of t, kernels may read its vectors
	cols []scopeCol
	left int // a join's output: the left input's width (selection.leftWidth)
}

// resolveLocal resolves a column reference strictly within the source's
// scope level. ok is false unless the reference resolves uniquely — an
// ambiguous or absent reference must keep its expression form so the
// interpreter raises exactly the naive error.
func (ps predSource) resolveLocal(cr *ColumnRef) (int, bool) {
	idx, n := resolveCols(ps.cols, cr)
	return idx, n == 1
}

func compilePred(ps predSource, e Expr) rowPred {
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
// without the general path (cmpCell).
func compileKernel(ps predSource, e Expr, neg bool) rowPred {
	switch x := e.(type) {
	case *Unary:
		if x.Op == "NOT" {
			ps.t = nil
			return compileKernel(ps, x.X, !neg)
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
					if p := cmpKernel(ps, cr, &lit.Val, maskFor(x.Op)); p.usable() {
						return p
					}
				}
			}
			if cr, ok := x.R.(*ColumnRef); ok && cr.Name != "*" {
				if lit, ok := x.L.(*Literal); ok {
					return cmpKernel(ps, cr, &lit.Val, maskFor(flipOp(x.Op)))
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

func (p *rowPred) usable() bool { return p.byIdx != nil || p.test != nil || p.mask != 0 }

// pass applies a cell kernel to the cell it reads.
func (p *rowPred) pass(v Value) bool {
	if p.mask != 0 {
		return cmpCell(v, *p.lit, p.mask)
	}
	return p.test(v)
}

// cellKernel is the row-reading form of a kernel: test applied to column col
// of the selected row. It serves what no typed vector does — a negated
// column, an index bucket, a join's output, a column of mixed kinds.
func (ps predSource) cellKernel(col int, test func(Value) bool) rowPred {
	return rowPred{test: test, at: splitCol(ps.left, col)}
}

// vec returns the typed vector of column col for a full scan, or nil where
// kernels read the rows.
func (ps predSource) vec(col int) *colVec {
	if ps.t == nil {
		return nil
	}
	if v := ps.t.columnVec(col); v.typed {
		return v
	}
	return nil
}

// cmpKernel compiles `col <op> lit` with the interpreter's exact
// semantics: NULL on either side fails the filter, mixed numeric/text
// operands harmonise, then Compare orders across kinds. A typed vector is
// compared in its own kind; where cells are read from rows, cmpCell.
func cmpKernel(ps predSource, cr *ColumnRef, lit *Value, mask uint8) rowPred {
	col, ok := ps.resolveLocal(cr)
	if !ok {
		return rowPred{}
	}
	if lit.IsNull() {
		return ps.cellKernel(col, never)
	}
	if vec := ps.vec(col); vec != nil {
		if f := cmpVecKernel(vec, *lit, mask); f != nil {
			return rowPred{byIdx: f}
		}
	}
	return rowPred{at: splitCol(ps.left, col), lit: lit, mask: mask}
}

// cmpVecKernel is `col <op> lit` over a typed vector, or nil for an
// all-NULL one.
func cmpVecKernel(vec *colVec, lit Value, mask uint8) func(i int) bool {
	litF, litNum := 0.0, false
	switch lit.Kind {
	case KindInt:
		litF, litNum = float64(lit.I), true
	case KindFloat:
		litF, litNum = lit.Real(), true
	case KindText:
		litF, litNum = numericText(lit.S)
	}
	switch vec.kind {
	case KindInt:
		ints := vec.ints
		if lit.Kind == KindInt {
			li := lit.I
			return func(i int) bool {
				return !vec.null(i) && mask&cmpMaskInt(ints[i], li) != 0
			}
		}
		if litNum {
			// Int column vs REAL literal, or vs numeric-looking text that
			// harmonise coerces to REAL: numeric comparison as float.
			return func(i int) bool {
				return !vec.null(i) && mask&cmpMaskFloat(float64(ints[i]), litF) != 0
			}
		}
		// Numeric column vs non-numeric text: numbers order before text.
		res := mask&1 != 0
		return func(i int) bool { return !vec.null(i) && res }
	case KindFloat:
		floats := vec.floats
		if litNum {
			return func(i int) bool {
				return !vec.null(i) && mask&cmpMaskFloat(floats[i], litF) != 0
			}
		}
		res := mask&1 != 0
		return func(i int) bool { return !vec.null(i) && res }
	case KindText:
		strs := vec.strs
		if lit.Kind == KindText {
			// Text vs text: no harmonise coercion, byte-wise Compare.
			ls := lit.S
			return func(i int) bool {
				return !vec.null(i) && mask&cmpMask3(strings.Compare(strs[i], ls)) != 0
			}
		}
		// Text column vs numeric literal: numeric-looking cells harmonise
		// to REAL and compare numerically; the rest order after numbers.
		textRes := mask&4 != 0
		return func(i int) bool {
			if vec.null(i) {
				return false
			}
			if f, ok := numericText(strs[i]); ok {
				return mask&cmpMaskFloat(f, litF) != 0
			}
			return textRes
		}
	}
	return nil
}

// cmpCell is `cell <op> lit` for a cell read from a row (every comparison
// mask is non-zero). A TEXT cell against a TEXT literal and an INTEGER cell
// against an INTEGER literal — where harmonise changes nothing — compare
// directly; NULL fails, and every other cell harmonises and Compares.
func cmpCell(v, lit Value, mask uint8) bool {
	switch {
	case v.Kind == KindText && lit.Kind == KindText:
		return mask&cmpMask3(strings.Compare(v.S, lit.S)) != 0
	case v.Kind == KindInt && lit.Kind == KindInt:
		return mask&cmpMaskInt(v.I, lit.I) != 0
	case v.IsNull():
		return false
	}
	a, b := harmonise(v, lit)
	return mask&cmpMask3(Compare(a, b)) != 0
}

func isNullKernel(ps predSource, cr *ColumnRef, not bool) rowPred {
	col, ok := ps.resolveLocal(cr)
	if !ok {
		return rowPred{}
	}
	// Only typed vectors carry an authoritative null bitmap.
	if vec := ps.vec(col); vec != nil {
		return rowPred{byIdx: func(i int) bool { return vec.null(i) != not }}
	}
	if not {
		return ps.cellKernel(col, isNotNull)
	}
	return ps.cellKernel(col, Value.IsNull)
}

func isNotNull(v Value) bool { return !v.IsNull() }

func betweenKernel(ps predSource, cr *ColumnRef, lo, hi Value, not bool) rowPred {
	col, ok := ps.resolveLocal(cr)
	if !ok {
		return rowPred{}
	}
	if lo.IsNull() || hi.IsNull() {
		// Any NULL bound makes the BETWEEN NULL for every row: never true.
		return ps.cellKernel(col, never)
	}
	if vec := ps.vec(col); vec != nil && vec.kind == KindInt && lo.Kind == KindInt && hi.Kind == KindInt {
		ints, li, hv := vec.ints, lo.I, hi.I
		return rowPred{byIdx: func(i int) bool {
			if vec.null(i) {
				return false
			}
			x := ints[i]
			return (x >= li && x <= hv) != not
		}}
	}
	return ps.cellKernel(col, func(v Value) bool {
		if v.IsNull() {
			return false
		}
		a1, b1 := harmonise(v, lo)
		a2, b2 := harmonise(v, hi)
		in := Compare(a1, b1) >= 0 && Compare(a2, b2) <= 0
		return in != not
	})
}

func inKernel(ps predSource, cr *ColumnRef, lits []Value, not bool) rowPred {
	col, ok := ps.resolveLocal(cr)
	if !ok {
		return rowPred{}
	}
	sawNull := false
	cands := lits[:0]
	for _, c := range lits {
		if c.IsNull() {
			sawNull = true
			continue
		}
		cands = append(cands, c)
	}
	return ps.cellKernel(col, func(v Value) bool {
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
	})
}

func likeKernel(ps predSource, cr *ColumnRef, pattern Value, not bool) rowPred {
	col, ok := ps.resolveLocal(cr)
	if !ok {
		return rowPred{}
	}
	if pattern.IsNull() {
		return ps.cellKernel(col, never)
	}
	p := strings.ToLower(pattern.AsText())
	if vec := ps.vec(col); vec != nil && vec.kind == KindText {
		strs := vec.strs
		return rowPred{byIdx: func(i int) bool {
			return !vec.null(i) && likeRec(p, strings.ToLower(strs[i])) != not
		}}
	}
	return ps.cellKernel(col, func(v Value) bool {
		if v.IsNull() {
			return false
		}
		return likeRec(p, strings.ToLower(v.AsText())) != not
	})
}

// never is the test of a kernel with a row-independent false verdict (e.g.
// `col = NULL`).
func never(Value) bool { return false }
