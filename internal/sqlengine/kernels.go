package sqlengine

import (
	"math"
	"strings"
)

// Compiled conjuncts. A conjunct of a planned WHERE whose shape tests one
// column of the rows it filters against literals — `col <op> literal` in
// either order, BETWEEN, LIKE, an IN list, IS NULL, each under any number
// of NOTs — is compiled at Prepare to that shape (kernelOf), with the column
// it reads and its literals resolved. It then has two forms besides the
// evaluator's walk of its expression (eval.go):
//
//   - a row form, which reads its cell of the selected row in place — from
//     the table's column, over an index bucket — and applies the
//     evaluator's own rule for the shape (compare, between, like, inList;
//     IS NULL), chosen at Prepare, so no rule is written twice and a cell
//     costs its rule alone;
//   - for a conjunct pushed into a whole-table scan, without a NOT around
//     it and with non-NULL literals, a vector form: a typed loop over the
//     column's array (vector.go), which keeps the evaluator's semantics —
//     NULL fails, harmonise's numeric/text coercion, Compare's order — in
//     the column's own kind. A negation has none: it passes most rows, so
//     its filter is the cost of its output either way.
//
// Which form filters a row cannot be observed: each is the same truth.

// kernelShape names a compiled conjunct's shape.
type kernelShape uint8

const (
	noKernel kernelShape = iota
	kernelCmp
	kernelIsNull
	kernelBetween
	kernelLike
	kernelIn
)

// kernel is a compiled conjunct: its shape, the column of the filtered
// rows it reads, and its operands — a comparison's operator, with the
// column on its left, and literal; BETWEEN's bounds, lit and hi; LIKE's
// pattern, lit; an IN list's items — whether its truth is negated (NOT
// BETWEEN, NOT LIKE, NOT IN, IS NOT NULL, or a NOT around the shape),
// whether it has a vector form, and its row form, rule: the shape's truth,
// not yet negated, on a row whose cell in its column is v.
type kernel struct {
	shape   kernelShape
	col     int
	op      opcode
	not     bool
	vec     bool
	lit, hi Value
	list    []Value
	rule    func(k *kernel, v Value) (t, known bool)
}

// kernelOf compiles conjunct e over rows whose first column is slot off of
// the FROM row; the zero kernel when e has no compiled shape.
func kernelOf(e Expr, off int) kernel {
	k := kernel{vec: true}
	for u, ok := e.(*Unary); ok && u.op == opNot; u, ok = e.(*Unary) {
		k.not, k.vec, e = !k.not, false, u.X
	}
	var x Expr
	switch c := e.(type) {
	case *Binary:
		if !isComparison(c.op) {
			return kernel{}
		}
		k.shape, k.op, x = kernelCmp, c.op, c.L
		if lit, ok := c.R.(*Literal); ok {
			k.lit = lit.Val
		} else if lit, ok := c.L.(*Literal); ok {
			k.op, k.lit, x = flipped[c.op], lit.Val, c.R
		} else {
			return kernel{}
		}
		k.vec = k.vec && !k.lit.IsNull()
	case *IsNullExpr:
		k.shape, k.not, x = kernelIsNull, k.not != c.Not, c.X
	case *BetweenExpr:
		lo, lok := c.Lo.(*Literal)
		hi, hok := c.Hi.(*Literal)
		if !lok || !hok {
			return kernel{}
		}
		k.shape, k.not, k.lit, k.hi, x = kernelBetween, k.not != c.Not, lo.Val, hi.Val, c.X
		k.vec = k.vec && !lo.Val.IsNull() && !hi.Val.IsNull()
	case *LikeExpr:
		p, ok := c.Pattern.(*Literal)
		if !ok {
			return kernel{}
		}
		k.shape, k.not, k.lit, x = kernelLike, k.not != c.Not, p.Val, c.X
		k.vec = k.vec && !p.Val.IsNull()
	case *InExpr:
		if c.Sub != nil {
			return kernel{}
		}
		k.list = make([]Value, len(c.List))
		for i, item := range c.List {
			lit, ok := item.(*Literal)
			if !ok {
				return kernel{}
			}
			k.list[i] = lit.Val
		}
		k.shape, k.not, k.vec, x = kernelIn, k.not != c.Not, false, c.X
	default:
		return kernel{}
	}
	cr, ok := x.(*ColumnRef)
	if !ok || cr.depth != 0 {
		return kernel{}
	}
	k.col = cr.slot - off
	k.rule = rowRules[k.shape]
	return k
}

// rowRules holds each shape's row form: the evaluator's rule for the
// shape, over a kernel's literals.
var rowRules = [...]func(k *kernel, v Value) (t, known bool){
	kernelCmp:     func(k *kernel, v Value) (bool, bool) { return compare(k.op, v, k.lit) },
	kernelIsNull:  func(_ *kernel, v Value) (bool, bool) { return v.IsNull(), true },
	kernelBetween: func(k *kernel, v Value) (bool, bool) { return between(v, k.lit, k.hi) },
	kernelLike:    func(k *kernel, v Value) (bool, bool) { return like(v, k.lit) },
	kernelIn:      func(k *kernel, v Value) (bool, bool) { return inList(v, k.list, nil) },
}

// test returns the vector form over c, the column's storage: whether the
// row at a table position passes; nil where c does not fit the shape — it
// is mixed, say — and the row form filters.
func (k *kernel) test(c *column) func(i int) bool {
	if c.vals != nil {
		return nil
	}
	switch k.shape {
	case kernelCmp:
		return cmpVecKernel(c, k.lit, opMasks[k.op])
	case kernelIsNull:
		not := k.not
		return func(i int) bool { return c.null(i) != not }
	case kernelBetween:
		if c.kind == KindInt && k.lit.Kind == KindInt && k.hi.Kind == KindInt {
			ints, lo, hi, not := c.nums, k.lit.I, k.hi.I, k.not
			return func(i int) bool {
				if c.null(i) {
					return false
				}
				x := ints[i]
				return (x >= lo && x <= hi) != not
			}
		}
	case kernelLike:
		if c.kind == KindText {
			strs, p, not := c.strs, k.lit.AsText(), k.not
			return func(i int) bool {
				return !c.null(i) && likeMatch(p, strs[i]) != not
			}
		}
	}
	return nil
}

// cmpMask encodes the outcome of comparing a with b as a bit: 1 = less,
// 2 = equal, 4 = greater (and for a NaN, equal). Comparison operators
// become a constant mask tested against it (opMasks), so one kernel body
// serves all six.
func cmpMask[T int | int64 | float64](a, b T) uint8 {
	if a < b {
		return 1
	}
	if a > b {
		return 4
	}
	return 2
}

// cmpVecKernel is `col <op> lit` over a typed column, compared in the
// column's own kind, or nil for one of NULLs alone.
func cmpVecKernel(c *column, lit Value, mask uint8) func(i int) bool {
	litF, litNum := 0.0, false
	switch lit.Kind {
	case KindInt:
		litF, litNum = float64(lit.I), true
	case KindFloat:
		litF, litNum = lit.Real(), true
	case KindText:
		litF, litNum = numericText(lit.S)
	}
	switch c.kind {
	case KindInt:
		ints := c.nums
		if lit.Kind == KindInt {
			li := lit.I
			return func(i int) bool {
				return !c.null(i) && mask&cmpMask(ints[i], li) != 0
			}
		}
		if litNum {
			// Int column vs REAL literal, or vs numeric-looking text that
			// harmonise coerces to REAL: numeric comparison as float.
			return func(i int) bool {
				return !c.null(i) && mask&cmpMask(float64(ints[i]), litF) != 0
			}
		}
		// Numeric column vs non-numeric text: numbers order before text.
		res := mask&1 != 0
		return func(i int) bool { return !c.null(i) && res }
	case KindFloat:
		bits := c.nums
		if litNum {
			return func(i int) bool {
				return !c.null(i) && mask&cmpMask(math.Float64frombits(uint64(bits[i])), litF) != 0
			}
		}
		res := mask&1 != 0
		return func(i int) bool { return !c.null(i) && res }
	case KindText:
		strs := c.strs
		if lit.Kind == KindText {
			// Text vs text: no harmonise coercion, byte-wise Compare.
			ls := lit.S
			return func(i int) bool {
				return !c.null(i) && mask&cmpMask(strings.Compare(strs[i], ls), 0) != 0
			}
		}
		// Text column vs numeric literal: numeric-looking cells harmonise
		// to REAL and compare numerically; the rest order after numbers.
		textRes := mask&4 != 0
		return func(i int) bool {
			if c.null(i) {
				return false
			}
			if f, ok := numericText(strs[i]); ok {
				return mask&cmpMask(f, litF) != 0
			}
			return textRes
		}
	}
	return nil
}
