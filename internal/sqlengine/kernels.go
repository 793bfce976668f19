package sqlengine

import "strings"

// Compiled conjuncts. A conjunct of a planned WHERE whose shape tests one
// column of the rows it filters against literals — `col <op> literal` in
// either order, BETWEEN, LIKE, an IN list, IS NULL, each under any number
// of NOTs — is compiled at Prepare to that shape (kernelOf), with the column
// it reads and its literals resolved. It then has two forms besides the
// evaluator's walk of its expression (eval.go):
//
//   - a row form, which reads its cell of the selected row in place and
//     applies the evaluator's own rule for the shape (compare, between,
//     like, inList; IS NULL), so no rule is written twice;
//   - for a conjunct pushed into a whole-table scan, without a NOT around
//     it and with non-NULL literals, a vector form: a typed loop over the
//     column's vector (vector.go), which keeps the evaluator's semantics —
//     NULL fails, harmonise's numeric/text coercion, Compare's order — in
//     the vector's own kind. A negation has none: it passes most rows, and a
//     vector built for it would stay resident for no gain a selective filter
//     could repay.
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
// BETWEEN, NOT LIKE, NOT IN, IS NOT NULL, or a NOT around the shape), and
// whether it has a vector form.
type kernel struct {
	shape   kernelShape
	col     int
	op      opcode
	not     bool
	vec     bool
	lit, hi Value
	list    []Value
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
	return k
}

// holds is the row form: whether the conjunct is TRUE on a row whose cell
// in its column is v.
func (k *kernel) holds(v Value) bool {
	var t, known bool
	switch k.shape {
	case kernelCmp:
		t, known = compare(k.op, v, k.lit)
	case kernelIsNull:
		t, known = v.IsNull(), true
	case kernelBetween:
		t, known = between(v, k.lit, k.hi)
	case kernelLike:
		t, known = like(v, k.lit)
	default: // kernelIn
		t, known = inList(v, k.list, nil)
	}
	return t != k.not && known
}

// test returns the vector form over vec, the column's typed vector: whether
// the row at a table position passes; nil where vec does not fit the shape
// and the row form filters.
func (k *kernel) test(vec *colVec) func(i int) bool {
	switch k.shape {
	case kernelCmp:
		return cmpVecKernel(vec, k.lit, opMasks[k.op])
	case kernelIsNull:
		not := k.not
		return func(i int) bool { return vec.null(i) != not }
	case kernelBetween:
		if vec.kind == KindInt && k.lit.Kind == KindInt && k.hi.Kind == KindInt {
			ints, lo, hi, not := vec.ints, k.lit.I, k.hi.I, k.not
			return func(i int) bool {
				if vec.null(i) {
					return false
				}
				x := ints[i]
				return (x >= lo && x <= hi) != not
			}
		}
	case kernelLike:
		if vec.kind == KindText {
			strs, p, not := vec.strs, k.lit.AsText(), k.not
			return func(i int) bool {
				return !vec.null(i) && likeMatch(p, strs[i]) != not
			}
		}
	}
	return nil
}

// cmpMask3 encodes a three-way comparison outcome as a bit: 1 = less,
// 2 = equal, 4 = greater. Comparison operators become a constant mask
// tested against it (opMasks), so one kernel body serves all six.
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

// cmpVecKernel is `col <op> lit` over a typed vector, compared in the
// vector's own kind, or nil for an all-NULL one.
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
