package sqlengine

import (
	"math"
	"slices"
	"strings"
	"sync/atomic"
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
//   - for a conjunct pushed into a whole-table scan, over a plain column,
//     where there is no NOT around it and its literals are not NULL, a
//     vector form: a typed loop over the column's array (vector.go), which
//     keeps the evaluator's semantics — NULL fails, harmonise's
//     numeric/text coercion, Compare's order — in the column's own kind. A
//     negation has none: it passes most rows, so its filter is the cost of
//     its output either way;
//   - for a conjunct over a coded column, in a whole-table scan or over an
//     index bucket, a coded form for every shape but IS NULL, read from
//     the codes without allocating: a comparison or BETWEEN against TEXT
//     literals as the codes' range, found by a binary search of the
//     dictionary (TEXT compares byte-wise, and the words are in byte
//     order), and any other shape, negated or not, by the row form's rule
//     evaluated once per word (LIKE and IN keep that per dictionary).
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
// whether it has a vector form over a plain column, and its row form, rule:
// the shape's truth, not yet negated, on a row whose cell in its column is
// v. words is where LIKE and IN, whose coded form is their truth on each
// word, keep the last such truth they computed.
type kernel struct {
	shape   kernelShape
	col     int
	op      opcode
	not     bool
	vec     bool
	lit, hi Value
	list    []Value
	rule    func(k *kernel, v Value) (t, known bool)
	words   *atomic.Pointer[wordTruth]
}

// wordTruth is a kernel's truth, negated as the kernel is, on each word of
// one dictionary: bit w of pass for word w.
type wordTruth struct {
	dict *textDict
	pass []uint64
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
	if k.shape == kernelLike || k.shape == kernelIn {
		k.words = new(atomic.Pointer[wordTruth])
	}
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

// test returns the vector form over plain column c, the column's storage:
// whether the row at a table position passes; nil where c does not fit the
// shape — it is mixed, say — and the row form filters.
func (k *kernel) test(c *column) func(i int) bool {
	if c.vals != nil || !k.vec {
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

// textRange reports whether the shape's truth on a TEXT cell is a range of
// byte order: a comparison with a TEXT literal, or BETWEEN TEXT bounds.
func (k *kernel) textRange() bool {
	return k.shape == kernelCmp && k.lit.Kind == KindText ||
		k.shape == kernelBetween && k.lit.Kind == KindText && k.hi.Kind == KindText
}

// codedForm is the vector form over a coded column, held by value so that
// a filter builds it without allocating. A row passes when its cell is not
// NULL and, with pass nil, its code's class — below lo, from lo up to hi,
// from hi on: 1, 2 or 4, cmpMask's classes — is in mask; with pass set,
// when its code's bit is.
type codedForm struct {
	codes  []uint32
	nulls  []bool
	lo, hi uint32
	mask   uint8
	pass   []uint64
}

// coded returns the vector form over c, when it is a coded column and the
// shape is not IS NULL; a NULL cell fails every other shape, negated or
// not. Where the shape is a range of byte order its bounds are found among
// the words: a comparison passes the classes of its operator, BETWEEN the
// codes inside its bounds. Every other shape reads the rule's truth on each
// word (truth).
func (k *kernel) coded(c *column) (f codedForm, ok bool) {
	if c.dict == nil || k.shape == kernelIsNull {
		return f, false
	}
	f.codes, f.nulls = c.dict.codes, c.nulls
	words := c.dict.words
	// bounds returns where the words equal to s start and end.
	bounds := func(s string) (uint32, uint32) {
		i, found := slices.BinarySearch(words, s)
		if found {
			return uint32(i), uint32(i + 1)
		}
		return uint32(i), uint32(i)
	}
	switch {
	case !k.textRange():
		f.pass = k.truth(c.dict)
		return f, true
	case k.shape == kernelCmp:
		f.lo, f.hi = bounds(k.lit.S)
		f.mask = opMasks[k.op]
	default:
		f.lo, _ = bounds(k.lit.S)
		_, f.hi = bounds(k.hi.S)
		f.hi = max(f.hi, f.lo)
		f.mask = 2
	}
	if k.not {
		f.mask ^= 7
	}
	return f, true
}

// holds reports whether the row at position i passes.
func (f *codedForm) holds(i int) bool {
	if f.nulls != nil && f.nulls[i] {
		return false
	}
	x := f.codes[i]
	if f.pass != nil {
		return f.pass[x/64]&(1<<(x%64)) != 0
	}
	class := uint8(4)
	if x < f.lo {
		class = 1
	} else if x < f.hi {
		class = 2
	}
	return f.mask&class != 0
}

// truth returns the kernel's truth, negated as the kernel is, on each word
// of d: the row form's rule, evaluated once a word — kept for the next
// execution over the same dictionary where the kernel has words.
func (k *kernel) truth(d *textDict) []uint64 {
	if k.words != nil {
		if t := k.words.Load(); t != nil && t.dict == d {
			return t.pass
		}
	}
	pass := make([]uint64, (len(d.words)+63)/64)
	for w, s := range d.words {
		if t, known := k.rule(k, Value{Kind: KindText, S: s}); known && t != k.not {
			pass[w/64] |= 1 << (w % 64)
		}
	}
	if k.words != nil {
		k.words.Store(&wordTruth{dict: d, pass: pass})
	}
	return pass
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
