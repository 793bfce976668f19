package sqlengine

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
)

// The evaluator. Prepare compiles each expression as it binds it (bind.go):
// a column reference to its depth and slot, an operator to its opcode, a
// call to its aggregate or its scalar function, a CAST to its storage
// class. Evaluating a row dispatches on those and never on a name. Both
// executors run this one evaluator over the same compiled nodes, so they
// differ in plan only. A conjunct a plan pushes into a table scan has a
// second form besides this one, a filter over its column's typed array
// (kernels.go).

// evalEnv is the environment for expression evaluation: an execution
// context (for subqueries and cost), the current row scope, and — when
// evaluating grouped projections — the rows of the current group.
type evalEnv struct {
	ec    *execCtx
	sc    *scope
	group *group
}

// opcode is an operator, resolved from its text at Prepare. opUnknown, an
// operator the engine does not implement, fails when it is evaluated.
type opcode uint8

const (
	opUnknown opcode = iota
	// The comparisons, in opMasks' order.
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAnd
	opOr
	opConcat
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opNeg
	opNot
)

var (
	binaryOps = map[string]opcode{
		"=": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
		"AND": opAnd, "OR": opOr, "||": opConcat,
		"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	}
	unaryOps = map[string]opcode{"-": opNeg, "NOT": opNot}
	// opMasks holds each comparison's accepting outcomes, as cmpMask's
	// bits: 1 less, 2 equal, 4 greater.
	opMasks = [...]uint8{opEq: 2, opNe: 1 | 4, opLt: 1, opLe: 1 | 2, opGt: 4, opGe: 4 | 2}
	// flipped mirrors a comparison: `lit op col` is `col flipped[op] lit`.
	flipped = [...]opcode{opEq: opEq, opNe: opNe, opLt: opGt, opLe: opGe, opGt: opLt, opGe: opLe}
)

// isComparison reports whether op is one of = != < <= > >=.
func isComparison(op opcode) bool { return op >= opEq && op <= opGe }

func (env *evalEnv) eval(e Expr) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *ColumnRef:
		if x.depth < 0 {
			return Value{}, fmt.Errorf("sqlengine: %s.* is only valid inside COUNT()", x.Table)
		}
		return env.sc.value(x), nil
	case *Unary:
		if x.op == opNot {
			return env.boxTruth(x)
		}
		return env.evalUnary(x)
	case *Binary:
		if x.op == opAnd || x.op == opOr || isComparison(x.op) {
			return env.boxTruth(x)
		}
		return env.evalBinary(x)
	case *FuncCall:
		if g := env.group; x.agg != aggNone && g != nil && g.ap != nil {
			if k := g.ap.slot(x); k >= 0 {
				return g.accs[k], nil
			}
			return Value{}, fmt.Errorf("sqlengine: misuse of aggregate function %s", x.Name)
		}
		if x.agg != aggNone {
			return env.evalAggregate(x)
		}
		return env.evalScalarFunc(x)
	case *CaseExpr:
		return env.evalCase(x)
	case *InExpr:
		return env.evalIn(x)
	case *BetweenExpr:
		return env.evalBetween(x)
	case *LikeExpr:
		return env.evalLike(x)
	case *IsNullExpr:
		v, err := env.eval(x.X)
		if err != nil {
			return Value{}, err
		}
		return Bool(v.IsNull() != x.Not), nil
	case *ExistsExpr:
		rows, err := env.execSub(x.Sub)
		if err != nil {
			return Value{}, err
		}
		return Bool((rows.Len() > 0) != x.Not), nil
	case *SubqueryExpr:
		rows, err := env.execSub(x.Sub)
		if err != nil {
			return Value{}, err
		}
		if rows.Len() == 0 || len(rows.cols) == 0 {
			return Null(), nil
		}
		return rows.Cell(0, 0), nil
	case *CastExpr:
		v, err := env.eval(x.X)
		if err != nil || v.IsNull() {
			return Null(), err
		}
		switch x.to {
		case KindInt:
			return Int(v.AsInt()), nil
		case KindFloat:
			return Float(v.AsFloat()), nil
		}
		return Text(v.AsText()), nil
	default:
		return Value{}, fmt.Errorf("sqlengine: cannot evaluate expression %T", e)
	}
}

// holds reports whether e is TRUE on the current row: FALSE and NULL fail a
// filter alike.
func (env *evalEnv) holds(e Expr) (bool, error) {
	t, known, err := env.truth(e)
	return t && known, err
}

// truth evaluates e as a predicate: its three-valued truth, known false for
// NULL, without boxing it in a Value. NOT, AND, OR and the comparisons are
// evaluated here, and eval boxes their truth (boxTruth); any other
// expression is evaluated and read as a truth.
func (env *evalEnv) truth(e Expr) (t, known bool, err error) {
	neg := false // NOT NULL is NULL: negations apply to a known truth
	for u, ok := e.(*Unary); ok && u.op == opNot; u, ok = e.(*Unary) {
		neg, e = !neg, u.X
	}
	switch x := e.(type) {
	case *Binary:
		switch {
		case x.op == opAnd || x.op == opOr:
			// SQL's three-valued short circuit: the right operand is not
			// evaluated when the left one decides.
			decides := x.op == opOr // the operand truth that decides the result
			lt, lknown, err := env.truth(x.L)
			if err != nil {
				return false, false, err
			}
			if lknown && lt == decides {
				return decides != neg, true, nil
			}
			rt, rknown, err := env.truth(x.R)
			if err != nil {
				return false, false, err
			}
			if rknown && rt == decides {
				return decides != neg, true, nil
			}
			known = lknown && rknown
			return !decides != neg && known, known, nil
		case isComparison(x.op):
			// A column or a literal operand is read in place.
			var l, r Value
			if cr, ok := x.L.(*ColumnRef); ok && cr.depth >= 0 {
				l = env.sc.value(cr)
			} else if l, err = env.eval(x.L); err != nil {
				return false, false, err
			}
			if lit, ok := x.R.(*Literal); ok {
				r = lit.Val
			} else if r, err = env.eval(x.R); err != nil {
				return false, false, err
			}
			t, known = compare(x.op, l, r)
			return t != neg && known, known, nil
		}
	}
	v, err := env.eval(e)
	t, known = v.Truth()
	return t != neg && known, known, err
}

// boxTruth is eval of a predicate truth evaluates.
func (env *evalEnv) boxTruth(e Expr) (Value, error) {
	t, known, err := env.truth(e)
	return truthValue(t, known), err
}

// truthValue is a three-valued truth as a Value: 1, 0 or NULL.
func truthValue(t, known bool) Value {
	if !known {
		return Null()
	}
	return Bool(t)
}

// The predicate rules. Each is a truth over evaluated operands, shared by
// the evaluator and by a compiled conjunct's row form (kernels.go), so each
// rule is written once.

// compare is the truth of `l op r` for a comparison op: unknown when
// either side is NULL.
func compare(op opcode, l, r Value) (t, known bool) {
	if l.IsNull() || r.IsNull() {
		return false, false
	}
	return opMasks[op]&cmpMask(compareSQL(l, r), 0) != 0, true
}

// between is the truth of `x BETWEEN lo AND hi`.
func between(x, lo, hi Value) (t, known bool) {
	if x.IsNull() || lo.IsNull() || hi.IsNull() {
		return false, false
	}
	return compareSQL(x, lo) >= 0 && compareSQL(x, hi) <= 0, true
}

// like is the truth of `x LIKE p`.
func like(x, p Value) (t, known bool) {
	if x.IsNull() || p.IsNull() {
		return false, false
	}
	return likeMatch(p.AsText(), x.AsText()), true
}

// inList is the truth of `x IN (…)` over the candidates list, then the first
// column of sub (a subquery's result, read in place; nil for none): true on a
// match, else unknown if x or a candidate is NULL.
func inList(x Value, list []Value, sub *Rows) (t, known bool) {
	if x.IsNull() {
		return false, false
	}
	n := len(list)
	if sub != nil && len(sub.cols) > 0 {
		n += sub.n
	}
	sawNull := false
	for i := 0; i < n; i++ {
		var c Value
		if i < len(list) {
			c = list[i]
		} else {
			c = sub.Cell(i-len(list), 0)
		}
		if c.IsNull() {
			sawNull = true
		} else if compareSQL(x, c) == 0 {
			return true, true
		}
	}
	return false, !sawNull
}

func (env *evalEnv) evalUnary(u *Unary) (Value, error) {
	v, err := env.eval(u.X)
	if err != nil {
		return Value{}, err
	}
	switch {
	case u.op != opNeg:
		return Value{}, fmt.Errorf("sqlengine: unknown unary operator %q", u.Op)
	case v.IsNull():
		return Null(), nil
	case v.Kind == KindInt:
		return Int(-v.I), nil
	}
	return Float(-v.AsFloat()), nil
}

func (env *evalEnv) evalBinary(b *Binary) (Value, error) {
	lv, err := env.eval(b.L)
	if err != nil {
		return Value{}, err
	}
	rv, err := env.eval(b.R)
	if err != nil {
		return Value{}, err
	}
	switch {
	case b.op == opUnknown:
		return Value{}, fmt.Errorf("sqlengine: unknown binary operator %q", b.Op)
	case lv.IsNull() || rv.IsNull():
		return Null(), nil
	case b.op == opConcat:
		return Text(lv.AsText() + rv.AsText()), nil
	}
	return evalArith(b.op, lv, rv), nil
}

// compareSQL orders two non-NULL operands as the comparison operators, IN
// and BETWEEN do: numeric-looking text beside a number is coerced
// (harmonise, mirroring SQLite's column affinity in the common predicate
// shapes), then Compare orders them.
func compareSQL(a, b Value) int {
	switch {
	case a.Kind == KindText && b.Kind == KindText:
		return strings.Compare(a.S, b.S)
	case a.Kind != b.Kind:
		a, b = harmonise(a, b)
	}
	return Compare(a, b)
}

// harmonise applies cross-kind coercion before comparison: when one side is
// numeric and the other is numeric-looking text, the text is coerced.
func harmonise(a, b Value) (Value, Value) {
	if a.IsNumeric() && b.Kind == KindText {
		if f, ok := numericText(b.S); ok {
			return a, Float(f)
		}
	}
	if b.IsNumeric() && a.Kind == KindText {
		if f, ok := numericText(a.S); ok {
			return Float(f), b
		}
	}
	return a, b
}

// evalArith applies an arithmetic operator to two non-NULL operands.
func evalArith(op opcode, l, r Value) Value {
	bothInt := l.Kind == KindInt && r.Kind == KindInt
	switch op {
	case opAdd:
		if bothInt {
			return Int(l.I + r.I)
		}
		return Float(l.AsFloat() + r.AsFloat())
	case opSub:
		if bothInt {
			return Int(l.I - r.I)
		}
		return Float(l.AsFloat() - r.AsFloat())
	case opMul:
		if bothInt {
			return Int(l.I * r.I)
		}
		return Float(l.AsFloat() * r.AsFloat())
	case opDiv:
		if bothInt {
			if r.I == 0 {
				return Null()
			}
			return Int(l.I / r.I)
		}
		rf := r.AsFloat()
		if rf == 0 {
			return Null()
		}
		return Float(l.AsFloat() / rf)
	}
	ri := r.AsInt() // opMod
	if ri == 0 {
		return Null()
	}
	return Int(l.AsInt() % ri)
}

func (env *evalEnv) evalCase(c *CaseExpr) (Value, error) {
	var op Value
	if c.Operand != nil {
		var err error
		if op, err = env.eval(c.Operand); err != nil {
			return Value{}, err
		}
	}
	for _, w := range c.Whens {
		var hit bool
		if c.Operand == nil {
			var err error
			if hit, err = env.holds(w.When); err != nil {
				return Value{}, err
			}
		} else {
			wv, err := env.eval(w.When)
			if err != nil {
				return Value{}, err
			}
			hit, _ = Equal(op, wv)
		}
		if hit {
			return env.eval(w.Then)
		}
	}
	if c.Else != nil {
		return env.eval(c.Else)
	}
	return Null(), nil
}

func (env *evalEnv) evalIn(x *InExpr) (Value, error) {
	xv, err := env.eval(x.X)
	if err != nil || xv.IsNull() {
		return Null(), err
	}
	// Every candidate is known before any is compared: a list's items are
	// all evaluated first (the first failing one raises), and a subquery's
	// rows are read in place — its first column — from the memoised result.
	var buf [8]Value
	list := buf[:0]
	var sub *Rows
	if x.Sub != nil {
		var err error
		if sub, err = env.execSub(x.Sub); err != nil {
			return Value{}, err
		}
	}
	for _, e := range x.List {
		v, err := env.eval(e)
		if err != nil {
			return Value{}, err
		}
		list = append(list, v)
	}
	t, known := inList(xv, list, sub)
	return truthValue(t != x.Not, known), nil
}

func (env *evalEnv) evalBetween(b *BetweenExpr) (Value, error) {
	xv, err := env.eval(b.X)
	if err != nil {
		return Value{}, err
	}
	lo, err := env.eval(b.Lo)
	if err != nil {
		return Value{}, err
	}
	hi, err := env.eval(b.Hi)
	if err != nil {
		return Value{}, err
	}
	t, known := between(xv, lo, hi)
	return truthValue(t != b.Not, known), nil
}

func (env *evalEnv) evalLike(l *LikeExpr) (Value, error) {
	xv, err := env.eval(l.X)
	if err != nil {
		return Value{}, err
	}
	pv, err := env.eval(l.Pattern)
	if err != nil {
		return Value{}, err
	}
	t, known := like(xv, pv)
	return truthValue(t != l.Not, known), nil
}

// likeMatch implements SQLite's LIKE: '%' matches any run of characters,
// '_' one character, and any other character itself, an ASCII letter in
// either case; no other character folds. A character is what SQLite reads
// as one: a byte, and after a lead byte (0xC0 and up) the continuation
// bytes that follow it. Case is folded here, never by copying the text.
func likeMatch(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for ; len(s) > 0; s = s[likeChar(s):] {
				if likeMatch(p, s) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[likeChar(s):]
		default:
			n := likeChar(p)
			if len(s) == 0 || likeChar(s) != n || n == 1 && lowerASCII(p[0]) != lowerASCII(s[0]) || n > 1 && p[:n] != s[:n] {
				return false
			}
			p, s = p[n:], s[n:]
		}
	}
	return len(s) == 0
}

// likeChar is the length in bytes of the character s starts with.
func likeChar(s string) int {
	n := 1
	if s[0] >= 0xC0 {
		for n < len(s) && s[n]&0xC0 == 0x80 {
			n++
		}
	}
	return n
}

// lowerASCII folds an ASCII capital to its small letter.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// --- Calls ---

// aggFns resolves an aggregate call's name.
var aggFns = map[string]aggFn{
	"COUNT": aggCount, "SUM": aggSum, "TOTAL": aggTotal, "AVG": aggAvg,
	"MIN": aggMin, "MAX": aggMax, "GROUP_CONCAT": aggGroupConcat,
}

// resolveCall compiles a call at Prepare: an aggregate to what it computes,
// anything else to its scalar function, which stays nil for a name no
// function has. That is an error when the call is evaluated: a call no row
// reaches does not fail the statement. A name that is both — MIN, MAX — is
// the aggregate over one argument (or *), SQLite's scalar over more.
func resolveCall(fc *FuncCall) {
	fc.fn = scalarFns[fc.Name]
	if agg, ok := aggFns[fc.Name]; ok && (fc.fn == nil || fc.Star || len(fc.Args) == 1) {
		fc.agg, fc.fn = agg, nil
	}
}

func (env *evalEnv) evalAggregate(fc *FuncCall) (Value, error) {
	g := env.group
	if g == nil {
		return Value{}, fmt.Errorf("sqlengine: misuse of aggregate function %s", fc.Name)
	}
	// Gather argument values over the group.
	var vals []Value
	if !fc.Star {
		if len(fc.Args) != 1 {
			return Value{}, fmt.Errorf("sqlengine: aggregate %s takes exactly one argument", fc.Name)
		}
		child := &evalEnv{ec: env.ec, sc: g.sc}
		for j := 0; j < g.n; j++ {
			g.member(j)
			v, err := child.eval(fc.Args[0])
			if err != nil {
				return Value{}, err
			}
			vals = append(vals, v)
		}
		if fc.Distinct {
			seen := make(map[string]bool, len(vals))
			var uniq []Value
			for _, v := range vals {
				k := v.Key()
				if !seen[k] {
					seen[k] = true
					uniq = append(uniq, v)
				}
			}
			vals = uniq
		}
	}

	switch fc.agg {
	case aggCount:
		if fc.Star {
			return Int(int64(g.n)), nil
		}
		var n int64
		for _, v := range vals {
			if !v.IsNull() {
				n++
			}
		}
		return Int(n), nil
	case aggSum, aggTotal:
		anyVal := false
		allInt := true
		var fi int64
		var ff float64
		for _, v := range vals {
			if v.IsNull() {
				continue
			}
			anyVal = true
			if v.Kind == KindInt {
				fi += v.I
			} else {
				allInt = false
			}
			ff += v.AsFloat()
		}
		switch {
		case fc.agg == aggTotal:
			return Float(ff), nil
		case !anyVal:
			return Null(), nil
		case allInt:
			return Int(fi), nil
		}
		return Float(ff), nil
	case aggAvg:
		var sum float64
		var n int64
		for _, v := range vals {
			if v.IsNull() {
				continue
			}
			sum += v.AsFloat()
			n++
		}
		if n == 0 {
			return Null(), nil
		}
		return Float(sum / float64(n)), nil
	case aggMin, aggMax:
		var best Value
		have := false
		for _, v := range vals {
			if v.IsNull() {
				continue
			}
			if !have {
				best = v
				have = true
				continue
			}
			c := Compare(v, best)
			if (fc.agg == aggMin && c < 0) || (fc.agg == aggMax && c > 0) {
				best = v
			}
		}
		if !have {
			return Null(), nil
		}
		return best, nil
	}
	// aggGroupConcat
	var parts []string
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		parts = append(parts, v.AsText())
	}
	if len(parts) == 0 {
		return Null(), nil
	}
	return Text(strings.Join(parts, ",")), nil
}

func (env *evalEnv) evalScalarFunc(fc *FuncCall) (Value, error) {
	args := make([]Value, len(fc.Args))
	for i, a := range fc.Args {
		v, err := env.eval(a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	if fc.fn == nil {
		return Value{}, fmt.Errorf("sqlengine: no such function: %s", fc.Name)
	}
	return fc.fn.call(fc.Name, args)
}

// scalarFn computes a scalar function: it checks its arity, then computes
// its value from the evaluated arguments. name is the call's, for its errors.
type scalarFn func(name string, args []Value) (Value, error)

// scalarFunc is a scalar function as a call resolves to it: what it
// computes, and the calls on which it cannot fail (exprSafeTotal) — those
// with min to max arguments (max -1: any number), and where total is set,
// whose arguments it holds.
type scalarFunc struct {
	call     scalarFn
	min, max int
	total    func(args []Expr) bool
}

// arity is the error of a call to name that does not pass n arguments.
func arity(name string, args []Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("sqlengine: function %s expects %d arguments, got %d", name, n, len(args))
	}
	return nil
}

// strict is a function of one argument that maps NULL to NULL.
func strict(f func(Value) Value) scalarFn {
	return func(name string, args []Value) (Value, error) {
		if err := arity(name, args, 1); err != nil || args[0].IsNull() {
			return Null(), err
		}
		return f(args[0]), nil
	}
}

// extreme is the scalar MIN (sign -1) or MAX (sign 1) of two or more
// arguments, NULL if any is.
func extreme(sign int) scalarFn {
	return func(name string, args []Value) (Value, error) {
		if len(args) < 2 {
			return Value{}, fmt.Errorf("sqlengine: scalar %s needs at least 2 arguments", name)
		}
		best := args[0]
		for _, v := range args[1:] {
			if v.IsNull() || best.IsNull() {
				return Null(), nil
			}
			if Compare(v, best) == sign {
				best = v
			}
		}
		return best, nil
	}
}

// typeNames holds TYPEOF's answer per storage class.
var typeNames = [...]Value{KindNull: Text("null"), KindInt: Text("integer"), KindFloat: Text("real"), KindText: Text("text")}

// scalarFns holds every scalar function by its upper-case name, for
// resolveCall.
var scalarFns = map[string]*scalarFunc{
	"ABS": {min: 1, max: 1, call: strict(func(v Value) Value {
		if v.Kind == KindInt {
			if v.I < 0 {
				return Int(-v.I)
			}
			return v
		}
		return Float(math.Abs(v.AsFloat()))
	})},
	"ROUND": {min: 1, max: 2, call: func(_ string, args []Value) (Value, error) {
		if len(args) < 1 || len(args) > 2 {
			return Value{}, fmt.Errorf("sqlengine: ROUND expects 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		digits := int64(0)
		if len(args) == 2 {
			digits = args[1].AsInt()
		}
		mult := math.Pow(10, float64(digits))
		return Float(math.Round(args[0].AsFloat()*mult) / mult), nil
	}},
	"LENGTH": {min: 1, max: 1, call: strict(func(v Value) Value { return Int(int64(utf8.RuneCountInString(v.AsText()))) })},
	"UPPER":  {min: 1, max: 1, call: strict(func(v Value) Value { return Text(strings.ToUpper(v.AsText())) })},
	"LOWER":  {min: 1, max: 1, call: strict(func(v Value) Value { return Text(strings.ToLower(v.AsText())) })},
	"TRIM":   {min: 1, max: 1, call: strict(func(v Value) Value { return Text(strings.TrimSpace(v.AsText())) })},
	"LTRIM": {min: 1, max: 1, call: func(name string, args []Value) (Value, error) {
		if err := arity(name, args, 1); err != nil {
			return Value{}, err
		}
		return Text(strings.TrimLeft(args[0].AsText(), " \t\r\n")), nil
	}},
	"RTRIM": {min: 1, max: 1, call: func(name string, args []Value) (Value, error) {
		if err := arity(name, args, 1); err != nil {
			return Value{}, err
		}
		return Text(strings.TrimRight(args[0].AsText(), " \t\r\n")), nil
	}},
	"SUBSTR":    {min: 2, max: 3, call: substr},
	"SUBSTRING": {min: 2, max: 3, call: substr},
	"INSTR": {min: 2, max: 2, call: func(name string, args []Value) (Value, error) {
		if err := arity(name, args, 2); err != nil || args[0].IsNull() || args[1].IsNull() {
			return Null(), err
		}
		return Int(int64(strings.Index(args[0].AsText(), args[1].AsText()) + 1)), nil
	}},
	"REPLACE": {min: 3, max: 3, call: func(name string, args []Value) (Value, error) {
		if err := arity(name, args, 3); err != nil || args[0].IsNull() {
			return Null(), err
		}
		return Text(strings.ReplaceAll(args[0].AsText(), args[1].AsText(), args[2].AsText())), nil
	}},
	"COALESCE": {min: 0, max: -1, call: func(_ string, args []Value) (Value, error) {
		for _, v := range args {
			if !v.IsNull() {
				return v, nil
			}
		}
		return Null(), nil
	}},
	"IFNULL": {min: 2, max: 2, call: func(name string, args []Value) (Value, error) {
		if err := arity(name, args, 2); err != nil {
			return Value{}, err
		}
		if !args[0].IsNull() {
			return args[0], nil
		}
		return args[1], nil
	}},
	"NULLIF": {min: 2, max: 2, call: func(name string, args []Value) (Value, error) {
		if err := arity(name, args, 2); err != nil {
			return Value{}, err
		}
		if eq, known := Equal(args[0], args[1]); known && eq {
			return Null(), nil
		}
		return args[0], nil
	}},
	"IIF": {min: 3, max: 3, call: func(name string, args []Value) (Value, error) {
		if err := arity(name, args, 3); err != nil {
			return Value{}, err
		}
		if t, known := args[0].Truth(); known && t {
			return args[1], nil
		}
		return args[2], nil
	}},
	"MIN": {min: 2, max: -1, call: extreme(-1)},
	"MAX": {min: 2, max: -1, call: extreme(1)},
	"TYPEOF": {min: 1, max: 1, call: func(name string, args []Value) (Value, error) {
		if err := arity(name, args, 1); err != nil {
			return Value{}, err
		}
		return typeNames[args[0].Kind], nil
	}},
	"STRFTIME": {min: 2, max: 2, total: literalDateFormat, call: func(name string, args []Value) (Value, error) {
		if err := arity(name, args, 2); err != nil {
			return Value{}, err
		}
		return evalStrftime(args[0].AsText(), args[1])
	}},
	"DATE": {min: 1, max: 1, call: strict(func(v Value) Value {
		d := v.AsText()
		if len(d) >= 10 {
			return Text(d[:10])
		}
		return Text(d)
	})},
	// CAST( … ) as a call is never total: it always fails.
	"CAST": {min: 1, max: 0, call: func(string, []Value) (Value, error) {
		return Value{}, fmt.Errorf("sqlengine: CAST requires AS syntax")
	}},
}

// substr is SQLite's SUBSTR (SUBSTRING): 1-based, a negative start counts
// from the end.
func substr(_ string, args []Value) (Value, error) {
	if len(args) < 2 || len(args) > 3 {
		return Value{}, fmt.Errorf("sqlengine: SUBSTR expects 2 or 3 arguments")
	}
	if args[0].IsNull() {
		return Null(), nil
	}
	s := []rune(args[0].AsText())
	start := args[1].AsInt()
	if start < 0 {
		start = int64(len(s)) + start + 1
	}
	if start < 1 {
		start = 1
	}
	idx := int(start - 1)
	if idx >= len(s) {
		return Text(""), nil
	}
	end := len(s)
	if len(args) == 3 {
		n := int(args[2].AsInt())
		if n < 0 {
			n = 0
		}
		if idx+n < end {
			end = idx + n
		}
	}
	return Text(string(s[idx:end])), nil
}

// evalStrftime supports the %Y / %m / %d / %Y-%m fragments over ISO-8601
// date text (YYYY-MM-DD...), which is the only date representation the
// synthetic corpora use.
func evalStrftime(format string, v Value) (Value, error) {
	if v.IsNull() {
		return Null(), nil
	}
	d := v.AsText()
	if len(d) < 10 || d[4] != '-' || d[7] != '-' {
		return Null(), nil
	}
	year, month, day := d[0:4], d[5:7], d[8:10]
	out := format
	out = strings.ReplaceAll(out, "%Y", year)
	out = strings.ReplaceAll(out, "%m", month)
	out = strings.ReplaceAll(out, "%d", day)
	if strings.Contains(out, "%") {
		return Value{}, fmt.Errorf("sqlengine: unsupported STRFTIME format %q", format)
	}
	return Text(out), nil
}
