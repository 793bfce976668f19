package sqlengine

import (
	"fmt"
	"math"
	"strings"
)

// evalEnv is the environment for expression evaluation: an execution
// context (for subqueries and cost), the current row scope, and — when
// evaluating grouped projections — the rows of the current group.
type evalEnv struct {
	ec    *execCtx
	sc    *scope
	group []*scope
}

func (env *evalEnv) eval(e Expr) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *ColumnRef:
		if x.Name == "*" {
			return Value{}, fmt.Errorf("sqlengine: %s.* is only valid inside COUNT()", x.Table)
		}
		return env.sc.resolve(x)
	case *Unary:
		return env.evalUnary(x)
	case *Binary:
		return env.evalBinary(x)
	case *FuncCall:
		if isAggregateCall(x) {
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
		return Bool((len(rows.Data) > 0) != x.Not), nil
	case *SubqueryExpr:
		rows, err := env.execSub(x.Sub)
		if err != nil {
			return Value{}, err
		}
		if len(rows.Data) == 0 || len(rows.Data[0]) == 0 {
			return Null(), nil
		}
		return rows.Data[0][0], nil
	case *CastExpr:
		v, err := env.eval(x.X)
		if err != nil {
			return Value{}, err
		}
		return evalCast(v, x.Type), nil
	default:
		return Value{}, fmt.Errorf("sqlengine: cannot evaluate expression %T", e)
	}
}

func (env *evalEnv) evalUnary(u *Unary) (Value, error) {
	v, err := env.eval(u.X)
	if err != nil {
		return Value{}, err
	}
	switch u.Op {
	case "-":
		if v.IsNull() {
			return Null(), nil
		}
		if v.Kind == KindInt {
			return Int(-v.I), nil
		}
		return Float(-v.AsFloat()), nil
	case "NOT":
		t, known := v.Truth()
		if !known {
			return Null(), nil
		}
		return Bool(!t), nil
	default:
		return Value{}, fmt.Errorf("sqlengine: unknown unary operator %q", u.Op)
	}
}

func (env *evalEnv) evalBinary(b *Binary) (Value, error) {
	// AND/OR need three-valued short-circuit logic.
	switch b.Op {
	case "AND":
		lv, err := env.eval(b.L)
		if err != nil {
			return Value{}, err
		}
		lt, lknown := lv.Truth()
		if lknown && !lt {
			return Bool(false), nil
		}
		rv, err := env.eval(b.R)
		if err != nil {
			return Value{}, err
		}
		rt, rknown := rv.Truth()
		if rknown && !rt {
			return Bool(false), nil
		}
		if !lknown || !rknown {
			return Null(), nil
		}
		return Bool(true), nil
	case "OR":
		lv, err := env.eval(b.L)
		if err != nil {
			return Value{}, err
		}
		lt, lknown := lv.Truth()
		if lknown && lt {
			return Bool(true), nil
		}
		rv, err := env.eval(b.R)
		if err != nil {
			return Value{}, err
		}
		rt, rknown := rv.Truth()
		if rknown && rt {
			return Bool(true), nil
		}
		if !lknown || !rknown {
			return Null(), nil
		}
		return Bool(false), nil
	}

	lv, err := env.eval(b.L)
	if err != nil {
		return Value{}, err
	}
	rv, err := env.eval(b.R)
	if err != nil {
		return Value{}, err
	}

	switch b.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if lv.IsNull() || rv.IsNull() {
			return Null(), nil
		}
		// Numeric/text affinity: comparing number with numeric-looking text
		// coerces the text side, mirroring SQLite column affinity in the
		// common predicate shapes our workloads use.
		lv, rv = harmonise(lv, rv)
		c := Compare(lv, rv)
		switch b.Op {
		case "=":
			return Bool(c == 0), nil
		case "!=":
			return Bool(c != 0), nil
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case "||":
		if lv.IsNull() || rv.IsNull() {
			return Null(), nil
		}
		return Text(lv.AsText() + rv.AsText()), nil
	case "+", "-", "*", "/", "%":
		if lv.IsNull() || rv.IsNull() {
			return Null(), nil
		}
		return evalArith(b.Op, lv, rv)
	default:
		return Value{}, fmt.Errorf("sqlengine: unknown binary operator %q", b.Op)
	}
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

func evalArith(op string, l, r Value) (Value, error) {
	bothInt := l.Kind == KindInt && r.Kind == KindInt
	switch op {
	case "+":
		if bothInt {
			return Int(l.I + r.I), nil
		}
		return Float(l.AsFloat() + r.AsFloat()), nil
	case "-":
		if bothInt {
			return Int(l.I - r.I), nil
		}
		return Float(l.AsFloat() - r.AsFloat()), nil
	case "*":
		if bothInt {
			return Int(l.I * r.I), nil
		}
		return Float(l.AsFloat() * r.AsFloat()), nil
	case "/":
		if bothInt {
			if r.I == 0 {
				return Null(), nil
			}
			return Int(l.I / r.I), nil
		}
		rf := r.AsFloat()
		if rf == 0 {
			return Null(), nil
		}
		return Float(l.AsFloat() / rf), nil
	case "%":
		ri := r.AsInt()
		if ri == 0 {
			return Null(), nil
		}
		return Int(l.AsInt() % ri), nil
	}
	return Value{}, fmt.Errorf("sqlengine: unknown arithmetic operator %q", op)
}

func (env *evalEnv) evalCase(c *CaseExpr) (Value, error) {
	if c.Operand != nil {
		op, err := env.eval(c.Operand)
		if err != nil {
			return Value{}, err
		}
		for _, w := range c.Whens {
			wv, err := env.eval(w.When)
			if err != nil {
				return Value{}, err
			}
			if eq, known := Equal(op, wv); known && eq {
				return env.eval(w.Then)
			}
		}
	} else {
		for _, w := range c.Whens {
			wv, err := env.eval(w.When)
			if err != nil {
				return Value{}, err
			}
			if t, known := wv.Truth(); known && t {
				return env.eval(w.Then)
			}
		}
	}
	if c.Else != nil {
		return env.eval(c.Else)
	}
	return Null(), nil
}

func (env *evalEnv) evalIn(in *InExpr) (Value, error) {
	xv, err := env.eval(in.X)
	if err != nil {
		return Value{}, err
	}
	if xv.IsNull() {
		return Null(), nil
	}
	var candidates []Value
	if in.Sub != nil {
		rows, err := env.execSub(in.Sub)
		if err != nil {
			return Value{}, err
		}
		for _, r := range rows.Data {
			if len(r) > 0 {
				candidates = append(candidates, r[0])
			}
		}
	} else {
		for _, e := range in.List {
			v, err := env.eval(e)
			if err != nil {
				return Value{}, err
			}
			candidates = append(candidates, v)
		}
	}
	sawNull := false
	for _, c := range candidates {
		if c.IsNull() {
			sawNull = true
			continue
		}
		a, b := harmonise(xv, c)
		if Compare(a, b) == 0 {
			return Bool(!in.Not), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return Bool(in.Not), nil
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
	if xv.IsNull() || lo.IsNull() || hi.IsNull() {
		return Null(), nil
	}
	a1, b1 := harmonise(xv, lo)
	a2, b2 := harmonise(xv, hi)
	in := Compare(a1, b1) >= 0 && Compare(a2, b2) <= 0
	return Bool(in != b.Not), nil
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
	if xv.IsNull() || pv.IsNull() {
		return Null(), nil
	}
	m := likeMatch(pv.AsText(), xv.AsText())
	return Bool(m != l.Not), nil
}

// likeMatch implements SQL LIKE: '%' matches any run, '_' one character.
// Matching is ASCII-case-insensitive, as in SQLite's default LIKE.
func likeMatch(pattern, s string) bool {
	p := strings.ToLower(pattern)
	t := strings.ToLower(s)
	return likeRec(p, t)
}

func likeRec(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(p, s[i:]) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}

func evalCast(v Value, typ string) Value {
	if v.IsNull() {
		return Null()
	}
	switch typ {
	case "INTEGER":
		return Int(v.AsInt())
	case "REAL":
		return Float(v.AsFloat())
	default:
		return Text(v.AsText())
	}
}

// --- Aggregates ---

func (env *evalEnv) evalAggregate(fc *FuncCall) (Value, error) {
	if env.group == nil {
		return Value{}, fmt.Errorf("sqlengine: misuse of aggregate function %s", fc.Name)
	}
	// Gather argument values over the group.
	var vals []Value
	if !fc.Star {
		if len(fc.Args) != 1 {
			return Value{}, fmt.Errorf("sqlengine: aggregate %s takes exactly one argument", fc.Name)
		}
		for _, rowScope := range env.group {
			child := &evalEnv{ec: env.ec, sc: rowScope}
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

	switch fc.Name {
	case "COUNT":
		if fc.Star {
			return Int(int64(len(env.group))), nil
		}
		var n int64
		for _, v := range vals {
			if !v.IsNull() {
				n++
			}
		}
		return Int(n), nil
	case "SUM", "TOTAL":
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
		if !anyVal {
			if fc.Name == "TOTAL" {
				return Float(0), nil
			}
			return Null(), nil
		}
		if fc.Name == "TOTAL" {
			return Float(ff), nil
		}
		if allInt {
			return Int(fi), nil
		}
		return Float(ff), nil
	case "AVG":
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
	case "MIN", "MAX":
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
			if (fc.Name == "MIN" && c < 0) || (fc.Name == "MAX" && c > 0) {
				best = v
			}
		}
		if !have {
			return Null(), nil
		}
		return best, nil
	case "GROUP_CONCAT":
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
	return Value{}, fmt.Errorf("sqlengine: unknown aggregate %s", fc.Name)
}

// --- Scalar functions ---

func (env *evalEnv) evalScalarFunc(fc *FuncCall) (Value, error) {
	args := make([]Value, len(fc.Args))
	for i, a := range fc.Args {
		v, err := env.eval(a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return callScalar(fc.Name, args)
}

func callScalar(name string, args []Value) (Value, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sqlengine: function %s expects %d arguments, got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "ABS":
		if err := need(1); err != nil {
			return Value{}, err
		}
		v := args[0]
		if v.IsNull() {
			return Null(), nil
		}
		if v.Kind == KindInt {
			if v.I < 0 {
				return Int(-v.I), nil
			}
			return v, nil
		}
		return Float(math.Abs(v.AsFloat())), nil
	case "ROUND":
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
	case "LENGTH":
		if err := need(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Int(int64(len([]rune(args[0].AsText())))), nil
	case "UPPER":
		if err := need(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToUpper(args[0].AsText())), nil
	case "LOWER":
		if err := need(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToLower(args[0].AsText())), nil
	case "TRIM":
		if err := need(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.TrimSpace(args[0].AsText())), nil
	case "LTRIM":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return Text(strings.TrimLeft(args[0].AsText(), " \t\r\n")), nil
	case "RTRIM":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return Text(strings.TrimRight(args[0].AsText(), " \t\r\n")), nil
	case "SUBSTR", "SUBSTRING":
		if len(args) < 2 || len(args) > 3 {
			return Value{}, fmt.Errorf("sqlengine: SUBSTR expects 2 or 3 arguments")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		s := []rune(args[0].AsText())
		start := args[1].AsInt()
		// SQLite 1-based indexing; negative counts from the end.
		if start < 0 {
			start = int64(len(s)) + start + 1
			if start < 1 {
				start = 1
			}
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
	case "INSTR":
		if err := need(2); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null(), nil
		}
		return Int(int64(strings.Index(args[0].AsText(), args[1].AsText()) + 1)), nil
	case "REPLACE":
		if err := need(3); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ReplaceAll(args[0].AsText(), args[1].AsText(), args[2].AsText())), nil
	case "COALESCE":
		for _, v := range args {
			if !v.IsNull() {
				return v, nil
			}
		}
		return Null(), nil
	case "IFNULL":
		if err := need(2); err != nil {
			return Value{}, err
		}
		if !args[0].IsNull() {
			return args[0], nil
		}
		return args[1], nil
	case "NULLIF":
		if err := need(2); err != nil {
			return Value{}, err
		}
		if eq, known := Equal(args[0], args[1]); known && eq {
			return Null(), nil
		}
		return args[0], nil
	case "IIF":
		if err := need(3); err != nil {
			return Value{}, err
		}
		if t, known := args[0].Truth(); known && t {
			return args[1], nil
		}
		return args[2], nil
	case "MIN", "MAX":
		// Scalar multi-argument form.
		if len(args) < 2 {
			return Value{}, fmt.Errorf("sqlengine: scalar %s needs at least 2 arguments", name)
		}
		best := args[0]
		for _, v := range args[1:] {
			if v.IsNull() || best.IsNull() {
				return Null(), nil
			}
			c := Compare(v, best)
			if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "TYPEOF":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return Text(strings.ToLower(args[0].Kind.String())), nil
	case "STRFTIME":
		if err := need(2); err != nil {
			return Value{}, err
		}
		return evalStrftime(args[0].AsText(), args[1])
	case "DATE":
		if err := need(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		d := args[0].AsText()
		if len(d) >= 10 {
			return Text(d[:10]), nil
		}
		return Text(d), nil
	case "CAST":
		return Value{}, fmt.Errorf("sqlengine: CAST requires AS syntax")
	}
	return Value{}, fmt.Errorf("sqlengine: no such function: %s", name)
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
