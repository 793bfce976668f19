package sqlengine

import (
	"math"
	"slices"
)

// The aggregate consumer (positions.go). A grouped SELECT — GROUP BY bare
// columns, or an aggregate in its select list, HAVING or ORDER BY — runs
// here when planAggTail proves that nothing its tail evaluates can fail:
// every aggregate is COUNT(*) or COUNT/SUM/TOTAL/AVG/MIN/MAX, DISTINCT or
// not, over a bare column or a safe-total expression (planner.go), and every
// select item, the HAVING and every ORDER BY term is a bare column, such an
// aggregate, or a safe-total expression over both. Evaluating less, or in
// another order, than projectGrouped does then cannot be observed.
//
// Rows are folded into typed accumulators a vector at a time, in the order
// the selection lists them (aggRun.fold): by the last filter or hash-join
// probe, each vector of the rows it keeps (parallel.go), or here, a listed
// selection's. Each accumulator reads a vector in a loop of its own, so each
// group's floats are added in evalAggregate's order, and groups are numbered
// in the first-seen order projectGrouped gives them. A group's key allocates
// nothing: one INTEGER column keys an int64 map, one coded TEXT column a
// slice indexed by its code (a map keyed by its word over fewer rows than
// its dictionary holds), one plain TEXT column a map keyed by the cell's
// own string, and a NULL key has a slot of its own; only several columns or
// one REAL, mixed or row-stored column build Value.AppendKey's bytes. A
// DISTINCT aggregate keeps one set of (group, value) pairs with Value.Key's
// equality (valueSet), which allocates nothing per value either.
//
// Then, over the groups in order: HAVING; DISTINCT over the output rows;
// ORDER BY, a stable sort on (keys, group order) — what orderOutput's
// SliceStable gives — kept to LIMIT+OFFSET groups through a bounded heap;
// the LIMIT/OFFSET window; and only the window's cells are written into the
// result. An aggregate that only HAVING or ORDER BY names has an
// accumulator like any other. Expressions are the evaluator's, run over
// the group's first row with its aggregates read from the accumulators
// (group.ap).

// aggFn is what an aggregate call computes.
type aggFn uint8

const (
	// aggNone is no aggregate: a scalar call.
	aggNone      aggFn = iota
	aggCountStar       // COUNT(*), in an aggregate tail
	aggCount
	aggSum
	aggTotal
	aggAvg
	aggMin
	aggMax
	aggGroupConcat
)

// accum is one aggregate an aggregate tail computes per group: fn over the
// cells of the column the tail reads as at, or — where arg is set — over
// the values of that safe-total expression; COUNT(*) reads neither (at -1).
// A DISTINCT one folds a value only the first time its group sees it.
type accum struct {
	fn       aggFn
	distinct bool
	at       int32
	arg      Expr
}

// groupVal is one value an aggregate tail computes per group: the column
// the tail reads as at, read at the group's first row; accumulator acc's
// result (acc ≥ 0); or, where expr is set, that expression evaluated over
// the group.
type groupVal struct {
	at, acc int32
	expr    Expr
}

// aggCall is an aggregate call and the accumulator that computes it.
type aggCall struct {
	fc  *FuncCall
	acc int32
}

// groupKey is one ORDER BY term over groups.
type groupKey struct {
	groupVal
	desc bool
}

// aggPlan is a grouped SELECT whose tail runs on typed accumulators. The
// source columns it reads are cols; everything else names them by their
// index there. The first nkeys are the GROUP BY columns, each once (none:
// one group over everything); a column named twice keys nothing more.
type aggPlan struct {
	cols  []int
	nkeys int32
	accs  []accum
	items []groupVal // one per output column
	// having is the HAVING clause; order the ORDER BY terms.
	having Expr
	order  []groupKey
	// calls are the aggregate calls in the select list, HAVING and ORDER BY
	// with the accumulator that computes each: what the evaluator reads for
	// one over a group (group.ap). Only a plan with exprs keeps them.
	calls []aggCall
	// exprs reports that some value is an expression, evaluated in a group
	// environment.
	exprs bool
}

// planAggTail proves a grouped SELECT's tail runs on typed accumulators, or
// names the clause that prevents it: GROUP BY bare columns only; every
// select item, the HAVING and every ORDER BY term a value over groups
// (value); no ORDER BY ordinal out of range, which fails.
func planAggTail(sel *SelectStmt) (*aggPlan, string) {
	ap := &aggPlan{}
	for _, ge := range sel.GroupBy {
		col, ok := localCol(ge)
		if !ok {
			return nil, pathRowsGroupBy
		}
		ap.read(col)
	}
	ap.nkeys = int32(len(ap.cols))
	for k, item := range sel.Columns {
		if item.Star {
			for _, slot := range sel.bound.stars[k] {
				ap.items = append(ap.items, groupVal{at: ap.read(slot), acc: -1})
			}
			continue
		}
		v, why := ap.value(item.Expr)
		if why != "" {
			return nil, why
		}
		ap.items = append(ap.items, v)
	}
	if sel.Having != nil {
		if ap.exprs = true; ap.safe(sel.Having) != "" {
			return nil, pathRowsHaving
		}
		ap.having = sel.Having
	}
	for j, ob := range sel.OrderBy {
		if o := sel.bound.order[j]; o >= 0 {
			ap.order = append(ap.order, groupKey{ap.items[o], ob.Desc})
			continue
		}
		if lit, ok := ob.Expr.(*Literal); ok && lit.Val.Kind == KindInt {
			return nil, pathRowsOrderBy
		}
		v, why := ap.value(ob.Expr)
		if why != "" {
			return nil, pathRowsOrderBy
		}
		ap.order = append(ap.order, groupKey{v, ob.Desc})
	}
	if !ap.exprs {
		ap.calls = nil
	}
	// The plan is cached: it keeps no room its appends left.
	ap.cols, ap.accs = exactly(ap.cols, len(ap.cols)), exactly(ap.accs, len(ap.accs))
	ap.items, ap.order = exactly(ap.items, len(ap.items)), exactly(ap.order, len(ap.order))
	ap.calls = exactly(ap.calls, len(ap.calls))
	return ap, ""
}

// read returns the index in cols of source column col, adding it.
func (ap *aggPlan) read(col int) int32 {
	i := slices.Index(ap.cols, col)
	if i < 0 {
		i = len(ap.cols)
		ap.cols = append(ap.cols, col)
	}
	return int32(i)
}

// value plans e as a value over groups, or names why it is not one: an
// aggregate the tail cannot accumulate, or an expression that is not safe.
func (ap *aggPlan) value(e Expr) (groupVal, string) {
	if col, ok := localCol(e); ok {
		return groupVal{at: ap.read(col), acc: -1}, ""
	}
	if fc, ok := e.(*FuncCall); ok && fc.agg != aggNone {
		acc, ok := ap.accumulate(fc)
		if !ok {
			return groupVal{}, pathRowsAggregate
		}
		return groupVal{at: -1, acc: acc}, ""
	}
	ap.exprs = true
	return groupVal{at: -1, acc: -1, expr: e}, ap.safe(e)
}

// safe reports why e, evaluated over a group, might fail — an aggregate the
// tail cannot accumulate, or a node that is not safe-total — or "" when it
// cannot, having planned the accumulators of its aggregates.
func (ap *aggPlan) safe(e Expr) string {
	if fc, ok := e.(*FuncCall); ok && fc.agg != aggNone {
		if _, ok := ap.accumulate(fc); !ok {
			return pathRowsAggregate
		}
		return ""
	}
	if !nodeSafe(e) {
		return pathRowsProjection
	}
	why := ""
	eachOperand(e, func(x Expr) {
		if why == "" {
			why = ap.safe(x)
		}
	})
	return why
}

// accumulate plans the accumulator of aggregate call fc, shared with an
// equal one already planned, and records which computes fc. GROUP_CONCAT,
// an aggregate over several arguments, one of * but COUNT(*), and one over
// an expression that may fail are not accumulated.
func (ap *aggPlan) accumulate(fc *FuncCall) (int32, bool) {
	a := accum{fn: fc.agg, distinct: fc.Distinct, at: -1}
	switch {
	case fc.agg == aggGroupConcat:
		return -1, false
	case fc.Star:
		if fc.agg != aggCount || fc.Distinct {
			return -1, false
		}
		a.fn = aggCountStar
	case len(fc.Args) != 1:
		return -1, false
	default:
		if col, ok := localCol(fc.Args[0]); ok {
			a.at = ap.read(col)
		} else if exprSafeTotal(fc.Args[0]) {
			a.arg = fc.Args[0]
		} else {
			return -1, false
		}
	}
	k := int32(slices.Index(ap.accs, a)) // an expression argument is equal only to itself
	if k < 0 {
		k = int32(len(ap.accs))
		ap.accs = append(ap.accs, a)
	}
	ap.calls = append(ap.calls, aggCall{fc: fc, acc: k})
	return k, true
}

// slot returns the accumulator that computes aggregate call fc, -1 for a
// call the plan does not hold.
func (ap *aggPlan) slot(fc *FuncCall) int32 {
	for _, c := range ap.calls {
		if c.fc == fc {
			return c.acc
		}
	}
	return -1
}

// aggState accumulates one aggregate over one group. n counts what the
// aggregate counts: rows for COUNT(*), non-NULL cells otherwise. sumI and
// sumF are evalAggregate's two running sums (SUM answers with sumI only
// while every cell was an integer); best is MIN/MAX's current pick.
type aggState struct {
	n      int64
	sumI   int64
	sumF   float64
	nonInt bool
	best   Value
}

// add folds one cell in, in evalAggregate's order of operations. COUNT(*)
// reads no cell: aggRun counts its rows itself.
func (st *aggState) add(fn aggFn, v Value) {
	if v.Kind == KindNull {
		return
	}
	st.n++
	switch fn {
	case aggSum, aggTotal, aggAvg:
		if v.Kind == KindInt {
			st.sumI += v.I
			st.sumF += float64(v.I)
		} else {
			st.nonInt = true
			st.sumF += v.AsFloat()
		}
	case aggMin:
		if st.n == 1 || Compare(v, st.best) < 0 {
			st.best = v
		}
	case aggMax:
		if st.n == 1 || Compare(v, st.best) > 0 {
			st.best = v
		}
	}
}

// result is the aggregate's value over what was added.
func (st *aggState) result(fn aggFn) Value {
	switch fn {
	case aggCountStar, aggCount:
		return Int(st.n)
	case aggTotal:
		return Float(st.sumF)
	}
	if st.n == 0 {
		return Null()
	}
	switch fn {
	case aggSum:
		if st.nonInt {
			return Float(st.sumF)
		}
		return Int(st.sumI)
	case aggAvg:
		return Float(st.sumF / float64(st.n))
	default: // aggMin, aggMax
		return st.best
	}
}

// valueSet is a set of (group, value) pairs under Value.Key's equality —
// a DISTINCT aggregate's values, one group's apart from another's — kept
// without allocating a key: TEXT as the string itself, in strs; anything
// else in nums as a number — an INTEGER, or a REAL that Key writes as one,
// as the integer; any other REAL as its bits, every NaN as one.
type valueSet struct {
	nums map[numKey]struct{}
	strs map[strKey]struct{}
}

type numKey struct {
	g    int32
	kind Kind
	i    int64
}

type strKey struct {
	g int32
	s string
}

// nanBits stands for every NaN, which Key writes alike.
const nanBits = 0x7ff8000000000001

// add adds v to group g's values, reporting whether it is new there.
func (vs *valueSet) add(g int32, v Value) bool {
	if v.Kind == KindText {
		k := strKey{g: g, s: v.S}
		if _, seen := vs.strs[k]; seen {
			return false
		}
		if vs.strs == nil {
			vs.strs = make(map[strKey]struct{})
		}
		vs.strs[k] = struct{}{}
		return true
	}
	k := numKey{g: g, kind: v.Kind, i: v.I}
	switch f := v.Real(); {
	case v.Kind == KindNull:
		k.i = 0
	case v.Kind != KindFloat:
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		k.kind, k.i = KindInt, int64(f)
	case f != f:
		k.i = nanBits
	}
	if _, seen := vs.nums[k]; seen {
		return false
	}
	if vs.nums == nil {
		vs.nums = make(map[numKey]struct{})
	}
	vs.nums[k] = struct{}{}
	return true
}

// groupKeys is how an aggregate tail finds a row's group.
type groupKeys uint8

const (
	keysNone  groupKeys = iota // no GROUP BY: one group
	keysInt                    // one INTEGER column: its cell in ints
	keysCode                   // one coded TEXT column: its code in codes
	keysText                   // one TEXT column: its string in strs
	keysBytes                  // anything else: AppendKey's bytes in strs
)

// aggRun is one execution of an aggPlan: the groups found so far, in
// first-seen order, each with its first row's positions and one aggState
// per accumulator. It lives on its statement's stack: an ungrouped run's
// states and the addresses of the first few columns sit in its arrays, and
// nothing it owns points back into it.
type aggRun struct {
	ec    *execCtx
	ap    *aggPlan
	outer *scope
	// view is the relation, or the join, whose positions are folded: a
	// selection with no rows of its own (start).
	view selection
	ats  [4]colAt // the addresses of ap.cols, the first four here
	atx  []colAt
	// n is the number of groups, rows the rows folded; started reports
	// that an operator folds its rows into the run (start).
	n, rows int
	started bool
	groups  [vecRows]int32 // the group of each row fold takes; 0 without GROUP BY
	rep0    pair           // an ungrouped run's first row
	reps    []pair
	one     [4]aggState // an ungrouped run's states, when they fit
	states  []aggState  // group-major, len(ap.accs) a group
	keys    groupKeys
	ints    map[int64]int32
	strs    map[string]int32
	codes   []int32 // group of each code, -1: none yet
	null    int32   // the group of the NULL key, -1: none yet
	kb      []byte
	sets    []valueSet // per accumulator, a DISTINCT one's values
	// env evaluates expression arguments on a row, joined into buf for a
	// join's output; nulls is the empty group's all-NULL row.
	env   *evalEnv
	buf   []Value
	nulls []Value
	// err is the first error an expression argument raised.
	err error
}

// start readies the run to fold positions of s's relation, about rows of
// them, whatever it folded before. A coded key column whose dictionary has
// more words than that keys a map on its words, not an array of a group a
// word.
func (a *aggRun) start(s *selection, rows int) {
	*a = aggRun{ec: a.ec, ap: a.ap, outer: a.outer, started: true, view: selection{src: s.src, right: s.right}, null: -1}
	ap := a.ap
	if len(ap.cols) > len(a.ats) {
		a.atx = make([]colAt, len(ap.cols)-len(a.ats))
	}
	for i, col := range ap.cols {
		*a.col(int32(i)) = a.view.colAt(col)
	}
	w := len(ap.accs)
	switch {
	case ap.nkeys == 0:
		a.n = 1
		if w > len(a.one) {
			a.states = make([]aggState, w)
		}
	case ap.nkeys > 1:
		a.keys, a.strs = keysBytes, make(map[string]int32)
	default:
		switch c := a.col(0).c; {
		case c == nil || c.vals != nil:
			a.keys, a.strs = keysBytes, make(map[string]int32)
		case c.dict != nil && len(c.dict.words) <= rows:
			a.keys, a.codes = keysCode, make([]int32, len(c.dict.words))
			for i := range a.codes {
				a.codes[i] = -1
			}
		case c.kind == KindInt:
			a.keys, a.ints = keysInt, make(map[int64]int32)
		case c.kind == KindText: // plain, or coded with more words than rows
			a.keys, a.strs = keysText, make(map[string]int32)
		default:
			a.keys, a.strs = keysBytes, make(map[string]int32)
		}
	}
	for k := range ap.accs {
		if ap.accs[k].distinct && a.sets == nil {
			a.sets = make([]valueSet, w)
		}
		if ap.accs[k].arg != nil && a.env == nil {
			a.env, a.buf = &evalEnv{ec: a.ec, sc: &scope{parent: a.outer}}, a.view.rowBuf()
		}
	}
}

// col is the address of the column the tail reads as i.
func (a *aggRun) col(i int32) *colAt {
	if int(i) < len(a.ats) {
		return &a.ats[i]
	}
	return &a.atx[int(i)-len(a.ats)]
}

// state is accumulator k of group g.
func (a *aggRun) state(g, k int) *aggState {
	if a.states == nil {
		return &a.one[k]
	}
	return &a.states[g*len(a.ap.accs)+k]
}

// rep is the positions of group g's first row; l is -1 for the one group
// of an ungrouped tail over no rows.
func (a *aggRun) rep(g int) pair {
	switch {
	case a.keys != keysNone:
		return a.reps[g]
	case a.rows == 0:
		return pair{l: -1, r: -1}
	}
	return a.rep0
}

// group returns the group of the row at (l, r), giving a key not seen
// before the next group.
func (a *aggRun) group(l, r int) int32 {
	if a.keys == keysBytes {
		a.kb = a.kb[:0]
		for i := range a.ap.nkeys {
			a.kb = a.col(i).read(l, r).AppendKey(a.kb)
			a.kb = append(a.kb, 0)
		}
		g, ok := a.strs[string(a.kb)]
		if !ok {
			g = a.newGroup(l, r)
			a.strs[string(a.kb)] = g
		}
		return g
	}
	at := a.col(0)
	p := l
	if at.side != 0 {
		p = r
	}
	if p < 0 || at.c.null(p) {
		if a.null < 0 {
			a.null = a.newGroup(l, r)
		}
		return a.null
	}
	var g int32
	var ok bool
	switch a.keys {
	case keysCode:
		code := at.c.dict.codes[p]
		if g = a.codes[code]; g < 0 {
			g = a.newGroup(l, r)
			a.codes[code] = g
		}
		return g
	case keysText:
		var s string
		if d := at.c.dict; d != nil {
			s = d.words[d.codes[p]]
		} else {
			s = at.c.strs[p]
		}
		if g, ok = a.strs[s]; !ok {
			g = a.newGroup(l, r)
			a.strs[s] = g
		}
		return g
	}
	i := at.c.nums[p]
	if g, ok = a.ints[i]; !ok {
		g = a.newGroup(l, r)
		a.ints[i] = g
	}
	return g
}

// newGroup numbers a new group whose first row is at (l, r).
func (a *aggRun) newGroup(l, r int) int32 {
	g := int32(a.n)
	a.n++
	a.reps = append(a.reps, pair{l: int32(l), r: int32(r)})
	for range a.ap.accs {
		a.states = append(a.states, aggState{})
	}
	return g
}

// fold folds up to vecRows rows of s, a selection of the run's relation,
// in order: those vec lists by their index in s, or with vec nil the rows
// from lo on. Each row's group is found first; then each accumulator folds
// its column, or its expression's values, over them in a loop of its own,
// and an ungrouped COUNT(*) adds their number.
func (a *aggRun) fold(s *selection, lo int, vec []int32) {
	n := len(vec)
	if vec == nil {
		n = min(vecRows, s.len()-lo)
	}
	switch {
	case a.keys != keysNone:
		for j := range n {
			a.groups[j] = a.group(s.row(nth(vec, lo, j)))
		}
	case a.rows == 0 && n > 0:
		l, r := s.row(nth(vec, lo, 0))
		a.rep0 = pair{l: int32(l), r: int32(r)}
	}
	a.rows += n
	for k := range a.ap.accs {
		acc := &a.ap.accs[k]
		var at *colAt
		if acc.fn != aggCountStar && acc.arg == nil {
			at = a.col(acc.at)
		}
		switch {
		case a.keys == keysNone && acc.fn == aggCountStar:
			a.state(0, k).n += int64(n)
			continue
		case a.keys == keysNone && at != nil && !acc.distinct && s.right == nil:
			st := a.state(0, k)
			for j := range n {
				st.add(acc.fn, at.at(s.at(nth(vec, lo, j))))
			}
			continue
		}
		for j := range n {
			g := a.groups[j]
			st := a.state(int(g), k)
			if acc.fn == aggCountStar {
				st.n++
				continue
			}
			var v Value
			if l, r := s.row(nth(vec, lo, j)); at != nil {
				v = at.read(l, r)
			} else {
				a.view.scopeAt(a.env.sc, l, r, a.buf)
				var err error
				if v, err = a.env.eval(acc.arg); err != nil && a.err == nil {
					a.err = err // the first an expression argument raised
				}
			}
			// A DISTINCT accumulator folds a value the first time its group
			// sees it; NULL it never folds.
			if acc.distinct && (v.IsNull() || !a.sets[k].add(g, v)) {
				continue
			}
			st.add(acc.fn, v)
		}
	}
}

// nth is the index in s of the j'th row fold folds: vec[j], or with vec nil
// lo+j.
func nth(vec []int32, lo, j int) int {
	if vec == nil {
		return lo + j
	}
	return int(vec[j])
}

// groupEnv returns the environment values over groups are evaluated in
// (point), whose FROM row is width cells wide.
func (a *aggRun) groupEnv(width int) *evalEnv {
	if a.buf == nil {
		a.buf = a.view.rowBuf()
	}
	if a.keys == keysNone && a.rows == 0 {
		a.nulls = make([]Value, width)
	}
	return &evalEnv{ec: a.ec, sc: &scope{parent: a.outer}, group: &group{ap: a.ap, accs: make([]Value, len(a.ap.accs))}}
}

// point readies env for group g: its scope at the group's first row — the
// all-NULL row for the empty group — and its aggregates' values.
func (a *aggRun) point(env *evalEnv, g int) {
	grp := env.group
	for k := range grp.accs {
		grp.accs[k] = a.state(g, k).result(a.ap.accs[k].fn)
	}
	if rep := a.rep(g); rep.l >= 0 {
		a.view.scopeAt(env.sc, int(rep.l), int(rep.r), a.buf)
		return
	}
	env.sc.row, env.sc.cols = a.nulls, nil
}

// value computes v for group g, evaluating an expression in env.
func (a *aggRun) value(env *evalEnv, g int, v *groupVal) (Value, error) {
	switch {
	case v.expr != nil:
		a.point(env, g)
		return env.eval(v.expr)
	case v.acc >= 0:
		return a.state(g, int(v.acc)).result(a.ap.accs[v.acc].fn), nil
	}
	rep := a.rep(g)
	if rep.l < 0 {
		return Value{}, nil
	}
	return a.col(v.at).read(int(rep.l), int(rep.r)), nil
}

// aggregatePositions produces a planned aggregate tail's result. Rows no
// operator folded into run are folded here, vecRows at a time. Then the
// groups HAVING keeps, less DISTINCT's duplicates, are ordered and
// windowed, and the window — for anyRow its first row — written into the
// result.
func (ec *execCtx) aggregatePositions(sel *SelectStmt, s selection, run *aggRun, anyRow bool) (*Rows, error) {
	ap := run.ap
	if !run.started {
		run.start(&s, s.len())
		for lo := 0; lo < s.len(); lo += vecRows {
			run.fold(&s, lo, nil)
		}
	}
	if run.err != nil {
		return nil, run.err
	}
	var env *evalEnv
	if ap.exprs {
		env = run.groupEnv(sel.bound.width())
	}
	// The groups left, in order: kept, or where it is nil all n of them.
	n := run.n
	var kept []int
	at := func(i int) int {
		if kept == nil {
			return i
		}
		return kept[i]
	}
	if ap.having != nil {
		kept = make([]int, 0, n)
		for g := range n {
			run.point(env, g)
			if ok, err := env.holds(ap.having); err != nil {
				return nil, err
			} else if ok {
				kept = append(kept, g)
			}
		}
		n = len(kept)
	}
	if sel.Distinct {
		seen := make(map[string]struct{}, n)
		var kb []byte
		distinct := make([]int, 0, n)
		for i := range n {
			kb = kb[:0]
			for k := range ap.items {
				v, err := run.value(env, at(i), &ap.items[k])
				if err != nil {
					return nil, err
				}
				kb = append(v.AppendKey(kb), 0)
			}
			if _, dup := seen[string(kb)]; !dup {
				seen[string(kb)] = struct{}{}
				distinct = append(distinct, at(i))
			}
		}
		kept, n = distinct, len(distinct)
	}
	lo, hi := 0, n
	if sel.Limit != nil {
		limit, offset, err := ec.evalLimit(sel, run.outer)
		if err != nil {
			return nil, err
		}
		lo, hi = limitWindow(n, limit, offset)
	}
	if anyRow && hi > lo+1 {
		hi = lo + 1
	}
	if len(ap.order) > 0 && hi > lo && n > 1 {
		w := len(ap.order)
		keys := make([]Value, n*w)
		for i := range n {
			for j := range ap.order {
				v, err := run.value(env, at(i), &ap.order[j].groupVal)
				if err != nil {
					return nil, err
				}
				keys[i*w+j] = v
			}
		}
		best := bestFirst(n, hi, func(x, y int) bool {
			for j := range ap.order {
				if c := Compare(keys[x*w+j], keys[y*w+j]); c != 0 {
					return (c < 0) != ap.order[j].desc
				}
			}
			return x < y
		})
		for i, x := range best {
			best[i] = at(x)
		}
		kept = best
	}
	var err error
	out := newRows(sel.bound.columns, hi-lo, func(i, k int) Value {
		v, e := run.value(env, at(lo+i), &ap.items[k])
		if e != nil && err == nil {
			err = e
		}
		return v
	})
	return out, err
}

// bestFirst returns the first k of the indexes 0..n-1 in the strict total
// order before gives, sorted. With k < n a max-heap keeps the k best seen
// so far, its root replaced whenever a later index sorts before it.
func bestFirst(n, k int, before func(a, b int) bool) []int {
	h := make([]int, 0, k)
	for i := range n {
		switch {
		case len(h) < k:
			h = append(h, i)
			heapUp(h, len(h)-1, before)
		case before(i, h[0]):
			h[0] = i
			heapDown(h, 0, before)
		}
	}
	slices.SortFunc(h, func(a, b int) int {
		if before(a, b) {
			return -1
		}
		return 1 // indexes are distinct, so never equal
	})
	return h
}

// heapUp restores the max-heap h above i: every parent sorts after its
// children under before, so h[0] is the worst index kept.
func heapUp(h []int, i int, before func(a, b int) bool) {
	for i > 0 {
		p := (i - 1) / 2
		if !before(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// heapDown restores the max-heap h below i.
func heapDown(h []int, i int, before func(a, b int) bool) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && before(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && before(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
