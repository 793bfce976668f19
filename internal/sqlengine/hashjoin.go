package sqlengine

// Hash equi-join execution. The planner hands the executor the flattened
// ON conjunction (joinAnalysis); this file resolves the equi conditions
// against the actual input relations and, when at least one resolves
// cleanly, replaces the O(|L|·|R|) nested loop with an O(|L|+|R|+matches)
// build/probe join that emits (left, right) row-position pairs — a
// two-sided selection (parallel.go) — instead of joined rows: filters thin
// the pair list, the tail consumers of positions.go read cells through it,
// and only a consumer that needs rows (the interpreter's projection, a
// further join) materialises them. The probe walks the whole left input in
// one range, whatever its size, into one pair list.
//
// Equivalence with the nested loop is structural:
//
//   - Content: candidates are found by a key that never separates two
//     values the executor's `=` would match — the cell itself when both key
//     columns hold only integers, coarseKey otherwise; every candidate is
//     re-verified with sqlEq (exact `=` semantics) plus the residual
//     conjuncts, so a spurious collision costs a comparison, never a wrong
//     row.
//   - Order: pairs are emitted in left-row-major order with right matches
//     ascending — exactly the nested loop's emission order — regardless of
//     which side the hash table is built on.
//   - Cost: the caller (join) has already charged |L|·|R| logical pairs
//     before this function runs, identical to the naive loop's total.
//     Residual conjuncts are safe-total by the planner's gate, so probing
//     them cannot charge cost or raise row-dependent errors.

// equiCond is one resolved hash condition: column positions in the left
// and right input relations.
type equiCond struct{ li, ri int }

// resolveHashJoin classifies ja's conjuncts into hash conditions and
// residual filters. ok is false when the nested loop must run instead:
// no cross-side equi condition, or any column reference that does not
// resolve cleanly (the nested loop then reproduces the naive executor's
// error — or its silence, when an empty input means the ON clause is
// never evaluated).
func resolveHashJoin(left, right *rowSet, ja *joinAnalysis, outer *scope) (equis []equiCond, residual []Expr, ok bool) {
	for _, c := range ja.conj {
		for _, r := range c.refs {
			_, nl := resolveCols(left.cols, r)
			_, nr := resolveCols(right.cols, r)
			if nl+nr > 1 {
				return nil, nil, false // ambiguous in the join scope
			}
			if nl+nr == 0 && outerResolveClass(outer, r) != 1 {
				return nil, nil, false // would be "no such column" (or outer ambiguity)
			}
		}
		if c.eq != nil {
			ali, anl := resolveCols(left.cols, c.eq.a)
			ari, anr := resolveCols(right.cols, c.eq.a)
			bli, bnl := resolveCols(left.cols, c.eq.b)
			bri, bnr := resolveCols(right.cols, c.eq.b)
			switch {
			case anl == 1 && anr == 0 && bnl == 0 && bnr == 1:
				equis = append(equis, equiCond{li: ali, ri: bri})
				continue
			case anl == 0 && anr == 1 && bnl == 1 && bnr == 0:
				equis = append(equis, equiCond{li: bli, ri: ari})
				continue
			}
			// Same-side or correlated equality: plain residual filter.
		}
		residual = append(residual, c.expr)
	}
	if len(equis) == 0 {
		return nil, nil, false
	}
	return equis, residual, true
}

// joinKeys maps an equi-key to its slot, the number of the chain of right
// rows carrying it. When the join has one condition and every key cell on
// both sides is INTEGER or NULL the key is the cell itself (ints); otherwise
// it is the conditions' coarseKeys (strs), which never separate two values
// `=` would match. Either way every chained candidate is re-verified.
type joinKeys struct {
	ints map[int64]int32
	strs map[string]int32
}

// newJoinKeys sizes the map for the most slots there can be: one per row of
// the smaller input.
func newJoinKeys(left, right [][]Value, lcols, rcols []int) *joinKeys {
	hint := min(len(left), len(right))
	if len(lcols) == 1 && intKeyed(left, lcols[0]) && intKeyed(right, rcols[0]) {
		return &joinKeys{ints: make(map[int64]int32, hint)}
	}
	return &joinKeys{strs: make(map[string]int32, hint)}
}

// intKeyed reports whether column col of rows holds only INTEGER and NULL
// cells. It reads the rows: a column vector built to answer it would stay
// resident.
func intKeyed(rows [][]Value, col int) bool {
	for _, row := range rows {
		if k := row[col].Kind; k != KindInt && k != KindNull {
			return false
		}
	}
	return true
}

// slot returns the slot of row's key, read from columns cols; a key not seen
// before gets the next slot when insert is set. -1 means no slot: a NULL key
// cell — NULL never equi-matches, the row can only surface through LEFT JOIN
// null extension — or an absent key. buf is the caller's reusable key
// buffer.
func (k *joinKeys) slot(buf []byte, row []Value, cols []int, insert bool) ([]byte, int32) {
	if k.ints != nil {
		v := row[cols[0]]
		if v.IsNull() {
			return buf, -1
		}
		s, ok := k.ints[v.I]
		if !ok {
			if !insert {
				return buf, -1
			}
			s = int32(len(k.ints))
			k.ints[v.I] = s
		}
		return buf, s
	}
	buf = buf[:0]
	for _, col := range cols {
		v := row[col]
		if v.IsNull() {
			return buf, -1
		}
		buf = coarseKey(buf, v)
		buf = append(buf, 0)
	}
	s, ok := k.strs[string(buf)]
	if !ok {
		if !insert {
			return buf, -1
		}
		s = int32(len(k.strs))
		k.strs[string(buf)] = s
	}
	return buf, s
}

// hashJoin executes the join with the given resolved conditions and returns
// its output as a two-sided selection over the inputs' rows: (left, right)
// position pairs in emission order, no joined row built. The logical |L|·|R|
// cost has already been charged by the caller.
//
// The smaller input's distinct keys become the slots; the right rows are
// threaded, ascending, into one chain per slot; and the probe walks the left
// rows in order, each following its slot's chain — so emission is
// left-row-major with right matches ascending whichever side is smaller.
// With the right side smaller the left rows find their slot during the
// probe; with the left side smaller they are given it up front and it is
// the right rows that look theirs up.
func (ec *execCtx) hashJoin(left, right *rowSet, jt JoinType, equis []equiCond, residual []Expr, outer *scope) (selection, error) {
	lcols, rcols := make([]int, len(equis)), make([]int, len(equis))
	for i, eq := range equis {
		lcols[i], rcols[i] = eq.li, eq.ri
	}
	keys := newJoinKeys(left.rows, right.rows, lcols, rcols)
	var keyBuf []byte
	var leftSlot []int32 // per left row, when the left side is the smaller
	if len(left.rows) < len(right.rows) {
		leftSlot = make([]int32, len(left.rows))
		for li, lr := range left.rows {
			keyBuf, leftSlot[li] = keys.slot(keyBuf, lr, lcols, true)
		}
	}
	// head[slot] is the first right row of the slot's chain and next[ri] the
	// one after ri, -1 ending it. Threading from the last right row down
	// leaves every chain ascending.
	head := make([]int32, min(len(left.rows), len(right.rows)))
	for i := range head {
		head[i] = -1
	}
	next := make([]int32, len(right.rows))
	for ri := len(right.rows) - 1; ri >= 0; ri-- {
		var slot int32
		keyBuf, slot = keys.slot(keyBuf, right.rows[ri], rcols, leftSlot == nil)
		if slot >= 0 {
			next[ri], head[slot] = head[slot], int32(ri)
		}
	}

	// Residual conjuncts are evaluated on the candidate pair copied into one
	// reused buffer; a join without any needs neither buffer nor scope.
	nl := len(left.cols)
	var buf []Value
	var env *evalEnv
	if len(residual) > 0 {
		cols := append(append(make([]scopeCol, 0, nl+len(right.cols)), left.cols...), right.cols...)
		buf = make([]Value, len(cols))
		env = &evalEnv{ec: ec, sc: &scope{cols: cols, row: buf, parent: outer}}
	}

	// The probe: every left row in order, each following its slot's chain,
	// into one pair list sized for one pair per left row.
	ec.countBatches(len(left.rows))
	pairs := make([]pair, 0, len(left.rows))
	for li, lr := range left.rows {
		var slot int32
		if leftSlot != nil {
			slot = leftSlot[li]
		} else {
			keyBuf, slot = keys.slot(keyBuf, lr, lcols, false)
		}
		matched := false
		if slot >= 0 {
		chain:
			for ri := head[slot]; ri >= 0; ri = next[ri] {
				rr := right.rows[ri]
				for i, lc := range lcols {
					if !sqlEq(lr[lc], rr[rcols[i]]) {
						continue chain
					}
				}
				if env != nil {
					copy(buf, lr)
					copy(buf[nl:], rr)
					for _, e := range residual {
						v, err := env.eval(e)
						if err != nil {
							return selection{}, err
						}
						if t, known := v.Truth(); !t || !known {
							continue chain
						}
					}
				}
				matched = true
				pairs = append(pairs, pair{l: int32(li), r: ri})
			}
		}
		if jt == JoinLeft && !matched {
			pairs = append(pairs, pair{l: int32(li), r: -1})
		}
	}
	return selection{
		rows:  left.rows,
		right: &rightSide{rows: right.rows, null: make([]Value, len(right.cols)), left: nl},
		pairs: pairs,
	}, nil
}
