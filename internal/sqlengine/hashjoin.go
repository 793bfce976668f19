package sqlengine

// Hash equi-join execution. The planner hands the executor the ON
// conjunction split at Prepare (joinAnalysis): its cross-side column
// equalities and the residual rest. With at least one equality, this file
// replaces the O(|L|·|R|) nested loop with an O(|L|+|R|+matches)
// build/probe join that emits (left, right) row-position pairs — a
// two-sided selection (parallel.go) — instead of joined rows: filters thin
// the pair list, the tail consumers of positions.go read cells through it,
// and only a consumer that needs rows (the interpreter's projection, a
// further join) materialises them. The probe walks the whole left input in
// one range, whatever its size, gathering its pairs a vector at a time
// (parallel.go) into one pair list or an aggregate tail's fold.
//
// Equivalence with the nested loop is structural:
//
//   - Content: candidates are found by a key that never separates two
//     values the executor's `=` would match — the cell itself when both key
//     columns hold only integers, coarseKey otherwise; every candidate is
//     re-verified with sqlEq (exact `=` semantics) plus the residual
//     conjuncts, so a spurious collision costs a comparison, never a wrong
//     row. A NaN key cell, which `=` matches to every number, leaves the
//     join to the nested loop.
//   - Order: pairs are emitted in left-row-major order with right matches
//     ascending — exactly the nested loop's emission order — regardless of
//     which side the hash table is built on.
//   - Errors: residual conjuncts are safe-total by the planner's gate, so
//     probing them cannot raise row-dependent errors.
//
// The join is charged the pairs it tests — every chained candidate, a
// spurious collision included — a left row at a time, so the cost budget
// stops a many-to-many join before its pair list outgrows it.

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
// the smaller input. It returns nil when a key cell on either side is a NaN
// REAL: Compare holds NaN equal to every number, which no key can bucket,
// so the nested loop must run.
func newJoinKeys(left, right *selection, lat, rat []colAt) *joinKeys {
	ints := len(lat) == 1
	for i := range lat {
		lInts, lNaN := keyCells(left, &lat[i])
		rInts, rNaN := keyCells(right, &rat[i])
		if lNaN || rNaN {
			return nil
		}
		ints = ints && lInts && rInts
	}
	hint := min(left.len(), right.len())
	if ints {
		return &joinKeys{ints: make(map[int64]int32, hint)}
	}
	return &joinKeys{strs: make(map[string]int32, hint)}
}

// keyCells reports whether the cells of column at that s selects are only
// INTEGER and NULL, and whether one is a NaN. A table's INTEGER column
// answers without a read.
func keyCells(s *selection, at *colAt) (ints, nan bool) {
	if at.c != nil && at.c.vals == nil && (at.c.kind == KindInt || at.c.kind == KindNull) {
		return true, false
	}
	ints = true
	for i, n := 0, s.len(); i < n; i++ {
		switch v := at.at(s.at(i)); v.Kind {
		case KindInt, KindNull:
		case KindFloat:
			ints = false
			if f := v.Real(); f != f {
				return false, true
			}
		default:
			ints = false
		}
	}
	return ints, false
}

// slot returns the slot of the key of the row at position p, read from
// columns at; a key not seen before gets the next slot when insert is set.
// -1 means no slot: a NULL key cell — NULL never equi-matches, the row can
// only surface through LEFT JOIN null extension — or an absent key. buf is
// the caller's reusable key buffer.
func (k *joinKeys) slot(buf []byte, at []colAt, p int, insert bool) ([]byte, int32) {
	if k.ints != nil {
		v := at[0].at(p)
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
	for i := range at {
		v := at[i].at(p)
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

// hashJoin executes the join on ja's equalities and residual and returns
// its output as a two-sided selection over the inputs' relations: (left,
// right) position pairs in emission order, no joined row built — or, with
// run set, folds the pairs into it and hands on none (emit). The left
// input's rows are nl cells wide, the right's nr. hashed is false, and
// nothing charged, when newJoinKeys refuses the inputs.
//
// The smaller input's distinct keys become the slots; the right rows are
// threaded, ascending, into one chain per slot; and the probe walks the left
// rows in order, each following its slot's chain — so emission is
// left-row-major with right matches ascending whichever side is smaller.
// With the right side smaller the left rows find their slot during the
// probe; with the left side smaller they are given it up front and it is
// the right rows that look theirs up.
func (ec *execCtx) hashJoin(left, right *selection, nl, nr int, jt JoinType, ja *joinAnalysis, outer *scope, run *aggRun) (s selection, hashed bool, err error) {
	// A join on one or two conditions addresses its key columns on the
	// stack.
	var lbuf, rbuf [2]colAt
	lat, rat := left.colsAt(lbuf[:0], ja.lcols), right.colsAt(rbuf[:0], ja.rcols)
	keys := newJoinKeys(left, right, lat, rat)
	if keys == nil {
		return selection{}, false, nil
	}
	ln, rn := left.len(), right.len()
	var keyBuf []byte
	var leftSlot []int32 // per left row, when the left side is the smaller
	if ln < rn {
		leftSlot = make([]int32, ln)
		for li := range leftSlot {
			keyBuf, leftSlot[li] = keys.slot(keyBuf, lat, left.at(li), true)
		}
	}
	// head[slot] is the first right row of the slot's chain and next[ri] the
	// one after ri, -1 ending it. Threading from the last right row down
	// leaves every chain ascending.
	head := make([]int32, min(ln, rn))
	for i := range head {
		head[i] = -1
	}
	next := make([]int32, rn)
	for ri := rn - 1; ri >= 0; ri-- {
		var slot int32
		keyBuf, slot = keys.slot(keyBuf, rat, right.at(ri), leftSlot == nil)
		if slot >= 0 {
			next[ri], head[slot] = head[slot], int32(ri)
		}
	}

	// Residual conjuncts are evaluated on the candidate pair copied into one
	// reused buffer; a join without any needs neither buffer nor scope.
	var buf []Value
	var env *evalEnv
	if len(ja.residual) > 0 {
		buf = make([]Value, nl+nr)
		env = &evalEnv{ec: ec, sc: &scope{row: buf, parent: outer}}
	}

	// The probe: every left row in order, each following its slot's chain,
	// its pairs gathered in a vector and emitted whenever it fills — into
	// run, or into one pair list, sized by pairsGuess.
	slotOf := func(li int) int32 {
		if leftSlot != nil {
			return leftSlot[li]
		}
		var slot int32
		keyBuf, slot = keys.slot(keyBuf, lat, left.at(li), false)
		return slot
	}
	ec.countBatches(ln)
	out := selection{src: left.src, right: &rightSide{src: right.src, width: nr, left: nl}}
	if run == nil {
		out.pairs = make([]pair, 0, pairsGuess(ln, jt == JoinLeft, head, next, slotOf))
	} else {
		run.start(&out, ln)
	}
	var pairs [vecRows]pair
	vec := pairs[:0]
	add := func(l, r int) {
		if vec = append(vec, pair{l: int32(l), r: int32(r)}); len(vec) == len(pairs) {
			out.emit(vec, run)
			vec = vec[:0]
		}
	}
	for li := 0; li < ln; li++ {
		lp, slot := left.at(li), slotOf(li)
		matched := false
		if slot >= 0 {
			tested := int64(0)
			if env != nil {
				left.src.fill(buf, lp)
			}
		chain:
			for ri := head[slot]; ri >= 0; ri = next[ri] {
				tested++
				rp := right.at(int(ri))
				for i := range lat {
					if !sqlEq(lat[i].at(lp), rat[i].at(rp)) {
						continue chain
					}
				}
				if env != nil {
					right.src.fill(buf[nl:], rp)
					for _, e := range ja.residual {
						if ok, err := env.holds(e); err != nil {
							return selection{}, true, err
						} else if !ok {
							continue chain
						}
					}
				}
				matched = true
				add(lp, rp)
			}
			if err := ec.charge(tested); err != nil {
				return selection{}, true, err
			}
		}
		if jt == JoinLeft && !matched {
			add(lp, -1)
		}
	}
	out.emit(vec, run)
	return out, true, nil
}

// pairsGuess is the first capacity of a join's pair list, ln left rows
// long: a pair per left row for a left input of at most a morsel, and past
// that what the chains of the first morsel's rows hold — the candidates the
// probe will test there, and under LEFT JOIN (left) a null extension for a
// row without any — scaled to the whole input with an eighth to spare, but
// never more than a pair per left row. slot is the slot of left row li.
func pairsGuess(ln int, left bool, head, next []int32, slot func(li int) int32) int {
	if ln <= morselRows {
		return ln
	}
	found := 0
	for li := 0; li < morselRows && found < morselRows; li++ {
		n := 0
		if s := slot(li); s >= 0 {
			for ri := head[s]; ri >= 0 && n < morselRows; ri = next[ri] {
				n++
			}
		}
		if n == 0 && left {
			n = 1
		}
		found += n
	}
	return min(ln, found*ln/morselRows*9/8)
}

// emit hands a vector of a join's pairs to its consumer: run's fold, where
// that is set, or the join's pair list.
func (s *selection) emit(vec []pair, run *aggRun) {
	if run != nil {
		run.fold(&selection{src: s.src, right: s.right, pairs: vec}, 0, nil)
		return
	}
	s.pairs = append(s.pairs, vec...)
}
