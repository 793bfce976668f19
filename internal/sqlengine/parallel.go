package sqlengine

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Morsel-driven parallel execution. Batch operators (scan filters, WHERE
// residual filters, hash-join probes) split their input into fixed-size
// morsels; a small worker group — the coordinating goroutine plus workers
// borrowed from a process-wide per-core pool — pulls morsel indices from an
// atomic counter, writes results into per-morsel slots (a filter: into the
// morsel's own words of one bitmask), and the coordinator concatenates the
// slots in morsel order. That order-preserving merge is what keeps every
// parallel operator emitting byte-identical rows to its serial counterpart.
//
// Only safe-total expressions (planner.go) ever run inside a morsel:
// they cannot execute subqueries (the one path by which evaluation touches
// the shared execCtx) and cannot fail except for row-independent column
// resolution errors, so worker-local scopes and environments are fully
// isolated and the logical Cost — charged serially before the operator
// runs — is untouched.

const (
	// morselRows is the number of input rows per work unit. Big enough to
	// amortise scheduling, small enough that NumCPU workers load-balance
	// over skewed filters.
	morselRows = 4096
	// defMinBatchRows is the smallest operator input a filter or a join
	// probe runs in morsels over, through kernels and column vectors; below
	// it the plain serial interpreter loop wins.
	defMinBatchRows = 1024
	// defMinParRows is the smallest operator input that may fan out to
	// parallel workers.
	defMinParRows = 8192
)

// workerTokens is the process-wide pool bounding extra worker goroutines
// across all concurrently executing queries: GOMAXPROCS-1 tokens (at
// least one, so two-way parallelism stays available on a single-core
// box when explicitly requested). Operators acquire tokens without
// blocking — under concurrent query load, execution degrades toward
// serial instead of oversubscribing the machine.
var workerTokens = make(chan struct{}, max(runtime.GOMAXPROCS(0)-1, 1))

func acquireTokens(want int) int {
	got := 0
	for got < want {
		select {
		case workerTokens <- struct{}{}:
			got++
		default:
			return got
		}
	}
	return got
}

func releaseTokens(n int) {
	for i := 0; i < n; i++ {
		<-workerTokens
	}
}

// Engine-wide batch execution counters, exported to the metrics registry
// via RegisterEngineExecMetrics (obs.go).
var (
	engineBatchesTotal     atomic.Int64 // morsels processed by batch operators
	engineParallelOpsTotal atomic.Int64 // batch operators that ran with >1 worker
)

func morselCount(nRows int) int {
	return (nRows + morselRows - 1) / morselRows
}

// morselBounds returns the [lo, hi) input range of morsel m.
func morselBounds(m, nRows int) (lo, hi int) {
	lo = m * morselRows
	hi = lo + morselRows
	if hi > nRows {
		hi = nRows
	}
	return lo, hi
}

// runMorsels executes fn(worker, unit) for every unit in [0, nUnits) over
// the calling goroutine plus workers-1 spawned goroutines. Units are
// claimed from a shared atomic counter (morsel stealing), so a skewed
// unit cannot idle the other workers.
func runMorsels(nUnits, workers int, fn func(w, m int)) {
	if workers <= 1 || nUnits <= 1 {
		for m := 0; m < nUnits; m++ {
			fn(0, m)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				m := int(next.Add(1)) - 1
				if m >= nUnits {
					return
				}
				fn(w, m)
			}
		}(w)
	}
	for {
		m := int(next.Add(1)) - 1
		if m >= nUnits {
			break
		}
		fn(0, m)
	}
	wg.Wait()
}

// minBatchRows / minParRows resolve the per-database thresholds.
func (ec *execCtx) minBatchRows() int {
	if ec.db.minVecRows > 0 {
		return ec.db.minVecRows
	}
	return defMinBatchRows
}

func (ec *execCtx) minParRows() int {
	if ec.db.minParRows > 0 {
		return ec.db.minParRows
	}
	return defMinParRows
}

// useBatch reports whether a batch operator should engage for an input of
// nRows rows. Only planned execution asks: pushed conjuncts, a safe WHERE
// and the hash join all come from a plan.
func (ec *execCtx) useBatch(nRows int) bool {
	return nRows >= ec.minBatchRows()
}

// workerCap is the per-operator worker ceiling for this execution.
func (ec *execCtx) workerCap() int {
	if ec.db.workers > 0 {
		return ec.db.workers
	}
	return runtime.GOMAXPROCS(0)
}

// batchRun executes nUnits work units of one batch operator. gateRows is
// the operator's input cardinality: below the parallel threshold the
// units run serially on the coordinator; above it, up to workerCap-1
// extra workers are borrowed from the process-wide pool (non-blocking —
// zero available tokens means serial execution, not waiting). setup is
// called with the final worker count before any unit runs, so callers
// can allocate per-worker state. Only the coordinating goroutine touches
// the execCtx stats.
func (ec *execCtx) batchRun(nUnits, gateRows int, setup func(workers int), fn func(w, m int)) {
	workers := 1
	if gateRows >= ec.minParRows() && nUnits > 1 {
		want := ec.workerCap()
		if want > nUnits {
			want = nUnits
		}
		if want > 1 {
			workers = 1 + acquireTokens(want-1)
		}
	}
	if setup != nil {
		setup(workers)
	}
	runMorsels(nUnits, workers, fn)
	if workers > 1 {
		releaseTokens(workers - 1)
		engineParallelOpsTotal.Add(1)
	}
	ec.batches += int64(nUnits)
	if workers > ec.maxPar {
		ec.maxPar = workers
	}
	engineBatchesTotal.Add(int64(nUnits))
}

// selection is a set of rows of one relation, held as ascending positions
// into rows. all stands for every position without listing them, so an
// unfiltered scan costs nothing to describe; pos is never written through
// (it may be an equality-index bucket).
//
// A hash join's output is a two-sided selection (right != nil): row i is
// pairs[i], a position into rows — the join's left input — and one into the
// right input, in the nested loop's emission order. The joined rows exist
// only if materialise is called; filters thin the pair list and the tail
// consumers of positions.go read cells through it.
type selection struct {
	rows  [][]Value
	pos   []int
	all   bool
	right *rightSide
	pairs []pair
}

// pair is one row of a join's output. r < 0 is a LEFT JOIN null extension.
// int32 holds any position: a relation's rows have all been charged to
// Cost, and maxCost ends the statement far below 2^31.
type pair struct{ l, r int32 }

// rightSide is the right input of a join: its rows, the all-NULL row that
// stands in for them under a null extension, and the width of the left
// input's rows — where the right row's columns start in the joined row.
type rightSide struct {
	rows [][]Value
	null []Value
	left int
}

// colAt addresses one column of a selected row (selection.row): which of
// its two rows holds it — the only or left relation's, or for a join's
// output the right relation's — and where. Consumers split their column
// numbers once, so reading a cell costs the same whichever kind of
// selection it is read from.
type colAt struct{ side, col int }

// cell reads column c of the selected row (l, r).
func cell(l, r []Value, c colAt) Value {
	if c.side != 0 {
		l = r
	}
	return l[c.col]
}

// splitCol addresses column col of a row whose first left columns are the
// left relation's (left 0: a one-sided row, everything in the only relation).
func splitCol(left, col int) colAt {
	if left > 0 && col >= left {
		return colAt{side: 1, col: col - left}
	}
	return colAt{col: col}
}

// scopeRow returns the selected row (l, r) as one row slice for the
// interpreter: l itself, or for a join's output both rows copied into buf
// (one reused buffer per evaluating goroutine — nothing retains a scope's
// row past the evaluation).
func scopeRow(l, r, buf []Value) []Value {
	if r == nil {
		return l
	}
	copy(buf[copy(buf, l):], r)
	return buf
}

// leftWidth is splitCol's left for s's rows.
func (s *selection) leftWidth() int {
	if s.right == nil {
		return 0
	}
	return s.right.left
}

// colAt addresses column col of s's rows.
func (s *selection) colAt(col int) colAt { return splitCol(s.leftWidth(), col) }

// colsAt addresses columns cols of s's rows.
func (s *selection) colsAt(cols []int) []colAt {
	out := make([]colAt, len(cols))
	for i, col := range cols {
		out[i] = s.colAt(col)
	}
	return out
}

func (s *selection) len() int {
	switch {
	case s.all:
		return len(s.rows)
	case s.right != nil:
		return len(s.pairs)
	default:
		return len(s.pos)
	}
}

// at returns the row position of the i'th selected row of a one-sided
// selection.
func (s *selection) at(i int) int {
	if s.all {
		return i
	}
	return s.pos[i]
}

// row returns the i'th selected row: the row of the only (or left) relation
// and, for a join's output, the right relation's row (nil otherwise). Two
// slices, not a struct of two: the compiler keeps a composite wider than
// four words in memory, which cost the single-table consumers 20-50%.
func (s *selection) row(i int) (l, r []Value) {
	if s.right == nil {
		return s.rows[s.at(i)], nil
	}
	p := s.pairs[i]
	if p.r < 0 {
		return s.rows[p.l], s.right.null
	}
	return s.rows[p.l], s.right.rows[p.r]
}

// materialise returns the selected rows as row slices, in order. A join's
// rows are built here, in one backing array (one full-capacity sub-slice per
// row, so appending to one cannot reach its neighbour).
func (s selection) materialise() [][]Value {
	if s.all {
		return s.rows
	}
	if s.right == nil {
		out := make([][]Value, len(s.pos))
		for i, p := range s.pos {
			out[i] = s.rows[p]
		}
		return out
	}
	if len(s.pairs) == 0 {
		return nil
	}
	w := s.right.left + len(s.right.null)
	backing := make([]Value, len(s.pairs)*w)
	out := make([][]Value, len(s.pairs))
	for i := range out {
		l, r := s.row(i)
		out[i] = scopeRow(l, r, backing[i*w:(i+1)*w:(i+1)*w])
	}
	return out
}

// pick returns the selection of s's rows idx, in idx's order (idx is
// consumed). Only gathering may follow an idx that is not ascending.
func (s selection) pick(idx []int) selection {
	out := selection{rows: s.rows, right: s.right}
	if s.right != nil {
		out.pairs = make([]pair, len(idx))
		for j, i := range idx {
			out.pairs[j] = s.pairs[i]
		}
		return out
	}
	if !s.all {
		for j, i := range idx {
			idx[j] = s.pos[i]
		}
	}
	out.pos = idx
	return out
}

// keep returns the selection of the n rows of s whose bit is set in mask.
// When that is all of them it is s itself: pos may go on aliasing an index
// bucket, all stays all.
func (s selection) keep(mask []uint64, n int) selection {
	if n == s.len() {
		return s
	}
	out := selection{rows: s.rows, right: s.right}
	if s.right != nil {
		out.pairs = make([]pair, n)
	} else {
		out.pos = make([]int, n)
	}
	k := 0
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			if s.right != nil {
				out.pairs[k] = s.pairs[i]
			} else {
				out.pos[k] = s.at(i)
			}
			k++
		}
	}
	return out
}

// filterPositions applies compiled predicates to the selected rows,
// morsel-parallel, and returns the selection of the survivors, in input
// order. Index-form kernels (byIdx) require in to be a selection of the
// base table the predicates were compiled against; expression fallbacks
// evaluate with a worker-local environment (and, over a join's output, a
// worker-local pair buffer). Workers mark survivors in a bitmask — a morsel
// is morselRows/64 whole words, so they share none — and the output is
// allocated once, at its exact size, or not at all when everything passes.
func (ec *execCtx) filterPositions(cols []scopeCol, in selection, preds []rowPred, outer *scope) (selection, error) {
	n := in.len()
	nm := morselCount(n)
	mask := make([]uint64, (n+63)/64)
	counts := make([]int, nm)
	errs := make([]error, nm)
	needEnv := false
	for _, p := range preds {
		if p.byIdx == nil && p.byRow == nil {
			needEnv = true
		}
	}
	type evalState struct {
		env *evalEnv
		buf []Value
	}
	var states []evalState
	ec.batchRun(nm, n, func(workers int) {
		states = make([]evalState, workers)
	}, func(w, m int) {
		st := &states[w]
		if needEnv && st.env == nil {
			st.env = &evalEnv{ec: ec, sc: &scope{cols: cols, parent: outer}}
			if in.right != nil {
				st.buf = make([]Value, len(cols))
			}
		}
		// A morsel starts on a word boundary: its survivors are gathered a
		// word at a time and each word is written once.
		lo, hi := morselBounds(m, n)
		for base := lo; base < hi; base += 64 {
			var word uint64
			for i := base; i < min(base+64, hi); i++ {
				pass := true
				for _, p := range preds {
					var ok bool
					switch {
					case p.byIdx != nil:
						ok = p.byIdx(in.at(i))
					case p.byRow != nil:
						ok = p.byRow(in.row(i))
					default:
						l, r := in.row(i)
						st.env.sc.row = scopeRow(l, r, st.buf)
						v, err := st.env.eval(p.expr)
						if err != nil {
							errs[m] = err
							return
						}
						t, known := v.Truth()
						ok = t && known
					}
					if !ok {
						pass = false
						break
					}
				}
				if pass {
					word |= 1 << (i - base)
				}
			}
			mask[base/64] = word
			counts[m] += bits.OnesCount64(word)
		}
	})
	total := 0
	for m, err := range errs {
		if err != nil {
			return selection{}, err
		}
		total += counts[m]
	}
	return in.keep(mask, total), nil
}

// filterInterpreted is the serial, in-order filter for what may not run
// inside morsels (an unsafe WHERE: subqueries charge Cost and fill the memo)
// or is too small to: every selected row is visited in order and passes iff
// every expression is true on it, evaluation stopping at the first that is
// not. A join's output is evaluated in one reused pair buffer.
func (ec *execCtx) filterInterpreted(cols []scopeCol, in selection, exprs []Expr, outer *scope) (selection, error) {
	n := in.len()
	mask := make([]uint64, (n+63)/64)
	sc := &scope{cols: cols, parent: outer}
	env := &evalEnv{ec: ec, sc: sc}
	var buf []Value
	if in.right != nil {
		buf = make([]Value, len(cols))
	}
	total := 0
rows:
	for i := 0; i < n; i++ {
		l, r := in.row(i)
		sc.row = scopeRow(l, r, buf)
		for _, e := range exprs {
			v, err := env.eval(e)
			if err != nil {
				return selection{}, err
			}
			if t, known := v.Truth(); !t || !known {
				continue rows
			}
		}
		mask[i/64] |= 1 << (i % 64)
		total++
	}
	return in.keep(mask, total), nil
}
