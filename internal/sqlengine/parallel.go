package sqlengine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Morsel-driven parallel execution. Batch operators (scan filters, WHERE
// residual filters, hash-join probes, grouped aggregation) split their
// input into fixed-size morsels; a small worker group — the coordinating
// goroutine plus workers borrowed from a process-wide per-core pool —
// pulls morsel indices from an atomic counter, writes results into
// per-morsel slots, and the coordinator concatenates the slots in morsel
// order. That order-preserving merge is what keeps every parallel operator
// emitting byte-identical rows to its serial counterpart.
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
	// defMinBatchRows is the smallest operator input that takes the batch
	// (vectorized/kernel) path at all; below it the plain serial
	// interpreter loop wins. Database.SetBatchTuning overrides.
	defMinBatchRows = 1024
	// defMinParRows is the smallest operator input that may fan out to
	// parallel workers. Database.SetBatchTuning overrides.
	defMinParRows = 8192
)

// workerTokens is the process-wide pool bounding extra worker goroutines
// across all concurrently executing queries: GOMAXPROCS-1 tokens (at
// least one, so two-way parallelism stays available on a single-core
// box when explicitly requested). Operators acquire tokens without
// blocking — under concurrent query load, execution degrades toward
// serial instead of oversubscribing the machine.
var workerTokens = make(chan struct{}, maxInt(runtime.GOMAXPROCS(0)-1, 1))

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

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
// nRows rows under this execution.
func (ec *execCtx) useBatch(nRows int) bool {
	return ec.vec && nRows >= ec.minBatchRows()
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
type selection struct {
	rows [][]Value
	pos  []int
	all  bool
}

func (s selection) len() int {
	if s.all {
		return len(s.rows)
	}
	return len(s.pos)
}

// at returns the row position of the i'th selected row.
func (s selection) at(i int) int {
	if s.all {
		return i
	}
	return s.pos[i]
}

// materialise returns the selected rows as row slices, in order.
func (s selection) materialise() [][]Value {
	if s.all {
		return s.rows
	}
	out := make([][]Value, len(s.pos))
	for i, p := range s.pos {
		out[i] = s.rows[p]
	}
	return out
}

// filterPositions applies compiled predicates to the selected rows,
// morsel-parallel, and returns the survivors' positions in input order.
// Index-form kernels (byIdx) require in.rows to be the exact slice the
// predicates were compiled against (a base table's rows); expression
// fallbacks evaluate with a worker-local environment. Each worker collects
// a morsel's survivors in one reused buffer and keeps an exact-size copy,
// so a selective filter allocates by what passes, not by what is scanned.
func (ec *execCtx) filterPositions(cols []scopeCol, in selection, preds []rowPred, outer *scope) ([]int, error) {
	n := in.len()
	nm := morselCount(n)
	outs := make([][]int, nm)
	errs := make([]error, nm)
	needEnv := false
	for _, p := range preds {
		if p.byIdx == nil && p.byRow == nil {
			needEnv = true
		}
	}
	var envs []*evalEnv
	var bufs [][]int
	ec.batchRun(nm, n, func(workers int) {
		envs = make([]*evalEnv, workers)
		bufs = make([][]int, workers)
	}, func(w, m int) {
		var env *evalEnv
		if needEnv {
			env = envs[w]
			if env == nil {
				env = &evalEnv{ec: ec, sc: &scope{cols: cols, parent: outer}}
				envs[w] = env
			}
		}
		lo, hi := morselBounds(m, n)
		buf := bufs[w][:0]
		for i := lo; i < hi; i++ {
			pos := in.at(i)
			row := in.rows[pos]
			pass := true
			for _, p := range preds {
				var ok bool
				switch {
				case p.byIdx != nil:
					ok = p.byIdx(pos)
				case p.byRow != nil:
					ok = p.byRow(row)
				default:
					env.sc.row = row
					v, err := env.eval(p.expr)
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
				buf = append(buf, pos)
			}
		}
		bufs[w] = buf
		if len(buf) > 0 {
			outs[m] = append([]int(nil), buf...)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	// Concatenating in morsel order restores serial emission order.
	res := make([]int, 0, total)
	for _, o := range outs {
		res = append(res, o...)
	}
	return res, nil
}

// runFilter is filterPositions over every row of an intermediate relation,
// emitting the surviving rows.
func (ec *execCtx) runFilter(cols []scopeCol, rows [][]Value, preds []rowPred, outer *scope) ([][]Value, error) {
	pos, err := ec.filterPositions(cols, selection{rows: rows, all: true}, preds, outer)
	if err != nil {
		return nil, err
	}
	return selection{rows: rows, pos: pos}.materialise(), nil
}

// concatRowMorsels merges per-morsel outputs in morsel order — the step
// that restores serial emission order after parallel execution.
func concatRowMorsels(outs [][][]Value) [][]Value {
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	res := make([][]Value, 0, total)
	for _, o := range outs {
		res = append(res, o...)
	}
	return res
}

// filterIntermediate is the batch filter for post-join and WHERE-residual
// stages: row-form kernels (no columnar shadow exists for intermediate
// relations) with expression fallback, morsel parallel.
func (ec *execCtx) filterIntermediate(cols []scopeCol, rows [][]Value, exprs []Expr, outer *scope) ([][]Value, error) {
	ps := &predSource{cols: cols}
	return ec.runFilter(cols, rows, compilePreds(ps, exprs), outer)
}
