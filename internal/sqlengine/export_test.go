package sqlengine

// The engine has two modes, the naive reference (SetPlanner(false)) and the
// planned engine, whose kernels and fan-out engage by input size alone
// (parallel.go). These hooks let the package's tests lower those sizes and
// cap the workers, so the 60-row fixtures of the equivalence matrix and the
// fuzz targets run every kernel, serially and fanned out.

// SetParallelism caps the worker goroutines a single batch operator may use:
// 0 means GOMAXPROCS, 1 forces serial morsels.
func (db *Database) SetParallelism(n int) { db.workers = max(n, 0) }

// SetBatchTuning overrides the smallest input that runs in morsels through
// kernels (minVecRows) and the smallest that may fan out (minParRows); zero
// restores parallel.go's defaults.
func (db *Database) SetBatchTuning(minVecRows, minParRows int) {
	db.minVecRows, db.minParRows = minVecRows, minParRows
}
