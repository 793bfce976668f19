package sqlengine

// The engine has two modes, the naive reference (SetPlanner(false)) and the
// planned engine, whose kernels and morsels engage by input size alone
// (parallel.go). This hook lets the package's tests lower that size, so the
// 60-row fixtures of the equivalence matrix and the fuzz targets run every
// kernel.

// SetBatchTuning overrides the smallest input that runs in morsels through
// kernels; zero restores parallel.go's default.
func (db *Database) SetBatchTuning(minVecRows int) { db.minVecRows = minVecRows }
