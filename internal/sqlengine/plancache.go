package sqlengine

import "repro/internal/lru"

// Stmt is a prepared statement: a parsed AST plus the planner's structural
// analysis of every SELECT it contains. A Stmt is bound to the Database that
// prepared it and is safe for concurrent Exec calls (execution state lives
// in a per-call context, and both the AST and the plan are immutable after
// Prepare, but for one atomic verdict cache, selectPlan.uncorrelated).
type Stmt struct {
	db    *Database
	src   string
	ast   Statement
	plans map[*SelectStmt]*selectPlan
}

// SQL returns the statement's source text.
func (s *Stmt) SQL() string { return s.src }

// Exec runs the prepared statement on the plan the planner chose.
func (s *Stmt) Exec() (*Result, error) {
	ec := &execCtx{db: s.db, plans: s.plans}
	return ec.execStatement(s.ast)
}

// ExecReference runs the statement on the naive reference executor — full
// scans into nested loops, the interpreter on every row — which Exec must
// agree with on rows, order and error class (planner.go). Its Cost is the
// naive plan's: the yardstick VES measures a prediction's efficiency by,
// and an upper bound on Exec's.
func (s *Stmt) ExecReference() (*Result, error) {
	ec := &execCtx{db: s.db}
	return ec.execStatement(s.ast)
}

// Prepare parses sql (or fetches the cached parse) and plans it. Each
// distinct SELECT text (compounds included) is parsed and analysed once
// per database; repeat executions — the evaluation harness re-runs every
// gold query per prediction, and experiment drivers re-run whole splits
// per evidence variant — hit the cache and skip straight to execution.
//
// Only reads are cached. CREATE, INSERT, UPDATE and DELETE are parsed and
// planned on every call and count as misses: corpus construction runs
// thousands of distinct INSERTs once each, and caching them made the
// plans outweigh the table cells they wrote. Parse errors are not cached
// either: the error path is cold by construction (a failed prediction is
// scored once).
func (db *Database) Prepare(sql string) (*Stmt, error) {
	st, _, err := db.PrepareCached(sql)
	return st, err
}

// PrepareCached is Prepare plus a per-call plan-cache-hit indicator —
// the form the serving layer uses to attribute cache behaviour to an
// individual request (the aggregate PlanCacheStats counters cannot be
// attributed to one call under concurrency).
func (db *Database) PrepareCached(sql string) (*Stmt, bool, error) {
	if st, ok := db.plans.Get(sql); ok {
		return st, true, nil
	}
	ast, err := Parse(sql)
	if err != nil {
		return nil, false, err
	}
	st := &Stmt{db: db, src: sql, ast: ast, plans: planStatement(ast)}
	if _, read := ast.(*SelectStmt); read {
		db.plans.Put(sql, st)
	}
	return st, false, nil
}

// PlanCacheStats is a snapshot of the prepared-plan cache counters.
type PlanCacheStats struct {
	// Hits counts Prepare calls served from the cache.
	Hits int64
	// Misses counts Prepare calls that parsed and planned from scratch.
	Misses int64
	// Evictions counts plans displaced by the LRU policy.
	Evictions int64
	// Entries is the current number of cached plans.
	Entries int
}

// Add accumulates another snapshot into st. Callers that own several
// databases (a corpus, a serving registry) use it to aggregate per-engine
// caches into one view.
func (st *PlanCacheStats) Add(o PlanCacheStats) {
	st.Hits += o.Hits
	st.Misses += o.Misses
	st.Evictions += o.Evictions
	st.Entries += o.Entries
}

// PlanCacheStats snapshots the database's prepared-plan cache counters.
func (db *Database) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats(db.plans.Stats())
}

// planCache is the prepared-statement cache: internal/lru keyed by SQL
// text, so concurrent evaluation workers preparing different statements
// never contend on one lock.
type planCache = lru.Cache[string, *Stmt]

// newPlanCache sizes the cache for evaluation workloads: the distinct
// reads of a dev split (gold plus predicted queries, a few thousand at
// most) fit without eviction. Writes never enter it (see Prepare).
func newPlanCache() *planCache {
	return lru.New[string, *Stmt](4096, 8, lru.HashString)
}
