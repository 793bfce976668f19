// Planner benchmarks over the BIRD financial fixture — the database the
// paper's Table III examples come from, and the join shapes the EX/VES
// evaluation hot path executes thousands of times per experiment table.
// The external test package lets the benchmarks build the real corpus
// fixture through internal/dataset without an import cycle.
package sqlengine_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/sqlengine"
)

// financialEngine returns the financial database's engine.
func financialEngine(b *testing.B) *sqlengine.Database {
	b.Helper()
	corpus := dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7})
	db, ok := corpus.DB("financial")
	if !ok {
		b.Fatal("no financial DB in BIRD corpus")
	}
	return db.Engine
}

// join3Query is the 3-table equi-join microbench target: client ⋈ disp ⋈
// account with a mixed WHERE. Naively this evaluates |client|·|disp| +
// |intermediate|·|account| join pairs per execution.
const join3Query = "SELECT c.client_id, a.account_id, a.frequency " +
	"FROM client AS c JOIN disp AS d ON d.client_id = c.client_id " +
	"JOIN account AS a ON a.account_id = d.account_id " +
	"WHERE a.frequency = 'POPLATEK TYDNE' AND c.gender = 'F'"

// benchQuery times sql on the financial database's planned engine, or with
// planner false on its naive reference (the nested-loop plan).
func benchQuery(b *testing.B, planner bool, sql string) {
	b.Helper()
	st, err := financialEngine(b).Prepare(sql)
	if err != nil {
		b.Fatal(err)
	}
	exec := st.Exec
	if !planner {
		exec = st.ExecReference
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoin3Table contrasts the nested-loop and hash-join plans on the
// same query and data.
func BenchmarkJoin3Table(b *testing.B) {
	b.Run("nested", func(b *testing.B) { benchQuery(b, false, join3Query) })
	b.Run("hash", func(b *testing.B) { benchQuery(b, true, join3Query) })
}

// BenchmarkPointLookup measures single-table equality predicates: the
// planner's lazily built per-column index versus the naive full scan with
// per-row predicate evaluation.
func BenchmarkPointLookup(b *testing.B) {
	const q = "SELECT account_id, date FROM account WHERE account_id = 77"
	b.Run("scan", func(b *testing.B) { benchQuery(b, false, q) })
	b.Run("indexed", func(b *testing.B) { benchQuery(b, true, q) })
}

// BenchmarkPrepare contrasts a cold parse+plan per execution with the
// prepared-plan cache hit path that Database.Exec rides.
func BenchmarkPrepare(b *testing.B) {
	eng := financialEngine(b)
	b.Run("cold-parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sqlengine.Parse(join3Query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached-plan", func(b *testing.B) {
		if _, err := eng.Prepare(join3Query); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Prepare(join3Query); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLeftJoinEvidencePattern is the LEFT JOIN + aggregation shape
// that predicted SQL produces constantly in the evaluation workload.
func BenchmarkLeftJoinEvidencePattern(b *testing.B) {
	const q = "SELECT d.A2, COUNT(*) FROM account AS a " +
		"LEFT JOIN district AS d ON a.district_id = d.district_id " +
		"GROUP BY d.A2 ORDER BY 2 DESC"
	b.Run("nested", func(b *testing.B) { benchQuery(b, false, q) })
	b.Run("hash", func(b *testing.B) { benchQuery(b, true, q) })
}
