package seed

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/sqlengine"
	"repro/internal/texttosql"
)

// TestValueInventoryPulledOnce: SEED and both value retrievers read one
// inventory per database. After New, a warmed scan retriever and a warmed
// BM25 retriever over one corpus, and questions answered through all
// three, each TEXT column's inventory statement has been prepared exactly
// once: one plan-cache miss per column, no hit.
func TestValueInventoryPulledOnce(t *testing.T) {
	c := dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7}) // not the shared corpus: nothing has pulled yet
	before := make(map[string]sqlengine.PlanCacheStats, len(c.DBs))
	for name, db := range c.DBs {
		before[name] = db.Engine.PlanCacheStats()
	}

	p := New(ConfigGPT(), llm.NewSimulator(), c)
	scan := texttosql.NewRetriever(texttosql.StrategyScan)
	bm25 := texttosql.NewRetriever(texttosql.StrategyBM25)
	for _, db := range c.DBs {
		scan.Warm(db)
		bm25.Warm(db)
	}
	for _, ex := range c.Dev[:min(40, len(c.Dev))] {
		db := c.DBs[ex.DB]
		if _, err := p.GenerateEvidence(ex.DB, ex.Question); err != nil {
			t.Fatal(err)
		}
		for _, a := range ex.Atoms {
			scan.FindFrag(db, a)
			bm25.FindFrag(db, a)
		}
	}

	for name, db := range c.DBs {
		text := 0
		for _, tb := range db.Engine.Tables() {
			for _, col := range tb.Columns {
				if col.Type == "TEXT" {
					text++
				}
			}
		}
		st := db.Engine.PlanCacheStats()
		misses, hits := st.Misses-before[name].Misses, st.Hits-before[name].Hits
		if misses != int64(text) || hits != 0 {
			t.Errorf("%s: %d TEXT columns, but %d statements planned and %d served from the plan cache; want one pull per column",
				name, text, misses, hits)
		}
	}
}
