package dataset

import (
	"repro/internal/schema"
)

// BIRDOptions tunes BIRD corpus generation.
type BIRDOptions struct {
	// Seed drives all pseudo-random choices (data population, defect
	// injection). Corpora built from equal seeds are identical.
	Seed uint64
	// CleanDev skips defect injection, leaving dev evidence pristine.
	// The defect-correction experiment (Table II) builds both variants.
	CleanDev bool
}

// BuildBIRD generates the full synthetic BIRD corpus: eight databases
// with description files, a train split with clean evidence, and a dev
// split whose evidence carries the paper-measured defect rates (Fig. 2)
// unless CleanDev is set. Each database is frozen once loaded: it is only
// ever read, and its TEXT columns are stored as codes where that is smaller
// (sqlengine.Database.Freeze).
func BuildBIRD(opt BIRDOptions) *Corpus {
	c := &Corpus{Name: "bird", DBs: make(map[string]*schema.DB)}
	type buildFunc func(seed uint64) (*schema.DB, []Example, []Example)
	builders := []buildFunc{
		buildFinancial,
		buildSchools,
		buildSuperhero,
		buildCardGames,
		buildToxicology,
		buildThrombosis,
		buildDebitCard,
		buildStudentClub,
	}
	for i, build := range builders {
		db, train, dev := build(opt.Seed + uint64(i)*1000)
		db.Engine.Freeze()
		c.DBs[db.Name] = db
		c.Train = append(c.Train, train...)
		c.Dev = append(c.Dev, dev...)
	}
	if !opt.CleanDev {
		InjectDefects(c.Dev, opt.Seed+77)
	}
	return c
}
