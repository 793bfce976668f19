package dataset

import (
	"fmt"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlengine"
)

// Example is one text-to-SQL task instance.
type Example struct {
	// ID is unique within the corpus, e.g. "financial-0042".
	ID string
	// DB names the database the question runs against.
	DB string
	// Question is the natural-language request.
	Question string
	// SQLTemplate is the gold SQL with one {{i}} slot per atom.
	SQLTemplate string
	// Atoms lists the knowledge requirements, in slot order.
	Atoms []Atom
	// GoldSQL is SQLTemplate with every correct fragment substituted.
	GoldSQL string
	// CleanEvidence is the correct human-style evidence.
	CleanEvidence string
	// Evidence is the evidence as provided with the example. On dev it
	// may be defective (missing or erroneous) per the injected defect.
	Evidence string
	// Defect records the injected evidence defect, if any.
	Defect DefectType
	// Complexity in [0,1] summarises structural difficulty (joins,
	// grouping, subqueries), derived from the gold SQL.
	Complexity float64
	// CorruptSQL is a structurally degraded variant of the gold query
	// (dropped conjunct, negated filter, spurious LIMIT) that generators
	// emit when their structural parse fails. It is precomputed so the
	// failure mode is deterministic and executable.
	CorruptSQL string
}

// Finalize computes GoldSQL, CleanEvidence, Evidence and Complexity from
// the template and atoms. Call once after constructing the literal fields.
func (e *Example) Finalize() error {
	gold, err := RenderSQL(e.SQLTemplate, CorrectFrags(e.Atoms))
	if err != nil {
		return fmt.Errorf("dataset: example %s: %w", e.ID, err)
	}
	e.GoldSQL = gold
	e.CleanEvidence = ComposeEvidence(e.Atoms)
	e.Evidence = e.CleanEvidence
	e.Complexity = sqlComplexity(gold)
	e.CorruptSQL = corruptVariant(gold)
	return nil
}

// corruptVariant degrades a gold query the way near-miss LLM output does:
// it drops one WHERE conjunct, or negates the filter, or perturbs the
// result shape. The variant always differs textually from the gold query.
func corruptVariant(gold string) string {
	sel, err := sqlengine.ParseSelect(gold)
	if err != nil {
		return gold + " LIMIT 1"
	}
	if b, ok := sel.Where.(*sqlengine.Binary); ok && b.Op == "AND" {
		sel.Where = b.L
		return sel.SQL()
	}
	if sel.Where != nil {
		sel.Where = &sqlengine.Unary{Op: "NOT", X: sel.Where}
		return sel.SQL()
	}
	if sel.Limit == nil {
		sel.Limit = &sqlengine.Literal{Val: sqlengine.Int(1)}
		return sel.SQL()
	}
	sel.Limit = nil
	return sel.SQL()
}

// sqlComplexity scores structural difficulty in [0,1].
func sqlComplexity(sql string) float64 {
	up := strings.ToUpper(sql)
	score := 0.0
	score += 0.18 * float64(strings.Count(up, " JOIN "))
	if strings.Contains(up, "GROUP BY") {
		score += 0.15
	}
	if strings.Contains(up, "HAVING") {
		score += 0.10
	}
	if strings.Count(up, "SELECT") > 1 {
		score += 0.22 // subquery
	}
	if strings.Contains(up, "ORDER BY") {
		score += 0.08
	}
	if strings.Contains(up, "CASE") {
		score += 0.10
	}
	if score > 1 {
		score = 1
	}
	return score
}

// Corpus is a complete benchmark: databases plus question splits.
type Corpus struct {
	// Name is "bird" or "spider".
	Name string
	// DBs maps database names to executable databases with docs.
	DBs map[string]*schema.DB
	// Train, Dev and Test are the question splits. Test is only populated
	// for Spider (BIRD's test set is hidden in the real benchmark).
	Train []Example
	Dev   []Example
	Test  []Example
}

// DB returns the named database.
func (c *Corpus) DB(name string) (*schema.DB, bool) {
	db, ok := c.DBs[name]
	return db, ok
}
