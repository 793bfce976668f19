package seed

import (
	"fmt"
	"strings"

	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/sqlengine"
)

// DescribeDatabase generates description files for a database that ships
// none, mirroring the paper's Spider setup (§IV-E3: "Since Spider does not
// have database description files, we generated them using DeepSeek-V3").
// For each table it expands identifier names into natural full names and
// documents low-cardinality text columns with value maps inferred from the
// data plus world knowledge. The generated docs are installed into db.Docs.
func (p *Pipeline) DescribeDatabase(db *schema.DB) error {
	for _, t := range db.Engine.Tables() {
		prompt := "Write a description file for this table, documenting column meanings and value codes.\n" + schema.TableDDL(t)
		table := t
		resp, err := p.client.Complete(llm.Request{
			Model:  p.cfg.ReviseModel,
			Prompt: prompt,
			Policy: llm.TruncateHead,
			Task: func(prompt string, m llm.Model, rng *llm.Rand) (string, error) {
				td := p.describeTable(db, table, m, rng)
				return td.CSV(), nil
			},
		})
		if err != nil {
			return fmt.Errorf("seed: describing %s: %w", t.Name, err)
		}
		td, err := schema.ParseTableDocCSV(t.Name, resp.Text)
		if err != nil {
			return fmt.Errorf("seed: parsing generated description for %s: %w", t.Name, err)
		}
		db.SetDoc(td)
	}
	return nil
}

// describeTable builds one generated TableDoc.
func (p *Pipeline) describeTable(db *schema.DB, t *sqlengine.Table, m llm.Model, rng *llm.Rand) *schema.TableDoc {
	td := &schema.TableDoc{
		Table:       t.Name,
		Description: "auto-generated description of " + strings.Join(normalizeIdent(t.Name), " "),
	}
	for _, col := range t.Columns {
		cd := schema.ColumnDoc{
			Column:      col.Name,
			FullName:    strings.Join(normalizeIdent(col.Name), " "),
			Description: "the " + strings.Join(normalizeIdent(col.Name), " ") + " of the " + strings.Join(normalizeIdent(t.Name), " "),
		}
		// Document coded values for low-cardinality text columns; a weak
		// model occasionally skips a column.
		if col.Type == "TEXT" && !rng.Chance((1-m.Capability)*0.2) {
			vals := p.distinctValues(db, t.Name, col.Name)
			if len(vals) > 0 && len(vals) <= 8 {
				vm := make(map[string]string, len(vals))
				for _, v := range vals {
					vm[v.text] = inferMeaning(col.Name, v.text)
				}
				cd.ValueMap = vm
			}
		}
		td.Columns = append(td.Columns, cd)
	}
	return td
}

// inferMeaning is the world-knowledge half of description generation: it
// expands common coded values based on the column context, the way an LLM
// glosses "T"/"F" or "M"/"F" columns.
func inferMeaning(column, value string) string {
	colWords := strings.Join(normalizeIdent(column), " ")
	switch strings.ToUpper(value) {
	case "T":
		return "true"
	case "F":
		if strings.Contains(colWords, "sex") || strings.Contains(colWords, "gender") {
			return "female"
		}
		return "false"
	case "M":
		if strings.Contains(colWords, "sex") || strings.Contains(colWords, "gender") {
			return "male"
		}
	}
	return strings.ToLower(value)
}
