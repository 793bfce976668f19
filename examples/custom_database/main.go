// Custom database: apply SEED to a database of your own. This is the
// deployment scenario the paper targets — no hand-written evidence exists,
// and SEED manufactures it from schema, descriptions and values.
//
//	go run ./examples/custom_database
package main

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/seed"
	"repro/internal/sqlengine"
)

func main() {
	// 1. Build a small ticketing database with a cryptic status column.
	eng := sqlengine.NewDatabase("helpdesk")
	eng.MustExec(`CREATE TABLE agent (
		agent_id INTEGER PRIMARY KEY,
		name TEXT,
		team TEXT
	)`)
	eng.MustExec(`CREATE TABLE ticket (
		ticket_id INTEGER PRIMARY KEY,
		agent_id INTEGER,
		status TEXT,
		priority TEXT,
		opened TEXT,
		FOREIGN KEY (agent_id) REFERENCES agent(agent_id)
	)`)
	teams := []string{"Billing", "Network", "Accounts"}
	for i := 1; i <= 9; i++ {
		eng.MustExec(fmt.Sprintf("INSERT INTO agent VALUES (%d, 'Agent %d', '%s')", i, i, teams[i%3]))
	}
	statuses := []string{"O", "P", "C"}
	priorities := []string{"LOW", "MED", "HI"}
	for i := 1; i <= 60; i++ {
		eng.MustExec(fmt.Sprintf("INSERT INTO ticket VALUES (%d, %d, '%s', '%s', '2024-%02d-%02d')",
			i, 1+i%9, statuses[i%3], priorities[(i/3)%3], 1+i%12, 1+i%28))
	}

	// Loaded: from here on it is only read. Freezing it refuses any
	// further write and stores its TEXT columns as codes where that is
	// smaller.
	eng.Freeze()

	// 2. Wrap it with a description file documenting the codes — the
	// kind of metadata a real deployment exports from its data catalog.
	db := schema.NewDB(eng)
	db.SetDoc(&schema.TableDoc{
		Table: "ticket", Description: "support tickets",
		Columns: []schema.ColumnDoc{
			{Column: "ticket_id", FullName: "ticket id", Description: "unique ticket identifier"},
			{Column: "status", FullName: "status", Description: "ticket lifecycle state",
				ValueMap: map[string]string{"O": "open ticket", "P": "pending customer reply", "C": "closed ticket"}},
			{Column: "priority", FullName: "priority", Description: "triage priority",
				ValueMap: map[string]string{"LOW": "low priority", "MED": "medium priority", "HI": "high priority"}},
			{Column: "opened", FullName: "opened date", Description: "date opened, YYYY-MM-DD"},
		},
	})

	// 3. SEED needs a corpus shell: the database plus (optionally) a
	// training pool for few-shot selection. An empty pool still works —
	// evidence then comes purely from schema analysis and sampling.
	corpus := &dataset.Corpus{
		Name: "helpdesk",
		DBs:  map[string]*schema.DB{"helpdesk": db},
	}
	pipeline := seed.New(seed.ConfigGPT(), llm.NewSimulator(), corpus)

	questions := []string{
		"How many open tickets are there?",
		"How many high priority tickets are pending customer reply?",
		"List the ticket ids of closed tickets handled by the Network team.",
	}
	for _, q := range questions {
		ev, err := pipeline.GenerateEvidence("helpdesk", q)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Printf("Q: %s\n  evidence: %s\n\n", q, ev)
	}
}
