package seed

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/schema"
)

// uncachedPrompt is the generation prompt rendered from scratch, every
// table's DDL and description CSV included: the reference buildPrompt's
// pinned blocks must equal.
func uncachedPrompt(question string, visible []tableView, samples []Sample, shots []Shot) string {
	var b strings.Builder
	b.WriteString("Generate the evidence needed to write SQL for the question, in the style of the examples.\n")
	b.WriteString(markShots + "\n")
	for _, s := range shots {
		fmt.Fprintf(&b, "Q: %s\nEvidence: %s\n", s.Question, s.Evidence)
	}
	b.WriteString(markSamples + "\n")
	for _, s := range samples {
		fmt.Fprintf(&b, "%s %s.%s contains '%s' (matches keyword '%s')\n",
			tableMarker(s.Table), s.Table, s.Column, s.Value, s.Keyword)
	}
	b.WriteString(markSchema + "\n")
	for _, tv := range visible {
		b.WriteString(tableMarker(tv.Table.Name) + "\n")
		b.WriteString(schema.TableDDL(tv.Table) + "\n")
		if tv.Doc != nil {
			b.WriteString(tv.Doc.CSV())
		}
	}
	b.WriteString(markQuestion + "\n" + question + "\n")
	return b.String()
}

// TestPromptTableBlocksPinnedPerDB: the evidence prompt carries every
// visible table's DDL and description CSV byte for byte — for every BIRD
// database, under both variants, over the full table list and over
// deepseek's summarized subset — and once a database's blocks are pinned
// building a prompt allocates less than rendering its tables alone.
func TestPromptTableBlocksPinnedPerDB(t *testing.T) {
	c := testCorpus(t)
	question := make(map[string]string, len(c.DBs))
	for _, split := range [][]dataset.Example{c.Dev, c.Train} {
		for _, ex := range split {
			if _, ok := question[ex.DB]; !ok {
				question[ex.DB] = ex.Question
			}
		}
	}
	names := make([]string, 0, len(c.DBs))
	for name := range c.DBs {
		if _, ok := question[name]; !ok {
			t.Fatalf("no question asks database %s", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	for _, v := range []struct {
		name string
		cfg  Config
	}{{"gpt", ConfigGPT()}, {"deepseek", ConfigDeepSeek()}} {
		t.Run(v.name, func(t *testing.T) {
			p := New(v.cfg, llm.NewSimulator(), c)
			for _, name := range names {
				db, q := c.DBs[name], question[name]
				views := [][]tableView{p.visibleTables(db, q)}
				if v.cfg.Summarize {
					kept, _, err := p.summarizeSchema(db, q, views[0])
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					views = append(views, kept)
				}
				kws, _, err := p.extractKeywords(q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				samples, shots := p.SampleExecution(db, kws), p.SelectFewShots(q, name)
				for _, visible := range views {
					want := uncachedPrompt(q, visible, samples, shots)
					for range 2 {
						if got := p.buildPrompt(db, q, visible, samples, shots); got != want {
							t.Fatalf("%s (%d tables): prompt diverged from the uncached rendering\n got: %q\nwant: %q", name, len(visible), got, want)
						}
					}
					render := testing.AllocsPerRun(10, func() {
						for _, tv := range visible {
							_ = renderTableBlock(tv)
						}
					})
					if n := testing.AllocsPerRun(10, func() { _ = p.buildPrompt(db, q, visible, samples, shots) }); n >= render {
						t.Errorf("%s (%d tables): buildPrompt allocates %.0f times, rendering its tables alone %.0f: the blocks are not pinned", name, len(visible), n, render)
					}
				}
			}
		})
	}
}
