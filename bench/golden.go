package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// golden.json pins, for the default corpus seed, what every round of every
// workload must produce: how many answers the judge accepts, how many LLM
// calls and tokens the round spends, and a digest of the SQL (or failure
// class) each question was answered with. These do not depend on the
// traffic seed, so every full-size run checks them.
//
//go:embed golden.json
var goldenJSON []byte

const goldenPath = "bench/golden.json"

type goldenRound struct {
	Correct   int    `json:"correct"`
	LLMCalls  int    `json:"llm_calls"`
	LLMTokens int    `json:"llm_tokens"`
	Digest    string `json:"digest"`
}

// goldenFile maps a workload to its rounds: one entry when every round is
// alike, coldStride entries for bird_cold (round i matches entry i mod 9).
type goldenFile struct {
	CorpusSeed uint64                   `json:"corpus_seed"`
	Workloads  map[string][]goldenRound `json:"workloads"`
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("bench/golden.json: %w", err)
	}
	return g, nil
}

func goldenOf(r *roundResult) goldenRound {
	return goldenRound{Correct: r.correct(), LLMCalls: r.llmCalls, LLMTokens: r.llmTokens, Digest: r.digest}
}

// checkGolden compares every round (traced ones too) with the golden
// file. It applies only to the configuration the file was recorded on.
func (rep *report) checkGolden() error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	if rep.plan.opt.smoke || rep.plan.opt.corpusSeed != g.CorpusSeed {
		return nil
	}
	for _, res := range rep.results {
		want := g.Workloads[res.sp.name]
		if len(want) == 0 {
			rep.problems = append(rep.problems, fmt.Sprintf("%s: no entry in %s", res.sp.name, goldenPath))
			continue
		}
		all := append(append([]roundResult(nil), res.rounds...), res.traced...)
		for i := range all {
			if all[i].answered() != len(all[i].ops) {
				continue // an abandoned round is already a problem by its class
			}
			if got := goldenOf(&all[i]); got != want[i%len(want)] {
				rep.problems = append(rep.problems, fmt.Sprintf("%s: round %d is %+v, %s has %+v", res.sp.name, i+1, got, goldenPath, want[i%len(want)]))
			}
		}
	}
	return nil
}

// writeGolden records this run as the new golden file. Rounds that are
// all alike collapse to one entry.
func (rep *report) writeGolden() error {
	g := goldenFile{CorpusSeed: rep.plan.opt.corpusSeed, Workloads: map[string][]goldenRound{}}
	for _, res := range rep.results {
		var rounds []goldenRound
		alike := true
		for i := range res.rounds {
			rounds = append(rounds, goldenOf(&res.rounds[i]))
			alike = alike && rounds[i] == rounds[0]
		}
		switch {
		case alike:
			rounds = rounds[:1]
		case len(rounds) >= coldStride:
			rounds = rounds[:coldStride]
		default:
			return fmt.Errorf("%s: rounds differ; recording them needs -rounds %d or more", res.sp.name, coldStride)
		}
		g.Workloads[res.sp.name] = rounds
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
