package seed

import (
	"strings"

	"repro/internal/evidence"
	"repro/internal/llm"
)

// Revise strips join-path clauses from generated evidence using the
// revision model, producing the paper's SEED_revised format (Table VI:
// "we revised SEED evidence by removing join-related information, its most
// significant difference, using DeepSeek-V3"). Weak instruction following
// occasionally leaves a join clause behind.
func (p *Pipeline) Revise(ev string) (string, error) {
	if ev == "" {
		return "", nil
	}
	prompt := "Remove join-related information from the evidence, keeping everything else unchanged.\nEvidence: " + ev
	resp, err := p.client.Complete(llm.Request{
		Model:  p.cfg.ReviseModel,
		Prompt: prompt,
		Task: func(prompt string, m llm.Model, rng *llm.Rand) (string, error) {
			// Work from the prompt text so truncation is honoured.
			body := ev
			if i := strings.Index(prompt, "Evidence: "); i >= 0 {
				body = prompt[i+len("Evidence: "):]
			}
			clauses := evidence.Parse(body)
			kept := clauses[:0]
			for _, c := range clauses {
				if c.Join && !rng.Chance((1-m.InstructionFollowing)*0.1) {
					continue
				}
				kept = append(kept, c)
			}
			return evidence.Compose(kept), nil
		},
	})
	if err != nil {
		return "", err
	}
	return resp.Text, nil
}
