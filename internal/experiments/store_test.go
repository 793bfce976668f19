package experiments

import (
	"context"
	"testing"

	"repro/internal/seed"
)

// TestEnvWithStoreSharesEvidenceAcrossRuns: an Env built over a store
// directory persists its generations, and a second Env over the same
// directory serves them without invoking the simulator — the offline
// side of the "one evidence corpus shared between offline runs and
// online serving" contract.
func TestEnvWithStoreSharesEvidenceAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	env1 := NewEnvWithStore(7, dir)
	examples := env1.BIRD.Dev[:5]
	want := make(map[string]string, len(examples))
	for _, e := range examples {
		ev, err := env1.BIRDSeedEvidenceTraced(ctx, seed.VariantGPT, e.DB, e.Question)
		if err != nil {
			t.Fatal(err)
		}
		want[e.ID] = ev.Text
	}
	env1.Close()

	env2 := NewEnvWithStore(7, dir)
	defer env2.Close()
	baseline := env2.Client.LedgerSnapshot().TotalCalls()
	for _, e := range examples {
		ev, err := env2.BIRDSeedEvidenceTraced(ctx, seed.VariantGPT, e.DB, e.Question)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Text != want[e.ID] {
			t.Fatalf("evidence for %s differs across store-backed envs:\n first  %q\n second %q", e.ID, want[e.ID], ev.Text)
		}
	}
	if calls := env2.Client.LedgerSnapshot().TotalCalls() - baseline; calls != 0 {
		t.Errorf("second env made %d LLM calls for persisted questions, want 0", calls)
	}
	sts := env2.EvidenceStats()
	if len(sts) == 0 || sts[0].Restored == 0 {
		t.Errorf("second env restored nothing from the store: %+v", sts)
	}
}
