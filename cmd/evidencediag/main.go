// Command evidencediag audits evidence quality at the knowledge-atom
// level: for each evidence condition it reports what fraction of dev atoms
// a matching clause resolves, and whether the resolved fragment is
// execution-correct. It is the tool used to calibrate the reproduction and
// to debug SEED coverage regressions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repro/internal/dataset"
	"repro/internal/evidence"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/seed"
)

func main() {
	seedFlag := flag.Uint64("seed", 7, "corpus generation seed")
	traceN := flag.Int("trace", 0, "print the per-stage trace tree for the first n BIRD dev questions and exit")
	fetchTrace := flag.String("fetch-trace", "", "fetch one retained trace by ID from a running seedd (GET /v1/traces/{id}) and render its span tree")
	addr := flag.String("addr", "http://127.0.0.1:8080", "seedd base URL for -fetch-trace")
	flag.Parse()

	if *fetchTrace != "" {
		if err := printRemoteTrace(*addr, *fetchTrace); err != nil {
			fmt.Fprintf(os.Stderr, "fetch-trace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	env := experiments.NewEnv(*seedFlag)
	if *traceN > 0 {
		if err := printTraces(env, *traceN); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	conditions := []struct {
		name string
		ev   func(e dataset.Example) string
	}{
		{"bird-provided", func(e dataset.Example) string { return e.Evidence }},
		{"bird-clean", func(e dataset.Example) string { return e.CleanEvidence }},
		{"seed_gpt", mapFunc(env.BIRDSeedEvidence(seed.VariantGPT))},
		{"seed_deepseek", mapFunc(env.BIRDSeedEvidence(seed.VariantDeepSeek))},
		{"seed_revised", mapFunc(env.BIRDRevisedEvidence())},
	}

	fmt.Printf("%-14s %8s %8s %8s %8s %8s\n", "condition", "atoms", "matched", "correct", "wrong", "joins%")
	for _, c := range conditions {
		var atoms, matched, correct, wrong, withJoins, total int
		perKind := map[dataset.AtomKind][2]int{}
		for _, e := range env.BIRD.Dev {
			ev := c.ev(e)
			total++
			if evidence.HasJoins(ev) {
				withJoins++
			}
			clauses := evidence.Parse(ev)
			for _, a := range e.Atoms {
				if a.Kind == dataset.JoinPath {
					continue
				}
				atoms++
				cl, ok := evidence.BestMatch(clauses, a.Term, 0.55)
				if !ok {
					continue
				}
				matched++
				frag := extractLike(cl, a.Kind)
				pk := perKind[a.Kind]
				if frag == a.CorrectFrag || equivalentFrag(frag, a.CorrectFrag) {
					correct++
					pk[0]++
				} else {
					wrong++
					pk[1]++
				}
				perKind[a.Kind] = pk
			}
		}
		fmt.Printf("%-14s %8d %8d %8d %8d %7.1f%%\n", c.name, atoms, matched, correct, wrong,
			100*float64(withJoins)/float64(total))
		for _, k := range []dataset.AtomKind{dataset.ValueMap, dataset.Synonym, dataset.Threshold, dataset.Formula, dataset.ColumnRef} {
			pk := perKind[k]
			fmt.Printf("    %-20s correct=%d wrong=%d\n", k, pk[0], pk[1])
		}
	}
}

// printRemoteTrace fetches one retained trace from a running seedd and
// renders it with the same span-tree renderer sqlsh's .trace uses — the
// operator loop is: make a request, read X-Trace-Id off the response,
// `evidencediag -fetch-trace <id> -addr <replica>`.
func printRemoteTrace(base, id string) error {
	url := strings.TrimRight(base, "/") + "/v1/traces/" + id
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	var rec obs.TraceRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		return fmt.Errorf("decoding trace: %w", err)
	}
	fmt.Print(obs.RenderTree(&rec))
	return nil
}

// printTraces renders the evidence pipeline's provenance tree for the
// first n dev questions: per-stage wall time and token spend, indented by
// dependency depth. The second generation of a repeated question shows
// the trace preserved across the evidence cache.
func printTraces(env *experiments.Env, n int) error {
	ctx := context.Background()
	dev := env.BIRD.Dev
	if n > len(dev) {
		n = len(dev)
	}
	for _, ex := range dev[:n] {
		ev, err := env.BIRDSeedEvidenceTraced(ctx, seed.VariantGPT, ex.DB, ex.Question)
		if err != nil {
			return fmt.Errorf("%s: %w", ex.ID, err)
		}
		fmt.Printf("[%s] %s\n", ex.ID, ex.Question)
		fmt.Printf("  evidence: %s\n", ev.Text)
		if ev.CacheHit {
			fmt.Println("  (served from evidence cache; trace below is the original generation)")
		}
		if ev.Trace != nil {
			tree := strings.TrimSuffix(ev.Trace.Tree(), "\n")
			for _, line := range strings.Split(tree, "\n") {
				fmt.Println("  " + line)
			}
		}
		fmt.Println()
	}
	return nil
}

func mapFunc(m map[string]string) func(e dataset.Example) string {
	return func(e dataset.Example) string { return m[e.ID] }
}

// extractLike mirrors the generators' fragment extraction.
func extractLike(c evidence.Clause, kind dataset.AtomKind) string {
	switch kind {
	case dataset.ValueMap, dataset.Synonym:
		if lit, ok := c.ValueLiteral(); ok {
			return lit
		}
		return ""
	case dataset.Threshold, dataset.Formula:
		return c.Body
	case dataset.ColumnRef:
		return c.ColumnSide()
	}
	return ""
}

// equivalentFrag treats qualification differences as equal
// ("laboratory.hct >= 52" vs "hct >= 52").
func equivalentFrag(got, want string) bool {
	return got != "" && (contains(want, got) || contains(got, want))
}

func contains(a, b string) bool {
	return len(b) > 0 && len(a) >= len(b) && (a == b || suffixAfterDot(a) == b || suffixAfterDot(b) == a)
}

func suffixAfterDot(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return s[i+1:]
		}
	}
	return s
}
