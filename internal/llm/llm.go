// Package llm is the deterministic simulated large-language-model substrate
// for the SEED reproduction. The paper's pipelines call GPT-4o, GPT-4o-mini,
// DeepSeek-R1, DeepSeek-V3 and ChatGPT through HTTP APIs; this package
// reproduces the two properties of those APIs that the paper's mechanisms
// depend on, without any network access:
//
//  1. Context-window limits. DeepSeek-R1's API caps requests at 8,192
//     tokens, which is the entire motivation for SEED's schema
//     summarization stage (§III-A). The simulator enforces each model's
//     window: requests either fail or are truncated per policy, and task
//     logic only ever sees the post-truncation prompt, so exceeding the
//     window genuinely loses information.
//
//  2. Capability-dependent behaviour. Each model carries capability
//     parameters in [0,1]; task implementations draw from a deterministic,
//     request-seeded random source to decide capability-gated outcomes.
//     The same request always produces the same response, making every
//     experiment bit-reproducible.
//
// Task logic itself (what "the model" answers for a given prompt) is
// supplied by the caller as a TaskFunc: the SEED pipeline and the
// text-to-SQL baselines each define their own, operating on the prompt the
// simulator hands them.
package llm

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Model describes one simulated LLM.
type Model struct {
	// Name is the API-style model identifier, e.g. "gpt-4o".
	Name string
	// ContextWindow is the maximum total tokens per request.
	ContextWindow int
	// Capability in [0,1] scales how reliably the model completes
	// reasoning-heavy steps (schema linking, SQL assembly, evidence
	// inference). It is the lever that separates GPT-4o from ChatGPT.
	Capability float64
	// InstructionFollowing in [0,1] scales how closely output format
	// tracks exemplars; low values let extra clauses (e.g. join hints)
	// leak into generated evidence, the mechanism behind Table VI.
	InstructionFollowing float64
}

// Registry of the models used in the paper. Context windows follow the
// public APIs at the paper's writing time; capabilities are calibration
// parameters, fitted to the tables README "Paper artefact → driver map"
// lists.
var registry = map[string]Model{
	"gpt-4o":       {Name: "gpt-4o", ContextWindow: 128000, Capability: 0.92, InstructionFollowing: 0.95},
	"gpt-4o-mini":  {Name: "gpt-4o-mini", ContextWindow: 128000, Capability: 0.84, InstructionFollowing: 0.90},
	"gpt-4":        {Name: "gpt-4", ContextWindow: 32000, Capability: 0.90, InstructionFollowing: 0.92},
	"chatgpt":      {Name: "chatgpt", ContextWindow: 16000, Capability: 0.78, InstructionFollowing: 0.82},
	"deepseek-r1":  {Name: "deepseek-r1", ContextWindow: 8192, Capability: 0.90, InstructionFollowing: 0.72},
	"deepseek-v3":  {Name: "deepseek-v3", ContextWindow: 64000, Capability: 0.87, InstructionFollowing: 0.88},
	"codes-sft":    {Name: "codes-sft", ContextWindow: 8192, Capability: 0.80, InstructionFollowing: 0.97},
	"starcoder-ft": {Name: "starcoder-ft", ContextWindow: 8192, Capability: 0.76, InstructionFollowing: 0.95},
}

var registryMu sync.RWMutex

// Lookup returns the registered model by name.
func Lookup(name string) (Model, error) {
	registryMu.RLock()
	m, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return Model{}, fmt.Errorf("llm: unknown model %q", name)
	}
	return m, nil
}

// RegisterModel adds (or replaces) a model in the registry. Used for
// parameterised model families such as the CodeS size ladder.
func RegisterModel(m Model) {
	registryMu.Lock()
	registry[m.Name] = m
	registryMu.Unlock()
}

// ModelNames lists all registered model identifiers (unordered).
func ModelNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	return out
}

// CountTokens approximates API tokenisation: one token per word piece,
// where long words count one token per 4 characters. It over-counts
// slightly versus real BPE, which keeps window enforcement conservative.
func CountTokens(s string) int {
	n := 0
	for _, f := range strings.Fields(s) {
		n += tokenCost(f)
	}
	return n
}

// tokenCost prices one whitespace-delimited field: one token per started
// 5-character chunk.
func tokenCost(f string) int { return 1 + (len(f)-1)/5 }

// TruncatePolicy selects what happens when a prompt exceeds the window.
type TruncatePolicy int

// Truncation policies.
const (
	// ErrorOnOverflow rejects over-window requests, like the DeepSeek-R1
	// API does.
	ErrorOnOverflow TruncatePolicy = iota
	// TruncateHead keeps the end of the prompt (instructions usually
	// trail), dropping the front.
	TruncateHead
	// TruncateTail keeps the front of the prompt, dropping the end.
	TruncateTail
)

// ErrContextOverflow is returned when a request exceeds the model's context
// window under ErrorOnOverflow.
var ErrContextOverflow = errors.New("llm: prompt exceeds model context window")

// TaskFunc implements the "brain" of a simulated completion: it receives
// the (post-truncation) prompt, the model parameters and a deterministic
// random source, and returns the completion text.
type TaskFunc func(prompt string, m Model, rng *Rand) (string, error)

// Request is one completion call.
type Request struct {
	// Model is the registered model identifier, e.g. "gpt-4o".
	Model string
	// Prompt is the full request text.
	Prompt string
	// Salt differentiates repeated calls that must draw independent noise
	// (e.g. C3's self-consistency votes).
	Salt string
	// Policy selects overflow handling; the zero value rejects overflows.
	Policy TruncatePolicy
	// Task computes the completion. Required.
	Task TaskFunc
}

// Response is the result of a completion call.
type Response struct {
	// Text is the completion.
	Text string
	// PromptTokens and CompletionTokens count post-truncation usage.
	PromptTokens     int
	CompletionTokens int
	// Truncated reports whether the prompt was cut to fit the window.
	Truncated bool
}

// Client issues completion requests. Implementations must be safe for
// concurrent use.
type Client interface {
	Complete(req Request) (Response, error)
}

// Simulator is the deterministic Client. The zero value is usable; Ledger
// is allocated lazily.
type Simulator struct {
	mu     sync.Mutex
	ledger Ledger

	// latencyNanos, when non-zero, is slept per completion to model the
	// network round trip of the real HTTP APIs. See SetLatency.
	latencyNanos atomic.Int64
}

// NewSimulator returns a fresh simulator with an empty ledger.
func NewSimulator() *Simulator { return &Simulator{} }

// SetLatency makes every Complete call take at least d of wall time,
// modelling the API round trip the paper's pipelines pay on each real
// LLM request. The default is zero (no sleep), which keeps tests and
// deterministic golden comparisons instant; latency changes only wall
// time, never response content. Benchmarks enable it to measure how much
// call latency the stage-graph scheduler hides by overlapping
// independent LLM calls — the dominant cost in a deployed SEED, where a
// single API round trip is hundreds of milliseconds.
func (s *Simulator) SetLatency(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.latencyNanos.Store(int64(d))
}

// Complete implements Client.
func (s *Simulator) Complete(req Request) (Response, error) {
	if req.Task == nil {
		return Response{}, errors.New("llm: request has no task")
	}
	if d := s.latencyNanos.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	m, err := Lookup(req.Model)
	if err != nil {
		return Response{}, err
	}
	prompt := req.Prompt
	tokens := CountTokens(prompt)
	truncated := false
	if tokens > m.ContextWindow {
		switch req.Policy {
		case ErrorOnOverflow:
			return Response{PromptTokens: tokens}, fmt.Errorf("%w: %d tokens > %d (%s)", ErrContextOverflow, tokens, m.ContextWindow, m.Name)
		case TruncateHead:
			prompt = truncateToTokens(prompt, m.ContextWindow, true)
			truncated = true
		case TruncateTail:
			prompt = truncateToTokens(prompt, m.ContextWindow, false)
			truncated = true
		}
		tokens = CountTokens(prompt)
	}
	rng := NewRand(seedFor(m.Name, prompt, req.Salt))
	text, err := req.Task(prompt, m, rng)
	if err != nil {
		return Response{PromptTokens: tokens, Truncated: truncated}, err
	}
	resp := Response{
		Text:             text,
		PromptTokens:     tokens,
		CompletionTokens: CountTokens(text),
		Truncated:        truncated,
	}
	s.mu.Lock()
	s.ledger.record(m.Name, resp)
	s.mu.Unlock()
	return resp, nil
}

// LedgerSnapshot returns a copy of the accumulated usage accounting.
func (s *Simulator) LedgerSnapshot() Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledger.clone()
}

// ResetLedger clears accumulated usage.
func (s *Simulator) ResetLedger() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ledger = Ledger{}
}

func truncateToTokens(prompt string, window int, keepTail bool) string {
	fields := strings.Fields(prompt)
	// Walk from the kept end accumulating token cost until the window fills.
	budget := window
	if keepTail {
		start := len(fields)
		for i := len(fields) - 1; i >= 0; i-- {
			cost := tokenCost(fields[i])
			if budget-cost < 0 {
				break
			}
			budget -= cost
			start = i
		}
		return strings.Join(fields[start:], " ")
	}
	end := 0
	for i := 0; i < len(fields); i++ {
		cost := tokenCost(fields[i])
		if budget-cost < 0 {
			break
		}
		budget -= cost
		end = i + 1
	}
	return strings.Join(fields[:end], " ")
}

func seedFor(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Usage aggregates calls for one model.
type Usage struct {
	// Calls counts completions issued to the model.
	Calls int
	// PromptTokens and CompletionTokens sum token usage across calls.
	PromptTokens     int
	CompletionTokens int
}

// Ledger tracks per-model usage for cost reporting.
type Ledger struct {
	// PerModel maps model name to its accumulated usage.
	PerModel map[string]Usage
}

func (l *Ledger) record(model string, r Response) {
	if l.PerModel == nil {
		l.PerModel = make(map[string]Usage)
	}
	u := l.PerModel[model]
	u.Calls++
	u.PromptTokens += r.PromptTokens
	u.CompletionTokens += r.CompletionTokens
	l.PerModel[model] = u
}

func (l *Ledger) clone() Ledger {
	out := Ledger{PerModel: make(map[string]Usage, len(l.PerModel))}
	for k, v := range l.PerModel {
		out.PerModel[k] = v
	}
	return out
}

// TotalCalls sums calls across models.
func (l Ledger) TotalCalls() int {
	n := 0
	for _, u := range l.PerModel {
		n += u.Calls
	}
	return n
}
