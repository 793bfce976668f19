package qmemory

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Replication ships learned patterns between fleet replicas the same way
// evidence ships: each replica exposes an incremental sync feed and
// tails its peers. The cursor is (gen, seq): gen is fresh per Memory
// construction (a restarted peer forces a full resync, like evstore's
// generation stamp), and seq is the memory's mutation counter — a
// follower asks for "everything you changed after seq S in generation G"
// and applies what comes back through the Inject dominance rule, so the
// mesh converges without echo loops even though every replica both
// serves and tails.

// SyncChunk is one sync response: the source's generation, the cursor
// the follower should present next, and every pattern mutated past the
// follower's cursor.
type SyncChunk struct {
	Gen      int64    `json:"gen"`
	Next     int64    `json:"next"`
	Patterns []Record `json:"patterns"`
}

// SyncRead collects the patterns mutated after the (gen, since) cursor.
// A generation mismatch resets the cursor: the follower gets the full
// live set and adopts the new generation.
func (m *Memory) SyncRead(gen, since int64, limit int) SyncChunk {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if gen != m.gen {
		since = 0
	}
	type seqRec struct {
		seq int64
		rec Record
	}
	var changed []seqRec
	for _, p := range m.patterns {
		if p.seq > since {
			changed = append(changed, seqRec{p.seq, cloneRecord(p.rec)})
		}
	}
	// Oldest-first so a truncated chunk advances the cursor correctly.
	slices.SortFunc(changed, func(a, b seqRec) int { return cmp.Compare(a.seq, b.seq) })
	if limit > 0 && len(changed) > limit {
		changed = changed[:limit]
	}
	out := SyncChunk{Gen: m.gen, Next: since}
	for _, c := range changed {
		out.Patterns = append(out.Patterns, c.rec)
		if c.seq > out.Next {
			out.Next = c.seq
		}
	}
	return out
}

// ServeSync handles a follower's GET: query params gen, since and an
// optional limit.
func (m *Memory) ServeSync(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	gen, _ := strconv.ParseInt(q.Get("gen"), 10, 64)
	since, _ := strconv.ParseInt(q.Get("since"), 10, 64)
	limit := 0
	if v := q.Get("limit"); v != "" {
		limit, _ = strconv.Atoi(v)
	}
	chunk := m.SyncRead(gen, since, limit)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(chunk)
}

// Inject lands a replicated pattern. The dominance rule keeps the mesh
// convergent and echo-free:
//
//   - unknown pattern: apply;
//   - more observed events (successes+failures) than ours: the peer has
//     seen more of the world — apply;
//   - equal events but different state: break the tie toward the lower
//     confidence (pessimism is the safe direction for a serve gate), and
//     on an exact confidence tie toward more phrasings;
//   - otherwise: skip (our copy dominates, or the records are equal —
//     this is what stops A→B→A echo).
//
// Injected patterns persist write-through like local mutations, so a
// replica that learned a pattern over the wire still has it after a
// restart.
func (m *Memory) Inject(rec Record) (applied bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, ok := m.patterns[rec.ID]
	if ok {
		ce, re := cur.rec.events(), rec.events()
		switch {
		case re > ce:
			// apply
		case re == ce && !sameRecord(cur.rec, rec) &&
			(rec.Confidence < cur.rec.Confidence ||
				rec.Confidence == cur.rec.Confidence && len(rec.Phrasings) > len(cur.rec.Phrasings)):
			// apply
		default:
			return false, nil
		}
	}
	if err := m.applyHeld(rec, true); err != nil {
		return false, err
	}
	m.stats.Injected++
	return true, nil
}

func sameRecord(a, b Record) bool {
	if a.ID != b.ID || a.DB != b.DB || a.SQL != b.SQL || a.Evidence != b.Evidence ||
		a.Fingerprint != b.Fingerprint || a.Confidence != b.Confidence ||
		a.Successes != b.Successes || a.Failures != b.Failures ||
		len(a.Phrasings) != len(b.Phrasings) {
		return false
	}
	for i := range a.Phrasings {
		if a.Phrasings[i] != b.Phrasings[i] {
			return false
		}
	}
	return true
}

// TailerOptions configures a replication tailer.
type TailerOptions struct {
	// Interval between polls; default 2s.
	Interval time.Duration
	// Limit bounds patterns per poll; 0 means unlimited.
	Limit int
	// Client is the HTTP client for polls; default a 10s-timeout client.
	Client *http.Client
}

// TailerStats is a tailer's counter snapshot.
type TailerStats struct {
	Polls   int64 `json:"polls"`
	Applied int64 `json:"applied"`
	Skipped int64 `json:"skipped"`
	Errors  int64 `json:"errors"`
	Resyncs int64 `json:"resyncs"`
	// Cursor is the seq the next poll presents.
	Cursor int64 `json:"cursor"`
}

// Tailer follows one peer's sync feed into a local Memory.
type Tailer struct {
	source string
	mem    *Memory
	opts   TailerOptions

	mu    sync.Mutex
	gen   int64
	since int64
	stats TailerStats
}

// NewTailer builds a tailer polling source (a fully-formed sync URL,
// query-string-ready: "?..." already present or absent) into mem.
func NewTailer(source string, mem *Memory, opts TailerOptions) *Tailer {
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 10 * time.Second}
	}
	return &Tailer{source: source, mem: mem, opts: opts}
}

// Run polls until ctx is done.
func (t *Tailer) Run(ctx context.Context) {
	ticker := time.NewTicker(t.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			_ = t.Poll(ctx)
		}
	}
}

// Poll performs one sync round-trip and applies the chunk.
func (t *Tailer) Poll(ctx context.Context) error {
	t.mu.Lock()
	gen, since := t.gen, t.since
	t.mu.Unlock()

	sep := "?"
	if strings.Contains(t.source, "?") {
		sep = "&"
	}
	url := fmt.Sprintf("%s%sgen=%d&since=%d&limit=%d", t.source, sep, gen, since, t.opts.Limit)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.fail()
		return err
	}
	resp, err := t.opts.Client.Do(req)
	if err != nil {
		t.fail()
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		t.fail()
		return fmt.Errorf("qmemory: sync %s: status %d", t.source, resp.StatusCode)
	}
	var chunk SyncChunk
	if err := json.NewDecoder(resp.Body).Decode(&chunk); err != nil {
		t.fail()
		return fmt.Errorf("qmemory: decoding sync chunk: %w", err)
	}

	var applied, skipped int64
	for _, rec := range chunk.Patterns {
		ok, err := t.mem.Inject(rec)
		if err != nil {
			t.fail()
			return err
		}
		if ok {
			applied++
		} else {
			skipped++
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Polls++
	t.stats.Applied += applied
	t.stats.Skipped += skipped
	if gen != 0 && chunk.Gen != gen {
		t.stats.Resyncs++
	}
	t.gen = chunk.Gen
	t.since = chunk.Next
	t.stats.Cursor = t.since
	return nil
}

func (t *Tailer) fail() {
	t.mu.Lock()
	t.stats.Polls++
	t.stats.Errors++
	t.mu.Unlock()
}

// Stats snapshots the tailer's counters.
func (t *Tailer) Stats() TailerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}
