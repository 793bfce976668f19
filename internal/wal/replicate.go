package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// WAL shipping: the replication layer that turns N independent logs into
// a fleet that survives losing any replica.
//
// The leader side is ReplicationRead/ServeReplication: a follower asks
// for WAL bytes from (generation, offset) and gets back either the raw
// framed bytes it is missing — the exact bytes the leader's own crash
// recovery trusts, CRC frames included — or, when its offsets are stale
// (leader restarted, WAL rotated by compaction), a full dump of the live
// set under the current generation. Offsets are only ever interpreted
// against a matching generation, so WAL rotation can never cause a
// follower to read new bytes at old positions.
//
// The follower side is Tailer: a loop that polls a peer, consumes only
// complete CRC-valid frames (a truncated body or flipped bit costs a
// re-poll, never a bad record), applies records it does not already hold
// into its own log, and resumes at the frame boundary it last trusted.
// Because the follower re-frames records through its own Append, its
// log is exactly as crash-safe as a leader's — a follower promoted by
// the router serves the dead leader's shard from its own durable state,
// with zero LLM calls.

// Replication HTTP headers. The body of a replication response is raw
// framed records; these carry the stream position metadata.
const (
	// HeaderReplicateGen is the WAL generation the body's offsets belong to.
	HeaderReplicateGen = "X-Replicate-Gen"
	// HeaderReplicateNext is the offset a follower should poll next after
	// consuming the entire body (followers that consume a prefix compute
	// their own next offset from bytes actually consumed).
	HeaderReplicateNext = "X-Replicate-Next"
	// HeaderReplicateFull marks a full live-set dump: the body replaces
	// incremental catch-up and Next is the current WAL end.
	HeaderReplicateFull = "X-Replicate-Full"
	// HeaderReplicateLen is the exact body length the leader sent. A
	// truncated body that happens to end on a frame boundary is otherwise
	// indistinguishable from a complete one — and a follower that trusts
	// a boundary-truncated full dump would adopt the leader's end offset
	// while silently missing the dump's tail.
	HeaderReplicateLen = "X-Replicate-Len"
)

// maxReplicationChunk bounds one incremental replication response.
const maxReplicationChunk = 4 << 20

// Chunk is one replication response: Data holds framed records; when Full
// is set they are a complete live-set dump (offsets restart at Next under
// Gen), otherwise they are WAL bytes [From, From+len(Data)) of Gen.
type Chunk struct {
	Gen  int64
	From int64
	Next int64
	Full bool
	Data []byte
}

// ReplicationRead serves one follower poll against this log's WAL.
// gen/from are the follower's position; a mismatched generation or
// out-of-range offset downgrades to a full dump — correctness never
// depends on the follower's bookkeeping, only progress does.
func (l *Log[K, V]) ReplicationRead(gen, from int64, maxBytes int) (Chunk, error) {
	if maxBytes <= 0 || maxBytes > maxReplicationChunk {
		maxBytes = maxReplicationChunk
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Chunk{}, ErrClosed
	}
	// Expose everything accepted so far: replication lag should be one
	// poll interval, not one FlushEvery batch.
	if err := l.flushLocked(); err != nil {
		return Chunk{}, err
	}
	if gen != l.walGen || from < 0 || from > l.walBytes {
		var dump bytes.Buffer
		if err := l.encodePairs(&dump, l.stageLocked()); err != nil {
			return Chunk{}, fmt.Errorf("wal: %w", err)
		}
		// The dump covers every record in the live set, which includes
		// every record in the current WAL — so the follower resumes at the
		// WAL's end, not at zero.
		return Chunk{Gen: l.walGen, From: 0, Next: l.walBytes, Full: true, Data: dump.Bytes()}, nil
	}
	end := l.walBytes
	if end > from+int64(maxBytes) {
		end = from + int64(maxBytes)
	}
	buf := make([]byte, end-from)
	if len(buf) > 0 {
		// ReadAt (pread) leaves the writer's file offset alone, and l.mu
		// excludes rotation, so the read window is stable.
		if _, err := l.wal.ReadAt(buf, from); err != nil {
			return Chunk{}, fmt.Errorf("wal: replication read: %w", err)
		}
	}
	return Chunk{Gen: l.walGen, From: from, Next: end, Data: buf}, nil
}

// ServeReplication is the leader-side HTTP handler for GET
// /v1/replicate?gen=<gen>&from=<offset>. seedd mounts it; Tailer is its
// client.
func (l *Log[K, V]) ServeReplication(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	gen, _ := strconv.ParseInt(q.Get("gen"), 10, 64)
	from, _ := strconv.ParseInt(q.Get("from"), 10, 64)
	maxBytes := 0
	if v := q.Get("max"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			maxBytes = n
		}
	}
	chunk, err := l.ReplicationRead(gen, from, maxBytes)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(HeaderReplicateGen, strconv.FormatInt(chunk.Gen, 10))
	h.Set(HeaderReplicateNext, strconv.FormatInt(chunk.Next, 10))
	h.Set(HeaderReplicateLen, strconv.Itoa(len(chunk.Data)))
	if chunk.Full {
		h.Set(HeaderReplicateFull, "1")
	}
	_, _ = w.Write(chunk.Data)
}

// TailerOptions configures a Tailer.
type TailerOptions[K comparable, V any] struct {
	// Interval is the poll period; <= 0 defaults to 200ms. A poll that
	// consumed a full chunk re-polls immediately — catch-up is bounded by
	// bandwidth, not by the poll interval.
	Interval time.Duration
	// Client is the HTTP client for polls; nil uses a 10s-timeout default.
	Client *http.Client
	// MaxBytes bounds one poll's chunk; 0 uses the server default.
	MaxBytes int
	// Apply, when non-nil, observes every record actually applied to the
	// log — seedd uses it to inject replicated evidence into the serving
	// cache so a promoted follower answers from memory.
	Apply func(k K, v V)
}

// tailerStallLimit is how many consecutive zero-progress polls (with a
// non-empty body) the Tailer tolerates before discarding its position and
// forcing a full resync.
const tailerStallLimit = 3

// Tailer replicates one peer's log into a local log by tailing its WAL
// over HTTP. Construct with NewTailer, drive with Run.
type Tailer[K comparable, V any] struct {
	source string
	into   *Log[K, V]
	// same is the instance's merge rule: it reports whether the record
	// already held under a key makes an incoming one redundant.
	same func(held, incoming V) bool
	opts TailerOptions[K, V]
	// requestID identifies this tailer's replication stream in the peer's
	// request logs (every poll carries it as X-Request-Id).
	requestID string

	mu   sync.Mutex
	gen  int64
	next int64
	// stalls counts consecutive polls that returned bytes but yielded no
	// complete valid frame; tailerStallLimit of them force a resync.
	stalls int

	polls      atomic.Int64
	applied    atomic.Int64
	duplicates atomic.Int64
	resyncs    atomic.Int64
	errors     atomic.Int64
}

// NewTailer builds a tailer that replicates from the peer named by source
// into the local log, skipping records for which same(held, incoming)
// holds. source is either a replica base URL (e.g.
// "http://127.0.0.1:8081" — the standard /v1/replicate path is appended)
// or a full replication URL carrying its own query parameters (e.g.
// ".../v1/replicate?corpus=bird" for seedd's corpus-scoped endpoint).
func NewTailer[K comparable, V any](source string, into *Log[K, V], same func(held, incoming V) bool, opts TailerOptions[K, V]) *Tailer[K, V] {
	if opts.Interval <= 0 {
		opts.Interval = 200 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 10 * time.Second}
	}
	// gen 0 never matches a real generation (they are UnixNano stamps), so
	// the first poll always receives a full dump — a fresh follower needs
	// the history, not just new bytes.
	return &Tailer[K, V]{source: source, into: into, same: same, opts: opts, requestID: "tail-" + obs.NewRequestID()}
}

// Run polls until ctx is cancelled. Transient errors (peer down, torn
// responses) are counted and retried on the next tick; the loop itself
// never gives up — a peer that died may come back, and the ring router
// owns the decision to stop caring about one.
func (t *Tailer[K, V]) Run(ctx context.Context) {
	tick := time.NewTicker(t.opts.Interval)
	defer tick.Stop()
	for {
		progress, err := t.Poll(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			t.errors.Add(1)
		}
		if progress {
			// More bytes may be waiting; drain without sleeping.
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// Poll performs one replication round trip. It reports whether it
// consumed a full chunk (meaning more data is likely waiting).
func (t *Tailer[K, V]) Poll(ctx context.Context) (progress bool, err error) {
	t.polls.Add(1)
	t.mu.Lock()
	gen, from := t.gen, t.next
	t.mu.Unlock()

	base, sep := t.source, "?"
	if strings.Contains(base, "?") {
		// The source already names an endpoint with parameters (e.g. a
		// corpus-scoped ...?corpus=bird); just extend its query.
		sep = "&"
	} else {
		base += "/v1/replicate"
	}
	url := fmt.Sprintf("%s%sgen=%d&from=%d", base, sep, gen, from)
	if t.opts.MaxBytes > 0 {
		url += fmt.Sprintf("&max=%d", t.opts.MaxBytes)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	// Each poll is its own trace; the request ID is stable per tailer so a
	// leader's request log groups one follower's whole replication stream.
	obs.Inject(req.Header, obs.NewTraceID(), "")
	req.Header.Set(obs.RequestIDHeader, t.requestID)
	resp, err := t.opts.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("wal: replication poll: peer answered %d", resp.StatusCode)
	}
	respGen, _ := strconv.ParseInt(resp.Header.Get(HeaderReplicateGen), 10, 64)
	respNext, _ := strconv.ParseInt(resp.Header.Get(HeaderReplicateNext), 10, 64)
	respLen, _ := strconv.ParseInt(resp.Header.Get(HeaderReplicateLen), 10, 64)
	full := resp.Header.Get(HeaderReplicateFull) == "1"
	// Read the body leniently: a chaos-truncated stream still yields its
	// valid prefix, and scanFrames refuses anything mid-frame.
	body, readErr := io.ReadAll(io.LimitReader(resp.Body, maxReplicationChunk+1))

	var applyErr error
	consumed := scanFrames(body, t.into.codec, func(k K, v V) error {
		applyErr = t.apply(k, v)
		return applyErr
	})
	if applyErr != nil {
		return false, applyErr
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case full:
		if readErr == nil && consumed == len(body) && int64(len(body)) == respLen {
			// Complete dump applied: adopt the leader's position wholesale.
			// The length check matters: a truncation that lands exactly on
			// a frame boundary parses cleanly but is still missing the
			// dump's tail.
			t.gen, t.next, t.stalls = respGen, respNext, 0
		}
		// An incomplete dump keeps the old (mismatched) position, so the
		// next poll fetches the whole dump again — applying a prefix twice
		// is idempotent.
		return false, readErr
	case consumed > 0:
		t.next += int64(consumed)
		t.stalls = 0
		// A chunk consumed to exactly the advertised end means we are
		// caught up; anything less means more bytes are waiting.
		return t.next < respNext || readErr != nil, readErr
	case len(body) > 0:
		// Bytes arrived but not one frame survived. Transport damage heals
		// on re-poll; a genuinely poisoned position does not — after a few
		// stalls, throw the position away and resync from a dump.
		t.stalls++
		if t.stalls >= tailerStallLimit {
			t.gen, t.next, t.stalls = 0, 0, 0
			t.resyncs.Add(1)
		}
		return false, readErr
	default:
		return false, readErr
	}
}

// apply lands one replicated record in the local log unless an identical
// one is already present. The identity check is what makes full-mesh
// topologies converge: without it every replica would re-append (and
// re-ship) every record it hears, forever.
func (t *Tailer[K, V]) apply(k K, v V) error {
	if cur, ok := t.into.Get(k); ok && t.same(cur, v) {
		t.duplicates.Add(1)
		return nil
	}
	if err := t.into.Append(k, v); err != nil {
		return err
	}
	t.applied.Add(1)
	if t.opts.Apply != nil {
		t.opts.Apply(k, v)
	}
	return nil
}

// TailerStats is the /metrics view of one replication stream.
type TailerStats struct {
	// Source is the peer base URL this tailer replicates from.
	Source string `json:"source"`
	// Gen and Next are the current stream position.
	Gen  int64 `json:"gen"`
	Next int64 `json:"next"`
	// Polls counts replication round trips; Applied counts records landed
	// in the local log; Duplicates counts records skipped because an
	// identical entry was already present.
	Polls      int64 `json:"polls"`
	Applied    int64 `json:"applied"`
	Duplicates int64 `json:"duplicates"`
	// Resyncs counts full-dump restarts forced by repeated zero-progress
	// polls; Errors counts failed polls (peer down, torn responses).
	Resyncs int64 `json:"resyncs"`
	Errors  int64 `json:"errors"`
}

// Stats snapshots the tailer's counters.
func (t *Tailer[K, V]) Stats() TailerStats {
	t.mu.Lock()
	gen, next := t.gen, t.next
	t.mu.Unlock()
	return TailerStats{
		Source:     t.source,
		Gen:        gen,
		Next:       next,
		Polls:      t.polls.Load(),
		Applied:    t.applied.Load(),
		Duplicates: t.duplicates.Load(),
		Resyncs:    t.resyncs.Load(),
		Errors:     t.errors.Load(),
	}
}

// RegisterMetrics publishes the tailer's replication counters into reg,
// named prefix + "_polls_total" and so on and labelled by the peer it
// replicates from.
func (t *Tailer[K, V]) RegisterMetrics(reg *obs.Registry, prefix string, labels ...obs.Label) {
	if reg == nil {
		return
	}
	labels = append([]obs.Label{obs.L("source", t.source)}, labels...)
	gauge := func(name, help string, get func(TailerStats) float64) {
		reg.GaugeFunc(prefix+name, help, func() float64 { return get(t.Stats()) }, labels...)
	}
	gauge("_polls_total", "Replication round trips.", func(st TailerStats) float64 { return float64(st.Polls) })
	gauge("_applied_total", "Replicated records landed locally.", func(st TailerStats) float64 { return float64(st.Applied) })
	gauge("_duplicates_total", "Replicated records already present.", func(st TailerStats) float64 { return float64(st.Duplicates) })
	gauge("_resyncs_total", "Full-dump restarts after stalled polls.", func(st TailerStats) float64 { return float64(st.Resyncs) })
	gauge("_errors_total", "Failed polls.", func(st TailerStats) float64 { return float64(st.Errors) })
}
