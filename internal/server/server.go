// Package server is SEED's online serving subsystem: the practical-usability
// half of the paper's claim, turned into a production-shaped HTTP service.
// Evidence is generated (and cached) by an evserve.Service per corpus: a
// request asks its corpus service directly, so a cache hit is answered at
// once and a miss generates on the request's own behalf (deduplicated
// against concurrent misses for the same question). Text-to-SQL
// generation and execution ride the per-database session registry and the
// SQL engine's prepared-plan cache, and the whole thing sits behind
// admission control (token-bucket rate limit + bounded in-flight
// semaphore, which is also what bounds concurrent generations) with
// per-route latency histograms exported at /metrics.
//
// The JSON API:
//
//	POST /v1/query     {"db","question"}  -> evidence, SQL, executed rows
//	POST /v1/evidence  {"db","question"}  -> evidence only
//	GET  /v1/dbs                          -> servable databases
//	GET  /v1/examples?db=&limit=          -> servable questions (for demos/load)
//	GET  /healthz                         -> liveness
//	GET  /metrics                         -> counters + latency histograms
//
// Serving is defined over corpus questions: natural-language parsing proper
// is outside the reproduction's simulation boundary, so /v1/query resolves
// the incoming question against the loaded corpus and answers exactly as
// the offline pipeline would for that example — a golden-equivalence the
// test suite asserts against experiments.Env.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/evserve"
	"repro/internal/evstore"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/qmemory"
	"repro/internal/seed"
	"repro/internal/sqlengine"
	"repro/internal/texttosql"
	"repro/internal/wal"
)

// Config assembles a Server. Corpora and Client are required; everything
// else has serving-shaped defaults.
type Config struct {
	// Corpora are the benchmarks to serve. Database names must be unique
	// across corpora.
	Corpora []*dataset.Corpus
	// Client is the LLM client backing evidence generation and the
	// text-to-SQL generator.
	Client llm.Client
	// Variant selects the SEED evidence architecture (default seed_gpt).
	Variant seed.Variant
	// Generator names the baseline generator (see GeneratorFor; default
	// codes-15b, the strongest concat-style system — the configuration
	// the paper pairs SEED with for its headline numbers).
	Generator string
	// EvidenceCache is each evidence service's cache capacity in entries;
	// 0 defaults to 4096.
	EvidenceCache int
	// BatchWindow and BatchMax are ignored. Kept for bench/ until ROADMAP
	// 1(i).
	BatchWindow time.Duration
	BatchMax    int
	// Rate is the admission token-bucket refill rate in requests/second;
	// <= 0 disables rate limiting.
	Rate float64
	// Burst is the token bucket's capacity (min 1 when Rate > 0).
	Burst int
	// MaxInFlight bounds concurrently executing requests; <= 0 disables
	// the in-flight limit.
	MaxInFlight int
	// RequestTimeout is the per-request deadline; <= 0 disables it.
	RequestTimeout time.Duration
	// StoreDir, when non-empty, makes evidence durable: each corpus gets
	// an evstore at StoreDir/<corpus>, the evidence caches are replayed
	// from it on startup (warm restart), every generation is persisted
	// write-through, and shutdown flushes the stores. Empty disables
	// persistence — the pre-durability in-memory behaviour.
	StoreDir string
	// StoreCompactEvery is the per-store WAL compaction threshold in
	// records; 0 uses the evstore default (1024), negative disables
	// automatic compaction.
	StoreCompactEvery int
	// StoreSeed is the corpus-generation seed behind the served data.
	// Each store is stamped with evstore.Manifest(corpus, StoreSeed), and
	// a store stamped differently refuses to open — evidence from another
	// generation would be served as stale cache hits.
	StoreSeed uint64
	// Peers are the base URLs of the other seedd replicas in the fleet.
	// When non-empty (requires StoreDir, and MemoryDir with Memory), the
	// server tails every peer's per-corpus evidence store — and, with
	// Memory, its query-memory store — over GET /v1/replicate and lands the
	// replicated records in its own stores, serving caches and memories —
	// so when the fleet router fails a dead peer's shard over to this
	// replica, it answers from already-shipped evidence and patterns with
	// zero LLM calls.
	Peers []string
	// ReplicateInterval is the peer WAL poll period of every replication
	// stream; <= 0 uses the wal tailer default (200ms).
	ReplicateInterval time.Duration
	// Memory enables the confidence-gated query memory: past successful
	// (question, evidence, SQL, result-fingerprint) tuples are
	// semantically matched against incoming questions, and a
	// high-confidence hit is served with zero pipeline/LLM calls (after
	// execution-judge verification, so memory can never lower EX).
	Memory bool
	// MemoryDir, when non-empty (requires Memory), makes the query
	// memory durable: each corpus gets a WAL-backed pattern store at
	// MemoryDir/<corpus>, replayed on startup and flushed on shutdown.
	MemoryDir string
	// TraceCapacity sizes the in-memory trace store: up to TraceCapacity
	// recent traces plus as many always-kept slow/error traces are
	// retained behind GET /v1/traces. 0 defaults to 256; negative
	// disables tracing entirely (requests then pay no span overhead).
	TraceCapacity int
	// SlowQueryThreshold gates the structured slow-query log and the
	// trace store's always-keep classification: requests at or over it
	// are logged with their trace ID, stage breakdown and SQL, and their
	// traces survive healthy-traffic churn. <= 0 disables both.
	SlowQueryThreshold time.Duration
	// Logger receives structured request logs; nil uses slog.Default().
	Logger *slog.Logger
}

// Server is the serving subsystem. Construct with New; a Server is safe
// for concurrent use and must be Closed to stop its evidence services.
type Server struct {
	cfg Config
	log *slog.Logger
	reg *registry

	// services, variants and stores are keyed by corpus name; variants
	// holds each service's cache namespace (evserve.CacheNamespace), and
	// stores is empty when Config.StoreDir is unset.
	services map[string]*evserve.Service
	variants map[string]string
	stores   map[string]*evstore.Store
	corpora  map[string]*dataset.Corpus

	// memories and judges are keyed by corpus name, empty unless
	// Config.Memory: the confidence-gated query memory and the execution
	// judge that verifies every memory hit and admission against gold.
	memories map[string]*qmemory.Memory
	judges   map[string]*eval.Judge

	adm    *admission
	routes map[string]*routeMetrics
	start  time.Time

	// Observability (see initObs): the shared metrics registry behind
	// Prometheus /metrics, the bounded trace store behind /v1/traces, the
	// slow-query log, and the panic counter the recovery middleware
	// increments.
	obsReg      *obs.Registry
	traces      *obs.TraceStore
	slowlog     *obs.SlowLog
	panicsTotal *obs.Counter

	// draining flips /healthz?ready to 503 while the server finishes
	// in-flight work — the router stops sending new requests here, but
	// liveness (plain /healthz) and replication stay up so peers can
	// finish tailing this replica's WAL.
	draining atomic.Bool

	// feeds serve GET /v1/replicate: the durable log of each replication
	// kind and corpus. A kind has feeds only when its store is durable
	// (StoreDir for evidence, MemoryDir for memory).
	feeds map[string]map[string]http.HandlerFunc

	// tailers replicate peer stores, one stream per kind per corpus per
	// peer; tailCancel/tailWG stop them on Close before the stores close.
	tailers    []replStream
	tailCancel context.CancelFunc
	tailWG     sync.WaitGroup

	closeOnce sync.Once
}

// Replication kinds: the values of GET /v1/replicate's kind parameter.
// Both ship a wal.Log through wal.Tailer; only the record codec and the
// owner's land hook differ.
const (
	kindEvidence = "evidence"
	kindMemory   = "memory"
)

// replStream is one peer replication stream for metrics labeling.
type replStream struct {
	kind, corpus, peer string
	tailer             interface {
		Run(ctx context.Context)
		Stats() wal.TailerStats
		RegisterMetrics(reg *obs.Registry, prefix string, labels ...obs.Label)
	}
}

// New builds the serving subsystem: one seed pipeline + evidence service
// per corpus, one generator per corpus shared by its sessions, and the
// admission controller. Spider-style corpora that ship no description
// files are described up front (the paper's §IV-E3 pipeline), exactly as
// the offline experiment drivers do.
func New(cfg Config) (*Server, error) {
	if len(cfg.Corpora) == 0 {
		return nil, errors.New("server: Config.Corpora is required")
	}
	if cfg.Client == nil {
		return nil, errors.New("server: Config.Client is required")
	}
	if cfg.Variant == "" {
		cfg.Variant = seed.VariantGPT
	}
	if cfg.Generator == "" {
		cfg.Generator = "codes-15b"
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}

	seedCfg, err := seedConfigFor(cfg.Variant)
	if err != nil {
		return nil, err
	}

	s := &Server{
		cfg:      cfg,
		log:      log,
		services: make(map[string]*evserve.Service),
		variants: make(map[string]string),
		stores:   make(map[string]*evstore.Store),
		corpora:  make(map[string]*dataset.Corpus),
		memories: make(map[string]*qmemory.Memory),
		judges:   make(map[string]*eval.Judge),
		feeds:    map[string]map[string]http.HandlerFunc{kindEvidence: {}, kindMemory: {}},
		adm:      newAdmission(cfg.Rate, cfg.Burst, cfg.MaxInFlight),
		routes:   make(map[string]*routeMetrics),
		start:    time.Now(),
	}
	if cfg.MemoryDir != "" && !cfg.Memory {
		return nil, errors.New("server: Config.MemoryDir requires Config.Memory")
	}
	if len(cfg.Peers) > 0 && cfg.StoreDir == "" {
		return nil, errors.New("server: Config.Peers requires Config.StoreDir — replication ships durable stores, not caches")
	}
	if len(cfg.Peers) > 0 && cfg.Memory && cfg.MemoryDir == "" {
		return nil, errors.New("server: Config.Peers with Config.Memory requires Config.MemoryDir — replication ships durable stores, not caches")
	}
	gens := make(map[string]texttosql.Generator, len(cfg.Corpora))
	for _, corpus := range cfg.Corpora {
		if _, dup := s.corpora[corpus.Name]; dup {
			s.Close() // close the services and stores opened for earlier corpora
			return nil, fmt.Errorf("server: corpus %q listed twice", corpus.Name)
		}
		s.corpora[corpus.Name] = corpus
		p := seed.New(seedCfg, cfg.Client, corpus)
		variant := evserve.CacheNamespace(string(cfg.Variant), corpus.Name)
		if corpus.Name == "spider" {
			// Spider ships no description files; generate them first, as
			// Env.SpiderSeedEvidence does.
			for _, db := range corpus.DBs {
				if err := p.DescribeDatabase(db); err != nil {
					s.Close() // close the services opened for earlier corpora
					return nil, fmt.Errorf("server: describing spider DB %s: %w", db.Name, err)
				}
			}
		}
		var store *evstore.Store
		if cfg.StoreDir != "" {
			store, err = evstore.Open(filepath.Join(cfg.StoreDir, corpus.Name), evstore.Options{
				CompactEvery: cfg.StoreCompactEvery,
				Manifest:     evstore.Manifest(corpus.Name, cfg.StoreSeed),
			})
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("server: opening evidence store for %s: %w", corpus.Name, err)
			}
			s.stores[corpus.Name] = store
			s.feeds[kindEvidence][corpus.Name] = store.ServeReplication
		}
		svcOpts := evserve.Options{
			Variant:        variant,
			GenerateTraced: p.GenerateEvidenceTraced,
			CacheCapacity:  cfg.EvidenceCache,
		}
		if store != nil {
			svcOpts.Store = store
		}
		svc := evserve.New(svcOpts)
		s.services[corpus.Name] = svc
		s.variants[corpus.Name] = variant
		gen, err := GeneratorFor(cfg.Generator, cfg.Client)
		if err != nil {
			s.Close() // svc is already registered; Close closes every service so far
			return nil, err
		}
		gens[corpus.Name] = gen
		if cfg.Memory {
			var mopts qmemory.Options
			if cfg.MemoryDir != "" {
				mstore, err := qmemory.OpenStore(filepath.Join(cfg.MemoryDir, corpus.Name), wal.Options{
					Manifest: evstore.Manifest(corpus.Name, cfg.StoreSeed),
				})
				if err != nil {
					s.Close()
					return nil, fmt.Errorf("server: opening query-memory store for %s: %w", corpus.Name, err)
				}
				mopts.Store = mstore
				s.feeds[kindMemory][corpus.Name] = mstore.ServeReplication
			}
			mem, err := qmemory.New(mopts)
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("server: building query memory for %s: %w", corpus.Name, err)
			}
			s.memories[corpus.Name] = mem
			s.judges[corpus.Name] = eval.NewJudge()
		}
	}
	reg, err := newRegistry(cfg.Corpora, gens)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.reg = reg

	if len(cfg.Peers) > 0 {
		var tailCtx context.Context
		tailCtx, s.tailCancel = context.WithCancel(context.Background())
		opts := wal.TailerOptions{Interval: cfg.ReplicateInterval}
		for _, peer := range cfg.Peers {
			src := func(kind, corpus string) string {
				return peer + pathReplicate + "?corpus=" + url.QueryEscape(corpus) + "&kind=" + kind
			}
			for name, store := range s.stores {
				// Replicated evidence goes straight into the serving cache:
				// a shard failed over to this replica is answered from
				// memory, not just from disk on the next restart.
				svc := s.services[name]
				inject := func(k evserve.Key, e evserve.Entry) { svc.Inject(k, e) }
				s.tail(tailCtx, replStream{kindEvidence, name, peer, evstore.NewTailer(src(kindEvidence, name), store, inject, opts)})
			}
			// Query memories ship like evidence, so a shard failed over to
			// this replica is served from memory on the first paraphrase,
			// not relearned.
			for name, mem := range s.memories {
				s.tail(tailCtx, replStream{kindMemory, name, peer, qmemory.NewTailer(src(kindMemory, name), mem, opts)})
			}
		}
	}

	s.initObs()
	for _, route := range []string{
		pathQuery, pathEvidence, pathDBs, pathExamples, pathReplicate, pathHealthz, pathMetrics, pathTraces,
	} {
		s.routes[route] = newRouteMetrics(s.obsReg, route)
	}
	return s, nil
}

// tail starts one peer replication stream; Close stops it.
func (s *Server) tail(ctx context.Context, rs replStream) {
	s.tailers = append(s.tailers, rs)
	s.tailWG.Add(1)
	go func() {
		defer s.tailWG.Done()
		rs.tailer.Run(ctx)
	}()
}

// Route names; also the keys of the /metrics routes map.
const (
	pathQuery     = "/v1/query"
	pathEvidence  = "/v1/evidence"
	pathDBs       = "/v1/dbs"
	pathExamples  = "/v1/examples"
	pathReplicate = "/v1/replicate"
	pathTraces    = "/v1/traces"
	pathHealthz   = "/healthz"
	pathMetrics   = "/metrics"
)

// Handler returns the server's HTTP handler with all middleware applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST "+pathQuery, s.wrap(pathQuery, true, s.handleQuery))
	mux.Handle("POST "+pathEvidence, s.wrap(pathEvidence, true, s.handleEvidence))
	mux.Handle("GET "+pathDBs, s.wrap(pathDBs, false, s.handleDBs))
	mux.Handle("GET "+pathExamples, s.wrap(pathExamples, false, s.handleExamples))
	// Replication skips admission: a draining or overloaded replica must
	// still let its followers catch up on its evidence and memory logs.
	mux.Handle("GET "+pathReplicate, s.wrap(pathReplicate, false, s.handleReplicate))
	// Trace retrieval skips admission for the same reason /metrics does:
	// the traces explaining an overload must be readable during one.
	mux.Handle("GET "+pathTraces, s.wrap(pathTraces, false, s.handleTraces))
	mux.Handle("GET "+pathTraces+"/{id}", s.wrap(pathTraces, false, s.handleTraceByID))
	mux.Handle("GET "+pathHealthz, s.wrap(pathHealthz, false, s.handleHealthz))
	mux.Handle("GET "+pathMetrics, s.wrap(pathMetrics, false, s.handleMetrics))
	return mux
}

// SetDraining flips the readiness verdict: while draining, GET
// /healthz?ready answers 503 (the fleet router routes around this
// replica) but liveness, serving of in-flight work, and replication all
// continue. seedd sets it on SIGTERM, waits a grace period for routers to
// notice, then shuts the listener down.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Close stops the peer replication tailers, closes the evidence services
// (each waits for its running generations, then flushes its store), and
// closes the evidence stores. It is idempotent, and safe to race with
// in-flight requests: they fail with evserve.ErrClosed rather than hang.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		// Tailers first: they append to the stores, which close below.
		if s.tailCancel != nil {
			s.tailCancel()
		}
		s.tailWG.Wait()
		for _, svc := range s.services {
			svc.Close()
		}
		for name, st := range s.stores {
			if err := st.Close(); err != nil {
				s.log.Warn("closing evidence store", "corpus", name, "err", err)
			}
		}
		for name, mem := range s.memories {
			if err := mem.Close(); err != nil {
				s.log.Warn("closing query memory", "corpus", name, "err", err)
			}
		}
	})
}

// answer is what a /v1/query tier hands back: everything the response
// needs besides the request and the example. A declined memory answer
// carries only its timing.
type answer struct {
	source     string
	sql        string
	evidence   string
	trace      *pipeline.Trace
	cacheHit   bool
	confidence float64
	res        *sqlengine.Result
	timing     api.QueryTiming
}

// handleQuery answers from one of two tiers, in a fixed order: the query
// memory, then — only if memory is off or declined — evidence plus
// generation. Whichever answers, the response is written here, once.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.reg.Session(req.DB)
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("unknown database %q (GET /v1/dbs lists them)", req.DB))
		return
	}
	e, ok := sess.Lookup(req.Question, req.ID)
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf(
			"question not in the loaded corpus for %q (GET /v1/examples?db=%s lists servable questions)",
			req.DB, req.DB))
		return
	}

	root := obs.CurrentSpan(r.Context())
	if root != nil {
		root.SetStr("db", e.DB)
		root.SetStr("example_id", e.ID)
	}

	var a answer
	hit := false
	if s.memories[sess.Corpus] != nil {
		a, hit = s.memoryTier(r.Context(), sess, e)
	}
	if hit {
		if root != nil {
			root.SetStr("sql", a.sql)
		}
	} else if a, ok = s.pipelineTier(w, r, sess, e, a.timing); !ok {
		return // the pipeline tier wrote its error
	}

	resp := api.QueryResponse{
		DB:               e.DB,
		ExampleID:        e.ID,
		Question:         e.Question,
		Source:           a.source,
		MemoryConfidence: a.confidence,
		Evidence:         a.evidence,
		EvidenceTrace:    a.trace,
		EvidenceCacheHit: a.cacheHit,
		SQL:              a.sql,
		Cost:             a.res.Cost,
		Timing:           a.timing,
	}
	writeQueryResponse(w, &resp, a.res.Rows, req.MaxRows)
}

// memoryTier answers with a stored pattern's SQL once it verifies: the
// SQL still executes, its result fingerprint matches the stored one, and
// the judge scores it correct. A rejected candidate is skipped and the
// memory's next one tried, up to the budget qmemory.Cursor keeps, so a
// look-alike outscoring the right pattern costs one engine execution, not
// a pipeline run. On a decline the memory.lookup span names the reason,
// and the answer carries only the lookup-plus-verification time.
func (s *Server) memoryTier(ctx context.Context, sess *Session, e dataset.Example) (answer, bool) {
	mem := s.memories[sess.Corpus]
	start := time.Now()
	span := obs.StartSpan(ctx, "memory.lookup")
	defer span.End()

	var (
		hit      qmemory.Hit
		res      *sqlengine.Result
		attempts int
	)
	// decline is why the last offered candidate was rejected, or
	// "no_candidate" while none was offered; empty once one verifies.
	decline := "no_candidate"
	cands := mem.Cursor(e.DB, e.Question)
	for decline != "" {
		var ok bool
		if hit, ok = cands.Next(); !ok {
			break
		}
		attempts++

		stmt, _, err := prepareRead(sess, hit.SQL)
		if err != nil {
			// A stored pattern that would write, or no longer parses or
			// binds, is poison: demote it and rerank.
			decline = "unparsable"
			if errors.Is(err, errNotSelect) {
				decline = "not_select"
			}
			mem.Failure(hit.PatternID)
			continue
		}
		if res, err = stmt.Exec(); err != nil {
			decline = "exec_error"
			mem.Failure(hit.PatternID)
			continue
		}
		// Verification is the accuracy floor: the fingerprint pins the
		// result the pattern was admitted with, and the judge pins
		// execution accuracy against gold (gold results are cached per
		// example, so steady-state verification costs one extra engine
		// execution, not two).
		switch {
		case qmemory.Fingerprint(res.Rows) != hit.Fingerprint:
			decline = "fingerprint"
		case !s.judgedCorrect(sess, e, res):
			decline = "judge"
		default:
			decline = ""
		}
		// A pattern failing a question it previously answered (similarity
		// 1 is the exact-phrasing fast path) is poison: demote it. A
		// semantic look-alike failing a NEW question is a retrieval error,
		// not pattern damage — skip it for this request and leave its
		// confidence (and its own questions) alone.
		if decline != "" && hit.Similarity >= 1 {
			mem.Failure(hit.PatternID)
		}
	}
	span.SetInt("attempts", attempts)
	if decline != "" {
		span.SetStr("match", "none")
		span.SetStr("decline", decline)
		return answer{timing: api.QueryTiming{MemoryMicros: time.Since(start).Microseconds()}}, false
	}
	// match says which retrieval path answered: repeat traffic ("exact",
	// a stored phrasing) or paraphrase traffic ("semantic").
	match := "semantic"
	if hit.Similarity >= 1 {
		match = "exact"
	}
	span.SetStr("match", match)
	span.SetStr("pattern", hit.PatternID)
	span.SetFloat("confidence", hit.Confidence)
	span.SetFloat("similarity", hit.Similarity)
	// Lookup, verification and execution are one fused phase: the engine's
	// physical path rides on its span, and its time is the whole answer's.
	span.SetStr("path", res.Path)
	mem.Success(hit.PatternID, e.Question)
	return answer{
		source:     api.SourceMemory,
		sql:        hit.SQL,
		evidence:   hit.Evidence,
		confidence: hit.Confidence,
		res:        res,
		timing:     api.QueryTiming{MemoryMicros: time.Since(start).Microseconds()},
	}, true
}

// stageSpanNames are SEED's stage spans' names, joined once.
var stageSpanNames = map[string]string{
	seed.StageKeywords: "stage:" + seed.StageKeywords,
	seed.StageSamples:  "stage:" + seed.StageSamples,
	seed.StageSchema:   "stage:" + seed.StageSchema,
	seed.StageShots:    "stage:" + seed.StageShots,
	seed.StageGenerate: "stage:" + seed.StageGenerate,
}

// pipelineTier answers with SEED evidence, text-to-SQL generation and
// execution, adding its phases to timing (which holds the memory tier's
// time, if any). It writes its own error responses and reports false
// after one. A judged-correct answer becomes a memory pattern: the next
// paraphrase of this intent can skip this tier entirely.
func (s *Server) pipelineTier(w http.ResponseWriter, r *http.Request, sess *Session, e dataset.Example, timing api.QueryTiming) (answer, bool) {
	evStart := time.Now()
	evSpan := obs.StartSpan(r.Context(), "evidence")
	ev, err := s.services[sess.Corpus].GenerateTraced(obs.ContextWithSpan(r.Context(), evSpan), e.DB, e.Question)
	timing.EvidenceMicros = time.Since(evStart).Microseconds()
	if err != nil {
		evSpan.Fail(err)
		writeUpstreamError(w, r, "evidence generation", err)
		return answer{}, false
	}
	evSpan.SetBool("cache_hit", ev.CacheHit)
	// A request that waited for a generation (its own or a single-flight
	// leader's) gets the pipeline's stages as child spans: the generation
	// runs under no request's context, so no per-request span can flow
	// into it, but ev.Trace carries the stage breakdown, anchored here at
	// this request's evidence phase start. A cache hit ran no stage, so it
	// gets none; the response's evidence_trace still says where its
	// evidence came from.
	if ev.Trace != nil && !ev.CacheHit {
		for _, st := range ev.Trace.Stages {
			name, ok := stageSpanNames[st.Stage]
			if !ok {
				name = "stage:" + st.Stage
			}
			sp := evSpan.Child(name,
				evStart.Add(time.Duration(st.StartMicros)*time.Microsecond),
				time.Duration(st.WallMicros)*time.Microsecond)
			if st.Tokens > 0 {
				sp.SetInt("tokens", st.Tokens)
			}
		}
	}
	evSpan.End()

	genStart := time.Now()
	genSpan := obs.StartSpan(r.Context(), "generate")
	sql, err := sess.Gen.Generate(texttosql.Task{Example: e, DB: sess.DB, Evidence: ev.Text})
	timing.GenerateMicros = time.Since(genStart).Microseconds()
	if err != nil {
		genSpan.Fail(err)
		writeError(w, http.StatusInternalServerError, api.CodeInternal, fmt.Sprintf("generation failed: %v", err))
		return answer{}, false
	}
	genSpan.End()
	// Named before prepare, so the slow-query log names SQL that fails to
	// prepare.
	if root := obs.CurrentSpan(r.Context()); root != nil {
		root.SetStr("sql", sql)
	}

	prepStart := time.Now()
	prepSpan := obs.StartSpan(r.Context(), "sqlengine.prepare")
	stmt, planHit, err := prepareRead(sess, sql)
	timing.PrepareMicros = time.Since(prepStart).Microseconds()
	if err != nil {
		prepSpan.Fail(err)
		if errors.Is(err, errNotSelect) {
			writeError(w, http.StatusUnprocessableEntity, api.CodeReadOnly, "generated SQL is not a SELECT: a served database is only read")
		} else {
			writeError(w, http.StatusUnprocessableEntity, api.CodeUnprocessable, fmt.Sprintf("generated SQL does not prepare: %v", err))
		}
		return answer{}, false
	}
	prepSpan.SetBool("plan_cache_hit", planHit)
	prepSpan.End()

	execStart := time.Now()
	execSpan := obs.StartSpan(r.Context(), "sqlengine.execute")
	res, err := stmt.Exec()
	timing.ExecuteMicros = time.Since(execStart).Microseconds()
	if err != nil {
		execSpan.Fail(err)
		writeError(w, http.StatusUnprocessableEntity, api.CodeUnprocessable, fmt.Sprintf("generated SQL does not execute: %v", err))
		return answer{}, false
	}
	execSpan.SetInt64("cost", res.Cost)
	execSpan.SetInt64("batches", res.Batches)
	execSpan.SetStr("path", res.Path)
	if res.Rows != nil {
		execSpan.SetInt("rows", res.Rows.Len())
	}
	execSpan.End()

	if mem := s.memories[sess.Corpus]; mem != nil && s.judgedCorrect(sess, e, res) {
		mem.Admit(e.DB, e.Question, ev.Text, sql, qmemory.Fingerprint(res.Rows))
	}
	source := api.SourceGenerated
	if ev.CacheHit {
		source = api.SourceCache
	}
	return answer{
		source:   source,
		sql:      sql,
		evidence: ev.Text,
		trace:    ev.Trace,
		cacheHit: ev.CacheHit,
		res:      res,
		timing:   timing,
	}, true
}

// errNotSelect is prepareRead's refusal of SQL that is not a read.
var errNotSelect = errors.New("server: not a SELECT")

// prepareRead prepares sql on the session's database through the plan
// cache, reporting a plan-cache hit, and refuses anything but a SELECT
// before it is prepared: a served database is only ever read, whichever
// tier's SQL it runs. Both tiers prepare here.
func prepareRead(sess *Session, sql string) (*sqlengine.Stmt, bool, error) {
	if !sqlengine.IsSelect(sql) {
		return nil, false, errNotSelect
	}
	return sess.DB.Engine.PrepareCached(sql)
}

// judgedCorrect scores res against the example's gold result with the
// corpus's execution judge. It is the request path's only use of gold
// (ROADMAP 5(a)): memory verification and memory admission both ask here.
func (s *Server) judgedCorrect(sess *Session, e dataset.Example, res *sqlengine.Result) bool {
	return s.judges[sess.Corpus].ScoreRows(sess.DB, e, res).Correct
}

func (s *Server) handleEvidence(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.reg.Session(req.DB)
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("unknown database %q (GET /v1/dbs lists them)", req.DB))
		return
	}
	question := req.Question
	if req.ID != "" {
		if e, ok := sess.Lookup("", req.ID); ok {
			question = e.Question
		}
	}
	if question == "" {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "question (or a known id) is required")
		return
	}
	start := time.Now()
	// Evidence generation works for arbitrary question text — the SEED
	// pipeline needs only the question and the database — so unlike
	// /v1/query this endpoint is not restricted to corpus questions.
	ev, err := s.services[sess.Corpus].GenerateTraced(r.Context(), req.DB, question)
	if err != nil {
		writeUpstreamError(w, r, "evidence generation", err)
		return
	}
	writeJSON(w, http.StatusOK, api.EvidenceResponse{
		DB:       req.DB,
		Question: question,
		Variant:  s.variants[sess.Corpus],
		Evidence: ev.Text,
		Trace:    ev.Trace,
		CacheHit: ev.CacheHit,
		Micros:   time.Since(start).Microseconds(),
	})
}

func (s *Server) handleDBs(w http.ResponseWriter, r *http.Request) {
	out := api.DBsResponse{DBs: make([]api.DBInfo, 0, len(s.reg.DBNames()))}
	for _, name := range s.reg.DBNames() {
		// Info serves the listing from static metadata so /v1/dbs never
		// forces every session (and its retriever warm-up) to build.
		info, _ := s.reg.Info(name)
		out.DBs = append(out.DBs, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleExamples(w http.ResponseWriter, r *http.Request) {
	db := r.URL.Query().Get("db")
	if db == "" {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "db query parameter is required")
		return
	}
	limit := 10
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	// Listings come from static registry data — like /v1/dbs, this route
	// never forces a session (and its retriever warm-up) to build.
	examples, ok := s.reg.Examples(db, limit)
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("unknown database %q", db))
		return
	}
	info, _ := s.reg.Info(db)
	out := api.ExamplesResponse{DB: db, Total: info.Examples, Examples: make([]api.ExampleInfo, len(examples))}
	for i, e := range examples {
		out.Examples[i] = api.ExampleInfo{ID: e.ID, Question: e.Question}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleReplicate serves one corpus's log of one kind to a fleet
// follower: GET /v1/replicate?corpus=<name>&kind=<evidence|memory>&gen=<gen>&from=<offset>.
// kind defaults to evidence, and with exactly one corpus the corpus
// parameter may be omitted. A kind this replica keeps no durable log of
// answers 404.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	kind := cmp.Or(q.Get("kind"), kindEvidence)
	feeds := s.feeds[kind]
	if len(feeds) == 0 {
		writeError(w, http.StatusNotFound, api.CodeNotFound,
			fmt.Sprintf("no durable %q log to replicate (evidence needs -store-dir, memory -memory-dir)", kind))
		return
	}
	corpus := q.Get("corpus")
	if corpus == "" && len(feeds) == 1 {
		for name := range feeds {
			corpus = name
		}
	}
	feed, ok := feeds[corpus]
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("unknown corpus %q", corpus))
		return
	}
	feed(w, r)
}

// handleHealthz is the liveness/readiness split: a plain GET /healthz
// answers 200 while the process serves at all; GET /healthz?ready answers
// 503 while draining, so a fleet router takes the replica out of rotation
// before its listener goes away.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	if r.URL.Query().Has("ready") && draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":         "draining",
			"uptime_seconds": time.Since(s.start).Seconds(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":          "ok",
		"draining":        draining,
		"uptime_seconds":  time.Since(s.start).Seconds(),
		"databases":       len(s.reg.DBNames()),
		"sessions_loaded": s.reg.Loaded(),
	})
}

// MetricsSnapshot is an in-process snapshot of the server's counters;
// GET /metrics exports them as Prometheus text.
type MetricsSnapshot struct {
	Admission AdmissionStats              `json:"admission"`
	Evidence  map[string]EvidenceSnapshot `json:"evidence"`
	// PlanCache aggregates the SQL engines' prepared-plan cache counters
	// over each corpus's databases.
	PlanCache map[string]sqlengine.PlanCacheStats `json:"plan_cache"`
	// Batcher is never filled. Kept for bench/ until ROADMAP 1(i).
	Batcher map[string]BatcherStats `json:"-"`
	// Store holds the per-corpus durable evidence store counters
	// (records, WAL size, compactions, replay time, snapshot age);
	// omitted when the server runs without -store-dir.
	Store map[string]evstore.Stats `json:"store,omitempty"`
	// Replication holds one evidence tailer snapshot per peer stream,
	// keyed "corpus<-peerURL"; omitted outside a fleet (-peers unset).
	Replication map[string]wal.TailerStats `json:"replication,omitempty"`
	// Memory holds the per-corpus query-memory counters (patterns,
	// lookups, hits, demotions, confidence distribution); omitted when
	// the server runs without -memory.
	Memory map[string]qmemory.Stats `json:"memory,omitempty"`
	// MemoryReplication is Replication for the query memory's streams;
	// omitted outside a fleet or without -memory.
	MemoryReplication map[string]wal.TailerStats `json:"memory_replication,omitempty"`
	// Draining reports the shutdown drain state (see SetDraining).
	Draining bool `json:"draining,omitempty"`
}

// BatcherStats is always zero. Kept for bench/ until ROADMAP 1(i).
type BatcherStats struct {
	Batches         int64
	BatchedRequests int64
	SizeFlushes     int64
	WindowFlushes   int64
}

// EvidenceSnapshot is the snapshot of one corpus evidence service.
type EvidenceSnapshot struct {
	Variant     string `json:"variant"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	Entries     int    `json:"cache_entries"`
	Dedups      int64  `json:"dedups"`
	Generations int64  `json:"generations"`
	Failures    int64  `json:"failures"`
	// Restored counts cache entries replayed from the durable store at
	// startup; StoreAppends/StoreErrors count write-through persistence
	// outcomes. All zero when the server runs without a store.
	Restored     int64 `json:"restored,omitempty"`
	StoreAppends int64 `json:"store_appends,omitempty"`
	StoreErrors  int64 `json:"store_errors,omitempty"`
	// Injected counts cache entries landed by fleet replication; zero
	// outside a fleet.
	Injected int64 `json:"injected,omitempty"`
	// Stages aggregates per-stage pipeline cost across every traced
	// generation: runs, wall time and tokens per pipeline stage.
	Stages []pipeline.StageAgg `json:"stages,omitempty"`
}

// Metrics snapshots every counter the server exports.
func (s *Server) Metrics() MetricsSnapshot {
	snap := MetricsSnapshot{
		Admission: s.adm.stats(),
		Evidence:  make(map[string]EvidenceSnapshot, len(s.services)),
		PlanCache: make(map[string]sqlengine.PlanCacheStats, len(s.corpora)),
	}
	for name, svc := range s.services {
		st := svc.Stats()
		es := EvidenceSnapshot{
			Variant:      st.Variant,
			CacheHits:    st.Cache.Hits,
			CacheMisses:  st.Cache.Misses,
			Entries:      st.Cache.Entries,
			Dedups:       st.Dedups,
			Generations:  st.Generations,
			Failures:     st.Failures,
			Restored:     st.Restored,
			StoreAppends: st.StoreAppends,
			StoreErrors:  st.StoreErrors,
			Injected:     st.Injected,
			Stages:       st.Stages,
		}
		snap.Evidence[name] = es
	}
	if len(s.stores) > 0 {
		snap.Store = make(map[string]evstore.Stats, len(s.stores))
		for name, st := range s.stores {
			snap.Store[name] = st.Stats()
		}
	}
	for _, rs := range s.tailers {
		streams := &snap.Replication
		if rs.kind == kindMemory {
			streams = &snap.MemoryReplication
		}
		if *streams == nil {
			*streams = make(map[string]wal.TailerStats)
		}
		(*streams)[rs.corpus+"<-"+rs.peer] = rs.tailer.Stats()
	}
	if len(s.memories) > 0 {
		snap.Memory = make(map[string]qmemory.Stats, len(s.memories))
		for name, mem := range s.memories {
			snap.Memory[name] = mem.Stats()
		}
	}
	snap.Draining = s.draining.Load()
	for name, corpus := range s.corpora {
		snap.PlanCache[name] = planCacheStats(corpus)
	}
	return snap
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obsReg.WritePrometheus(w)
}

// maxRequestBody bounds a request body. An api.QueryRequest is a database
// name, a question and two small fields, so 1 MiB is far above any real one.
const maxRequestBody = 1 << 20

// decodeBody parses a JSON request body, answering 413 when it exceeds
// maxRequestBody and 400 on malformed input.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, api.CodeBadRequest, fmt.Sprintf("request body exceeds %d bytes", maxRequestBody))
			return false
		}
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("malformed request body: %v", err))
		return false
	}
	return true
}

// writeUpstreamError maps evidence-path failures to HTTP statuses:
// service shutdown to 503, a client that went away to 499 (its
// cancellation is not a server fault and must stay out of 5xx
// accounting), a blown per-request deadline to 504, anything else to 502.
func writeUpstreamError(w http.ResponseWriter, r *http.Request, op string, err error) {
	ctxErr := r.Context().Err()
	switch {
	case errors.Is(err, evserve.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, api.CodeUnavailable, op+" unavailable: server shutting down")
	case errors.Is(ctxErr, context.Canceled):
		writeError(w, api.StatusClientClosedRequest, api.CodeClientClosed, op+" abandoned: client closed request")
	case ctxErr != nil:
		writeError(w, http.StatusGatewayTimeout, api.CodeUpstreamTimeout, op+" deadline exceeded")
	default:
		writeError(w, http.StatusBadGateway, api.CodeUpstreamError, fmt.Sprintf("%s failed: %v", op, err))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	api.WriteJSON(w, status, v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	api.WriteError(w, status, code, msg)
}
