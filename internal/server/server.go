// Package server is SEED's online serving subsystem: the practical-usability
// half of the paper's claim, turned into a production-shaped HTTP service.
// Evidence is generated (and cached) by an evserve.Service per corpus,
// concurrent evidence cache misses are coalesced by a micro-batcher (hits
// are answered at once), text-to-SQL generation and execution ride the
// per-database session registry and the SQL engine's prepared-plan cache,
// and the whole thing sits behind admission control (token-bucket rate
// limit + bounded in-flight semaphore) with per-route latency histograms
// exported at /metrics.
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
	// EvidenceWorkers bounds each corpus evidence service's worker pool;
	// 0 defaults to GOMAXPROCS.
	EvidenceWorkers int
	// EvidenceCache is each evidence service's cache capacity in entries;
	// 0 defaults to 4096.
	EvidenceCache int
	// BatchWindow is how long the micro-batcher holds the first cache
	// miss of a batch waiting for company (cache hits never wait);
	// <= 0 disables batching.
	BatchWindow time.Duration
	// BatchMax flushes a batch early once it reaches this size; <= 1
	// disables batching.
	BatchMax int
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
	// When non-empty (requires StoreDir), the server tails every peer's
	// per-corpus evidence store over GET /v1/replicate and injects the
	// replicated entries into its own stores and serving caches — so when
	// the fleet router fails a dead peer's shard over to this replica, it
	// answers from already-shipped evidence with zero LLM calls.
	Peers []string
	// ReplicateInterval is the peer WAL poll period; <= 0 uses the
	// evstore tailer default (200ms).
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
	// MemoryOptions tunes the memory's thresholds and retrieval knobs;
	// zero fields take qmemory defaults. The Store field is managed by
	// the server (see MemoryDir) and ignored here.
	MemoryOptions qmemory.Options
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
// for concurrent use and must be Closed to stop its evidence worker pools.
type Server struct {
	cfg Config
	log *slog.Logger
	reg *registry

	// services, batchers and stores are keyed by corpus name; stores is
	// empty when Config.StoreDir is unset.
	services map[string]*evserve.Service
	batchers map[string]*batcher
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

	// tailers replicate peer evidence stores and memTailers peer query
	// memories (one stream per corpus per peer); tailCancel/tailWG stop
	// them on Close before the stores close.
	tailers    []replStream
	memTailers []memStream
	tailCancel context.CancelFunc
	tailWG     sync.WaitGroup

	closeOnce sync.Once
}

// replStream is one peer replication stream for metrics labeling.
type replStream struct {
	corpus string
	peer   string
	tailer *evstore.Tailer
}

// memStream is one peer query-memory sync stream for metrics labeling.
type memStream struct {
	corpus string
	peer   string
	tailer *qmemory.Tailer
}

// New builds the serving subsystem: one seed pipeline + evidence service +
// micro-batcher per corpus, one generator per corpus shared by its
// sessions, and the admission controller. Spider-style corpora that ship
// no description files are described up front (the paper's §IV-E3
// pipeline), exactly as the offline experiment drivers do.
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
		batchers: make(map[string]*batcher),
		stores:   make(map[string]*evstore.Store),
		corpora:  make(map[string]*dataset.Corpus),
		memories: make(map[string]*qmemory.Memory),
		judges:   make(map[string]*eval.Judge),
		adm:      newAdmission(cfg.Rate, cfg.Burst, cfg.MaxInFlight),
		routes:   make(map[string]*routeMetrics),
		start:    time.Now(),
	}
	if cfg.MemoryDir != "" && !cfg.Memory {
		return nil, errors.New("server: Config.MemoryDir requires Config.Memory")
	}
	gens := make(map[string]texttosql.Generator, len(cfg.Corpora))
	for _, corpus := range cfg.Corpora {
		if _, dup := s.corpora[corpus.Name]; dup {
			s.Close() // stop pools and stores already started for earlier corpora
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
					s.Close() // stop worker pools already started for earlier corpora
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
		}
		svcOpts := evserve.Options{
			Variant:        variant,
			GenerateTraced: p.GenerateEvidenceTraced,
			Workers:        cfg.EvidenceWorkers,
			CacheCapacity:  cfg.EvidenceCache,
		}
		if store != nil {
			svcOpts.Store = store
		}
		svc := evserve.New(svcOpts)
		s.services[corpus.Name] = svc
		s.batchers[corpus.Name] = newBatcher(svc, cfg.BatchWindow, cfg.BatchMax)
		gen, err := GeneratorFor(cfg.Generator, cfg.Client)
		if err != nil {
			s.Close() // svc is already registered; Close stops every pool so far
			return nil, err
		}
		gens[corpus.Name] = gen
		if cfg.Memory {
			mopts := cfg.MemoryOptions
			mopts.Store = nil
			if cfg.MemoryDir != "" {
				mstore, err := qmemory.OpenStore(filepath.Join(cfg.MemoryDir, corpus.Name), wal.Options{
					Manifest: evstore.Manifest(corpus.Name, cfg.StoreSeed),
				})
				if err != nil {
					s.Close()
					return nil, fmt.Errorf("server: opening query-memory store for %s: %w", corpus.Name, err)
				}
				mopts.Store = mstore
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
		if cfg.StoreDir == "" {
			s.Close()
			return nil, errors.New("server: Config.Peers requires Config.StoreDir — replication ships durable stores, not caches")
		}
		var tailCtx context.Context
		tailCtx, s.tailCancel = context.WithCancel(context.Background())
		// Query memories ship to peers like evidence: every replica tails
		// every peer's pattern set, so a shard failed over to this replica
		// is served from memory on the first paraphrase, not relearned.
		for name, mem := range s.memories {
			for _, peer := range cfg.Peers {
				src := peer + pathMemSync + "?corpus=" + url.QueryEscape(name)
				mt := qmemory.NewTailer(src, mem, qmemory.TailerOptions{Interval: cfg.ReplicateInterval})
				s.memTailers = append(s.memTailers, memStream{corpus: name, peer: peer, tailer: mt})
				s.tailWG.Add(1)
				go func() {
					defer s.tailWG.Done()
					mt.Run(tailCtx)
				}()
			}
		}
		for name, store := range s.stores {
			svc := s.services[name]
			for _, peer := range cfg.Peers {
				src := peer + pathReplicate + "?corpus=" + url.QueryEscape(name)
				tl := evstore.NewTailer(src, store, evstore.TailerOptions{
					Interval: cfg.ReplicateInterval,
					// Replicated evidence goes straight into the serving
					// cache: a shard failed over to this replica is answered
					// from memory, not just from disk on the next restart.
					Apply: func(k evserve.Key, e evserve.Entry) { svc.Inject(k, e) },
				})
				s.tailers = append(s.tailers, replStream{corpus: name, peer: peer, tailer: tl})
				s.tailWG.Add(1)
				go func() {
					defer s.tailWG.Done()
					tl.Run(tailCtx)
				}()
			}
		}
	}

	s.initObs()
	for _, route := range []string{
		pathQuery, pathEvidence, pathDBs, pathExamples, pathReplicate, pathMemSync, pathHealthz, pathMetrics, pathTraces,
	} {
		s.routes[route] = newRouteMetrics(s.obsReg, route)
	}
	return s, nil
}

// Route names; also the keys of the /metrics routes map.
const (
	pathQuery     = "/v1/query"
	pathEvidence  = "/v1/evidence"
	pathDBs       = "/v1/dbs"
	pathExamples  = "/v1/examples"
	pathReplicate = "/v1/replicate"
	pathMemSync   = "/v1/memsync"
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
	// still let its followers catch up on the WAL — and on the query
	// memory, which ships over the same peer mesh.
	mux.Handle("GET "+pathReplicate, s.wrap(pathReplicate, false, s.handleReplicate))
	mux.Handle("GET "+pathMemSync, s.wrap(pathMemSync, false, s.handleMemSync))
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

// Close stops the peer replication tailers, flushes pending
// micro-batches, stops the evidence worker pools (each service flushes
// its store after its pool drains), and closes the evidence stores. It is
// idempotent, and safe to race with in-flight requests: they fail with
// evserve.ErrClosed rather than hang.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		// Tailers first: they append to the stores, which close below.
		if s.tailCancel != nil {
			s.tailCancel()
		}
		s.tailWG.Wait()
		for _, b := range s.batchers {
			b.Flush()
		}
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

	if root := obs.CurrentSpan(r.Context()); root != nil {
		root.SetAttr("db", e.DB)
		root.SetAttr("example_id", e.ID)
	}

	// Query memory sits ahead of the evidence batcher: a high-confidence
	// semantic match serves adapted cached SQL with zero pipeline/LLM
	// work. A miss (or a hit that fails verification) falls through to
	// the full path, carrying the lookup time into the response timing.
	var memDur time.Duration
	if mem := s.memories[sess.Corpus]; mem != nil {
		served, d := s.tryMemory(w, r, sess, e, req)
		if served {
			return
		}
		memDur = d
	}

	evStart := time.Now()
	evCtx, evSpan := obs.StartSpan(r.Context(), "evidence")
	ev, err := s.batchers[sess.Corpus].Generate(evCtx, e.DB, e.Question)
	evDur := time.Since(evStart)
	if err != nil {
		evSpan.Fail(err)
		writeUpstreamError(w, r, "evidence generation", err)
		return
	}
	evSpan.SetAttr("cache_hit", ev.CacheHit)
	// A request that waited for a generation (its own, a batch's, or a
	// single-flight leader's) gets the DAG's stages as child spans: the
	// batch runs under its own context, so no per-request span can flow
	// into it, but ev.Trace carries the stage breakdown, anchored here at
	// this request's evidence phase start. A cache hit ran no stage, so it
	// gets none; the response's evidence_trace still says where its
	// evidence came from.
	if ev.Trace != nil && !ev.CacheHit {
		for _, st := range ev.Trace.Stages {
			var attrs map[string]any
			if st.CacheHit || st.Tokens > 0 {
				attrs = make(map[string]any, 2)
				if st.CacheHit {
					attrs["memo_hit"] = true
				}
				if st.Tokens > 0 {
					attrs["tokens"] = st.Tokens
				}
			}
			evSpan.Child("stage:"+st.Stage,
				evStart.Add(time.Duration(st.StartMicros)*time.Microsecond),
				time.Duration(st.WallMicros)*time.Microsecond, attrs)
		}
	}
	evSpan.End()

	genStart := time.Now()
	_, genSpan := obs.StartSpan(r.Context(), "generate")
	sql, err := sess.Gen.Generate(texttosql.Task{Example: e, DB: sess.DB, Evidence: ev.Text})
	genDur := time.Since(genStart)
	if err != nil {
		genSpan.Fail(err)
		writeError(w, http.StatusInternalServerError, api.CodeInternal, fmt.Sprintf("generation failed: %v", err))
		return
	}
	genSpan.End()
	if root := obs.CurrentSpan(r.Context()); root != nil {
		root.SetAttr("sql", sql)
	}

	prepStart := time.Now()
	_, prepSpan := obs.StartSpan(r.Context(), "sqlengine.prepare")
	stmt, planHit, err := sess.DB.Engine.PrepareCached(sql)
	prepDur := time.Since(prepStart)
	if err != nil {
		prepSpan.Fail(err)
		writeError(w, http.StatusUnprocessableEntity, api.CodeUnprocessable, fmt.Sprintf("generated SQL does not parse: %v", err))
		return
	}
	prepSpan.SetAttr("plan_cache_hit", planHit)
	prepSpan.End()

	execStart := time.Now()
	_, execSpan := obs.StartSpan(r.Context(), "sqlengine.execute")
	res, err := stmt.Exec()
	execDur := time.Since(execStart)
	if err != nil {
		execSpan.Fail(err)
		writeError(w, http.StatusUnprocessableEntity, api.CodeUnprocessable, fmt.Sprintf("generated SQL does not execute: %v", err))
		return
	}
	execSpan.SetAttr("cost", res.Cost)
	execSpan.SetAttr("batches", res.Batches)
	execSpan.SetAttr("parallel_workers", res.Workers)
	execSpan.SetAttr("path", res.Path)
	if res.Rows != nil {
		execSpan.SetAttr("rows", len(res.Rows.Data))
	}
	execSpan.End()

	source := api.SourceGenerated
	if ev.CacheHit {
		source = api.SourceCache
	}

	// A judged-correct generation becomes a memory pattern: the next
	// paraphrase of this intent can skip the pipeline entirely.
	if mem := s.memories[sess.Corpus]; mem != nil {
		if out := s.judges[sess.Corpus].ScoreRows(sess.DB, e, res); out.Correct {
			mem.Admit(e.DB, e.Question, ev.Text, sql, qmemory.Fingerprint(res.Rows))
		}
	}

	resp := api.QueryResponse{
		DB:               e.DB,
		ExampleID:        e.ID,
		Question:         e.Question,
		Source:           source,
		Evidence:         ev.Text,
		EvidenceTrace:    ev.Trace,
		EvidenceCacheHit: ev.CacheHit,
		SQL:              sql,
		Cost:             res.Cost,
		Timing: api.QueryTiming{
			MemoryMicros:   memDur.Microseconds(),
			EvidenceMicros: evDur.Microseconds(),
			GenerateMicros: genDur.Microseconds(),
			PrepareMicros:  prepDur.Microseconds(),
			ExecuteMicros:  execDur.Microseconds(),
		},
	}
	if res.Rows != nil {
		resp.Columns = res.Rows.Columns
		resp.RowCount = len(res.Rows.Data)
		n := resp.RowCount
		if req.MaxRows > 0 && req.MaxRows < n {
			n = req.MaxRows
			resp.Truncated = true
		}
		resp.Rows = renderRows(res.Rows, n)
	}
	writeJSON(w, http.StatusOK, resp)
}

// tryMemory looks the question up in the corpus's query memory and, on a
// confident hit, serves the stored SQL with zero pipeline/LLM calls —
// after verifying it: the SQL must still execute, its result fingerprint
// must match the stored one, and the execution judge must score it
// correct against the example's gold. A hit that fails verification
// decays the pattern's confidence; the demotion reshuffles the ranking,
// so the lookup is retried a bounded number of times before giving up —
// a look-alike pattern outscoring the right one costs one cheap engine
// execution, not a full pipeline run. The returned duration covers
// lookup plus verification, for the fall-through response's timing.
func (s *Server) tryMemory(w http.ResponseWriter, r *http.Request, sess *Session, e dataset.Example, req api.QueryRequest) (served bool, memDur time.Duration) {
	mem := s.memories[sess.Corpus]
	start := time.Now()
	_, span := obs.StartSpan(r.Context(), "memory.lookup")
	defer func() {
		memDur = time.Since(start)
		span.End()
	}()

	const maxVerifyAttempts = 3
	var (
		hit   qmemory.Hit
		res   *sqlengine.Result
		tried []string
	)
	verified := false
	for attempt := 0; attempt < maxVerifyAttempts && !verified; attempt++ {
		var ok bool
		hit, ok = mem.Lookup(e.DB, e.Question, tried...)
		if !ok {
			break
		}
		tried = append(tried, hit.PatternID)

		stmt, _, err := sess.DB.Engine.PrepareCached(hit.SQL)
		if err != nil {
			// A stored pattern that no longer parses is poison: demote it
			// and rerank.
			mem.Failure(hit.PatternID)
			continue
		}
		res, err = stmt.Exec()
		if err != nil {
			mem.Failure(hit.PatternID)
			continue
		}
		// Verification is the accuracy floor: the fingerprint pins the
		// result the pattern was admitted with, and the judge pins
		// execution accuracy against gold (gold results are cached per
		// example, so steady-state verification costs one extra engine
		// execution, not two).
		if qmemory.Fingerprint(res.Rows) != hit.Fingerprint ||
			!s.judges[sess.Corpus].ScoreRows(sess.DB, e, res).Correct {
			// A pattern failing a question it previously answered
			// (similarity 1 is the exact-phrasing fast path) is poison:
			// demote it. A semantic look-alike failing a NEW question is a
			// retrieval error, not pattern damage — skip it for this
			// request and leave its confidence (and its own questions)
			// alone.
			if hit.Similarity >= 1 {
				mem.Failure(hit.PatternID)
			}
			continue
		}
		verified = true
	}
	span.SetAttr("hit", len(tried) > 0)
	span.SetAttr("attempts", len(tried))
	span.SetAttr("verified", verified)
	// match says which retrieval path answered: repeat traffic ("exact",
	// a stored phrasing) or paraphrase traffic ("semantic").
	match := "none"
	if verified && hit.Similarity >= 1 {
		match = "exact"
	} else if verified {
		match = "semantic"
	}
	span.SetAttr("match", match)
	if !verified {
		return false, 0
	}
	span.SetAttr("pattern", hit.PatternID)
	span.SetAttr("confidence", hit.Confidence)
	span.SetAttr("similarity", hit.Similarity)
	// Lookup, verification and execution are one span here, so the engine's
	// physical path rides on it.
	span.SetAttr("path", res.Path)
	mem.Success(hit.PatternID, e.Question)

	if root := obs.CurrentSpan(r.Context()); root != nil {
		root.SetAttr("sql", hit.SQL)
	}
	resp := api.QueryResponse{
		DB:               e.DB,
		ExampleID:        e.ID,
		Question:         e.Question,
		Source:           api.SourceMemory,
		MemoryConfidence: hit.Confidence,
		Evidence:         hit.Evidence,
		SQL:              hit.SQL,
		Cost:             res.Cost,
	}
	// On the memory path lookup, verification and execution are one fused
	// phase; the whole end-to-end cost lands in MemoryMicros.
	resp.Timing.MemoryMicros = time.Since(start).Microseconds()
	if res.Rows != nil {
		resp.Columns = res.Rows.Columns
		resp.RowCount = len(res.Rows.Data)
		n := resp.RowCount
		if req.MaxRows > 0 && req.MaxRows < n {
			n = req.MaxRows
			resp.Truncated = true
		}
		resp.Rows = renderRows(res.Rows, n)
	}
	writeJSON(w, http.StatusOK, resp)
	return true, time.Since(start)
}

// renderRows converts engine rows to JSON-shaped values: NULL becomes
// JSON null, everything else its text rendering. The rows share one backing
// array sized to their total cell count (rows of different widths included),
// one full-capacity sub-slice per row.
func renderRows(rows *sqlengine.Rows, n int) [][]any {
	cells := 0
	for _, r := range rows.Data[:n] {
		cells += len(r)
	}
	backing := make([]any, cells)
	out := make([][]any, n)
	for i, r := range rows.Data[:n] {
		row := backing[:len(r):len(r)]
		backing = backing[len(r):]
		for j, v := range r {
			if !v.IsNull() { // NULL stays the nil the backing holds
				row[j] = v.AsText()
			}
		}
		out[i] = row
	}
	return out
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
	ev, err := s.batchers[sess.Corpus].Generate(r.Context(), req.DB, question)
	if err != nil {
		writeUpstreamError(w, r, "evidence generation", err)
		return
	}
	writeJSON(w, http.StatusOK, api.EvidenceResponse{
		DB:       req.DB,
		Question: question,
		Variant:  s.services[sess.Corpus].Stats().Variant,
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

// handleReplicate serves one corpus's WAL to a fleet follower: GET
// /v1/replicate?corpus=<name>&gen=<gen>&from=<offset>. With exactly one
// corpus loaded the corpus parameter may be omitted.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if len(s.stores) == 0 {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "replication requires a durable store (-store-dir)")
		return
	}
	corpus := r.URL.Query().Get("corpus")
	if corpus == "" && len(s.stores) == 1 {
		for name := range s.stores {
			corpus = name
		}
	}
	store, ok := s.stores[corpus]
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("unknown corpus %q", corpus))
		return
	}
	store.ServeReplication(w, r)
}

// handleMemSync serves one corpus's query-memory patterns to a fleet
// follower: GET /v1/memsync?corpus=<name>&gen=<gen>&since=<seq>. With
// exactly one memory-enabled corpus the corpus parameter may be omitted.
func (s *Server) handleMemSync(w http.ResponseWriter, r *http.Request) {
	if len(s.memories) == 0 {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "query memory is disabled on this replica")
		return
	}
	corpus := r.URL.Query().Get("corpus")
	if corpus == "" && len(s.memories) == 1 {
		for name := range s.memories {
			corpus = name
		}
	}
	mem, ok := s.memories[corpus]
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("unknown corpus %q", corpus))
		return
	}
	mem.ServeSync(w, r)
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

// PlanCacheSnapshot aggregates the SQL engines' prepared-plan cache
// counters over one corpus's databases.
type PlanCacheSnapshot struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// MetricsSnapshot is the /metrics response body.
type MetricsSnapshot struct {
	UptimeSeconds  float64                      `json:"uptime_seconds"`
	Databases      int                          `json:"databases"`
	SessionsLoaded int64                        `json:"sessions_loaded"`
	Routes         map[string]RouteSnapshot     `json:"routes"`
	Admission      AdmissionStats               `json:"admission"`
	Evidence       map[string]EvidenceSnapshot  `json:"evidence"`
	Batcher        map[string]BatcherStats      `json:"batcher"`
	PlanCache      map[string]PlanCacheSnapshot `json:"plan_cache"`
	// Store holds the per-corpus durable evidence store counters
	// (records, WAL size, compactions, replay time, snapshot age);
	// omitted when the server runs without -store-dir.
	Store map[string]evstore.Stats `json:"store,omitempty"`
	// Replication holds one tailer snapshot per peer stream, keyed
	// "corpus<-peerURL"; omitted outside a fleet (-peers unset).
	Replication map[string]evstore.TailerStats `json:"replication,omitempty"`
	// Memory holds the per-corpus query-memory counters (patterns,
	// lookups, hits, demotions, confidence distribution); omitted when
	// the server runs without -memory.
	Memory map[string]qmemory.Stats `json:"memory,omitempty"`
	// MemoryReplication holds one memory-sync tailer snapshot per peer
	// stream, keyed "corpus<-peerURL"; omitted outside a fleet.
	MemoryReplication map[string]qmemory.TailerStats `json:"memory_replication,omitempty"`
	// Draining reports the shutdown drain state (see SetDraining).
	Draining bool `json:"draining,omitempty"`
}

// EvidenceSnapshot is the /metrics view of one corpus evidence service.
type EvidenceSnapshot struct {
	Variant      string  `json:"variant"`
	Workers      int     `json:"workers"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	Entries      int     `json:"cache_entries"`
	Dedups       int64   `json:"dedups"`
	Generations  int64   `json:"generations"`
	Failures     int64   `json:"failures"`
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
	// generation: runs, memo hits, wall time and tokens per DAG stage.
	Stages []pipeline.StageAgg `json:"stages,omitempty"`
}

// Metrics snapshots every counter the server exports.
func (s *Server) Metrics() MetricsSnapshot {
	snap := MetricsSnapshot{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Databases:      len(s.reg.DBNames()),
		SessionsLoaded: s.reg.Loaded(),
		Routes:         make(map[string]RouteSnapshot, len(s.routes)),
		Admission:      s.adm.stats(),
		Evidence:       make(map[string]EvidenceSnapshot, len(s.services)),
		Batcher:        make(map[string]BatcherStats, len(s.batchers)),
		PlanCache:      make(map[string]PlanCacheSnapshot, len(s.corpora)),
	}
	for route, rm := range s.routes {
		snap.Routes[route] = rm.snapshot()
	}
	for name, svc := range s.services {
		st := svc.Stats()
		es := EvidenceSnapshot{
			Variant:      st.Variant,
			Workers:      st.Workers,
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
		if probes := st.Cache.Hits + st.Cache.Misses; probes > 0 {
			es.CacheHitRate = float64(st.Cache.Hits) / float64(probes)
		}
		snap.Evidence[name] = es
	}
	for name, b := range s.batchers {
		snap.Batcher[name] = b.stats()
	}
	if len(s.stores) > 0 {
		snap.Store = make(map[string]evstore.Stats, len(s.stores))
		for name, st := range s.stores {
			snap.Store[name] = st.Stats()
		}
	}
	if len(s.tailers) > 0 {
		snap.Replication = make(map[string]evstore.TailerStats, len(s.tailers))
		for _, rs := range s.tailers {
			snap.Replication[rs.corpus+"<-"+rs.peer] = rs.tailer.Stats()
		}
	}
	if len(s.memories) > 0 {
		snap.Memory = make(map[string]qmemory.Stats, len(s.memories))
		for name, mem := range s.memories {
			snap.Memory[name] = mem.Stats()
		}
	}
	if len(s.memTailers) > 0 {
		snap.MemoryReplication = make(map[string]qmemory.TailerStats, len(s.memTailers))
		for _, ms := range s.memTailers {
			snap.MemoryReplication[ms.corpus+"<-"+ms.peer] = ms.tailer.Stats()
		}
	}
	snap.Draining = s.draining.Load()
	for name, corpus := range s.corpora {
		var agg sqlengine.PlanCacheStats
		for _, db := range corpus.DBs {
			agg.Add(db.Engine.PlanCacheStats())
		}
		snap.PlanCache[name] = PlanCacheSnapshot{
			Hits:      agg.Hits,
			Misses:    agg.Misses,
			Evictions: agg.Evictions,
			Entries:   agg.Entries,
		}
	}
	return snap
}

// handleMetrics serves Prometheus text exposition by default and the
// legacy JSON snapshot at ?format=json (the shape the CI jq asserts and
// pre-existing dashboards consume).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if isJSONFormat(r) {
		writeJSON(w, http.StatusOK, s.Metrics())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obsReg.WritePrometheus(w)
}

// decodeBody parses a JSON request body, answering 400 on malformed input.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
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
