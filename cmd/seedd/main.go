// Command seedd is the SEED serving daemon: it loads one or both synthetic
// corpora and serves the online text-to-SQL API (POST /v1/query,
// POST /v1/evidence, GET /v1/dbs, /v1/examples, /healthz, /metrics) with
// micro-batched evidence generation and admission control.
//
// Usage:
//
//	seedd                                  # BIRD on 127.0.0.1:8080
//	seedd -addr 127.0.0.1:0 -addrfile /tmp/seedd.addr   # ephemeral port, address written to file
//	seedd -corpus both -variant seed_deepseek -rate 500 -inflight 128
//	seedd -store-dir /var/lib/seedd        # durable evidence: warm restarts
//	seedd -addr 127.0.0.1:8081 -store-dir /var/lib/seedd-1 \
//	      -peers http://127.0.0.1:8082,http://127.0.0.1:8083   # fleet member
//
// With -store-dir, every generated evidence entry is persisted
// write-through to a crash-safe store (one subdirectory per corpus) and
// replayed into the evidence cache on startup, so a restarted daemon
// serves the corpus it already paid for without a single LLM call.
// /metrics reports the store counters (records, WAL size, replay time,
// snapshot age).
//
// With -peers, the daemon joins a fleet: it tails every peer's evidence
// store over GET /v1/replicate (WAL shipping) into its own store and
// serving cache, and serves its own WAL to them on the same endpoint. A
// seedrouter in front shards questions across the fleet; when a replica
// dies, the next replica on the ring already holds its shard's evidence
// and serves it with zero LLM calls.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: /healthz?ready
// flips to 503 (draining) so routers take it out of rotation, the
// -drain-grace period passes, in-flight requests drain (up to 5s),
// pending micro-batches flush, worker pools stop, and the evidence store
// is flushed and closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/seed"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	addrFile := flag.String("addrfile", "", "write the bound address to this file once listening (for scripts wrapping an ephemeral port)")
	corpusName := flag.String("corpus", "bird", "corpus to serve: bird, spider or both")
	seedFlag := flag.Uint64("seed", 7, "corpus generation seed")
	variant := flag.String("variant", string(seed.VariantGPT), "SEED evidence variant: seed_gpt or seed_deepseek")
	generator := flag.String("generator", "codes-15b", "text-to-SQL generator: codes-{1,3,7,15}b, chess, chess-sscg, rsl-sql, dail-sql, c3")
	workers := flag.Int("workers", 0, "evidence worker pool size per corpus (0 = GOMAXPROCS)")
	cache := flag.Int("cache", 0, "evidence cache capacity in entries (0 = 4096)")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "how long a cache miss may wait to share a pool dispatch; 0 disables batching")
	batchMax := flag.Int("batch-max", 32, "micro-batch size that forces an early flush")
	rate := flag.Float64("rate", 0, "admission rate limit in requests/second (0 = unlimited)")
	burst := flag.Int("burst", 64, "admission token-bucket burst")
	inflight := flag.Int("inflight", 256, "max in-flight requests (0 = unlimited)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline (0 = none)")
	storeDir := flag.String("store-dir", "", "durable evidence store directory: evidence survives restarts, replayed into the cache on startup (empty = in-memory only)")
	storeCompact := flag.Int("store-compact", 0, "store WAL compaction threshold in records (0 = 1024, negative disables)")
	memory := flag.Bool("memory", false, "enable the confidence-gated query memory: verified generations are remembered and paraphrases served with zero pipeline/LLM calls")
	memoryDir := flag.String("memory-dir", "", "durable query-memory directory, patterns survive restarts (requires -memory)")
	peers := flag.String("peers", "", "comma-separated base URLs of the other fleet replicas; their evidence stores are tailed over /v1/replicate into this one (requires -store-dir)")
	replicateEvery := flag.Duration("replicate-interval", 0, "peer WAL poll period (0 = 200ms)")
	drainGrace := flag.Duration("drain-grace", 500*time.Millisecond, "on SIGTERM/SIGINT, how long /healthz?ready advertises draining before the listener stops accepting")
	traceCapacity := flag.Int("trace-capacity", 0, "retained traces behind /v1/traces (0 = 256, negative disables tracing)")
	slowQuery := flag.Duration("slow-query", 0, "slow-query threshold: slower traces are always retained and logged (0 disables)")
	debugAddr := flag.String("debug-addr", "", "loopback-only pprof + runtime/trace listener, e.g. 127.0.0.1:6060 (empty disables)")
	quiet := flag.Bool("quiet", false, "suppress per-request logs")
	flag.Parse()

	logLevel := slog.LevelInfo
	if *quiet {
		logLevel = slog.LevelWarn
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel}))

	var corpora []*dataset.Corpus
	switch *corpusName {
	case "bird":
		corpora = []*dataset.Corpus{dataset.BuildBIRD(dataset.BIRDOptions{Seed: *seedFlag})}
	case "spider":
		corpora = []*dataset.Corpus{dataset.BuildSpider(*seedFlag)}
	case "both":
		corpora = []*dataset.Corpus{
			dataset.BuildBIRD(dataset.BIRDOptions{Seed: *seedFlag}),
			dataset.BuildSpider(*seedFlag),
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown corpus %q (want bird, spider or both)\n", *corpusName)
		os.Exit(2)
	}

	srv, err := server.New(server.Config{
		Corpora:            corpora,
		Client:             llm.NewSimulator(),
		Variant:            seed.Variant(*variant),
		Generator:          *generator,
		EvidenceWorkers:    *workers,
		EvidenceCache:      *cache,
		BatchWindow:        *batchWindow,
		BatchMax:           *batchMax,
		Rate:               *rate,
		Burst:              *burst,
		MaxInFlight:        *inflight,
		RequestTimeout:     *timeout,
		StoreDir:           *storeDir,
		StoreCompactEvery:  *storeCompact,
		StoreSeed:          *seedFlag,
		Memory:             *memory,
		MemoryDir:          *memoryDir,
		Peers:              splitPeers(*peers),
		ReplicateInterval:  *replicateEvery,
		TraceCapacity:      *traceCapacity,
		SlowQueryThreshold: *slowQuery,
		Logger:             log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	totalDBs := 0
	for _, c := range corpora {
		totalDBs += len(c.DBs)
	}
	fmt.Printf("seedd listening on http://%s (%s, %d databases)\n", bound, *corpusName, totalDBs)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *debugAddr != "" {
		dbgBound, stopDebug, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer stopDebug()
		log.Info("debug listener", "addr", "http://"+dbgBound+"/debug/pprof/")
	}

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case s := <-sig:
		// Graceful drain: advertise not-ready first so a fleet router
		// stops sending new work, give it a grace period to notice, then
		// stop the listener (finishing in-flight requests), and finally
		// let the deferred srv.Close flush the stores. A second signal
		// during the drain skips straight to shutdown.
		log.Info("draining", "signal", s.String(), "grace", (*drainGrace).String())
		srv.SetDraining(true)
		select {
		case <-time.After(*drainGrace):
		case s2 := <-sig:
			log.Info("second signal, skipping drain grace", "signal", s2.String())
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Warn("forced shutdown", "err", err)
		}
		log.Info("drained")
	}
}

// splitPeers parses the -peers flag: comma-separated base URLs, empties
// and surrounding whitespace dropped.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}
