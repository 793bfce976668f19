package main

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/seed"
	"repro/internal/server"
)

// Span names. The handler spans are recorded by wrappers around the
// program's http.Handlers; everything inside a handler is opaque to the
// bench except the phases the response's api.QueryTiming reports.
const (
	spanClient   = "client"
	spanRouter   = "fleet.router"
	spanServer   = "server.handler"
	spanGenerate = "texttosql.generate" // table4_offline: the op's two calls
	spanScore    = "eval.score"
	reqIDPrefix  = "bench-"
	queryPath    = "/v1/query"
)

var quiet = slog.New(slog.DiscardHandler)

// seeddConfig is cmd/seedd's flag defaults: what a deployment that tunes
// nothing gets. Workloads add only what defines them (memory, store
// directories, peers), never a knob.
func seeddConfig(corpus *dataset.Corpus, sim *llm.Simulator, corpusSeed uint64) server.Config {
	return server.Config{
		Corpora:        []*dataset.Corpus{corpus},
		Client:         sim,
		Variant:        seed.VariantGPT,
		Generator:      generatorName,
		BatchWindow:    2 * time.Millisecond,
		BatchMax:       32,
		Burst:          64,
		MaxInFlight:    256,
		RequestTimeout: 30 * time.Second,
		StoreSeed:      corpusSeed,
		Logger:         quiet,
	}
}

// routerConfig is cmd/seedrouter's flag defaults.
func routerConfig(replicas []string) fleet.Config {
	return fleet.Config{
		Replicas:       replicas,
		RequestTimeout: 30 * time.Second,
		AttemptTimeout: 10 * time.Second,
		HedgeDelay:     250 * time.Millisecond,
		ProbeInterval:  500 * time.Millisecond,
		ProbeTimeout:   time.Second,
		Logger:         quiet,
	}
}

// tracer is the switch the handler wrappers read: nil while untraced.
type tracer struct{ rec atomic.Pointer[recorder] }

func (t *tracer) current() *recorder { return t.rec.Load() }

// observe wraps a program handler from the outside: it counts (when given
// a counter) the /v1/query requests that reach it and, when tracing is
// on, records a span parented under whichever of parents the same request
// has.
func observe(name string, t *tracer, served *atomic.Int64, h http.Handler, parents ...string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(obs.RequestIDHeader)
		if r.URL.Path != queryPath || !strings.HasPrefix(req, reqIDPrefix) {
			h.ServeHTTP(w, r) // probes, replication polls
			return
		}
		if served != nil {
			served.Add(1)
		}
		rec := t.current()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		id := rec.begin(name, req, parents...)
		h.ServeHTTP(w, r)
		rec.end(id)
	})
}

// node is one in-process seedd: a server.Server behind a loopback
// listener, its handler observed from outside.
type node struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served atomic.Int64
}

func startNode(cfg server.Config, ln net.Listener, t *tracer) (*node, error) {
	srv, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &node{srv: srv, url: "http://" + ln.Addr().String()}
	n.hs = &http.Server{Handler: observe(spanServer, t, &n.served, srv.Handler(), spanRouter, spanClient)}
	go n.hs.Serve(ln)
	return n, nil
}

func (n *node) stop() {
	n.hs.Close()
	n.srv.Close()
}

// stack is everything one served workload runs against: one node, or a
// fleet.Router in front of several.
type stack struct {
	nodes  []*node
	router *fleet.Router
	rhs    *http.Server
	base   string // where clients send
}

func (s *stack) stop() {
	if s.rhs != nil {
		s.rhs.Close()
		s.router.Close()
	}
	for _, n := range s.nodes {
		n.stop()
	}
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// fleetBasePort is where the fleet's replicas listen when they can. The
// router's hash ring is built over the replica URLs, so ephemeral ports
// would shard the questions differently in every run (and with the
// shards, how often two clients' requests share a micro-batch): a
// deployment has fixed addresses, and so does this. Below the ephemeral
// range, so no other process's :0 lands on it.
const fleetBasePort = 23117

// listenReplica binds replica i's fixed port, or any port if it is taken.
func listenReplica(i int) (net.Listener, error) {
	if ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", fleetBasePort+i)); err == nil {
		return ln, nil
	}
	return listenLoopback()
}

// startSingle stands up one seedd.
func startSingle(cfg server.Config, t *tracer) (*stack, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	n, err := startNode(cfg, ln, t)
	if err != nil {
		return nil, err
	}
	return &stack{nodes: []*node{n}, base: n.url}, nil
}

// startFleet stands up n replicas that tail one another's stores and a
// router in front. Listeners are bound first so every replica can be told
// its peers' final URLs. mkCfg builds replica i's config (each replica
// owns its corpus copy, as separate processes would).
func startFleet(n int, dir string, t *tracer, mkCfg func(i int) server.Config) (*stack, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := listenReplica(i)
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	s := &stack{}
	for i := range n {
		cfg := mkCfg(i)
		cfg.StoreDir = filepath.Join(dir, fmt.Sprintf("replica-%d", i))
		for j, u := range urls {
			if j != i {
				cfg.Peers = append(cfg.Peers, u)
			}
		}
		nd, err := startNode(cfg, lns[i], t)
		if err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			s.stop()
			return nil, err
		}
		s.nodes = append(s.nodes, nd)
	}
	rt, err := fleet.NewRouter(routerConfig(urls))
	if err != nil {
		s.stop()
		return nil, err
	}
	ln, err := listenLoopback()
	if err != nil {
		rt.Close()
		s.stop()
		return nil, err
	}
	s.router = rt
	s.rhs = &http.Server{Handler: observe(spanRouter, t, nil, rt.Handler(), spanClient)}
	s.base = "http://" + ln.Addr().String()
	go s.rhs.Serve(ln)
	return s, nil
}
