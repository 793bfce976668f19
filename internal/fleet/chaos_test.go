package fleet

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Proxy is the fault-injection layer for fleet testing: an HTTP proxy
// that sits between the router and one replica and injects the failure
// modes the fleet must absorb — latency spikes, 5xx bursts, mid-body
// truncation, and total blackout. TestRouterMasksChaos drives these knobs
// while asserting zero availability loss at the router.
//
// Faults are injected at the HTTP layer rather than in-process so the
// proxied replica runs its real serving path: what the router observes
// under chaos is exactly what it would observe against a genuinely
// misbehaving node (slow responses, garbage from a dying process,
// connections that reset mid-body).
//
// All knobs are safe to flip concurrently with traffic. The zero value is
// not usable; construct with NewProxy.
type Proxy struct {
	target string
	ln     net.Listener
	srv    *http.Server
	client *http.Client

	seq atomic.Int64 // request counter driving every-Nth faults

	// latencyNs stalls every latencyEvery-th request by latencyNs before
	// forwarding; latencyEvery == 0 disables.
	latencyNs    atomic.Int64
	latencyEvery atomic.Int64

	// errBurst is a countdown of requests to answer 500 without
	// forwarding — a replica whose process is up but whose handler is
	// broken.
	errBurst atomic.Int64

	// truncateEvery aborts every Nth response halfway through its body —
	// the client sees a reset mid-stream; 0 disables.
	truncateEvery atomic.Int64

	// down hard-closes every connection without reading the request — the
	// closest an HTTP proxy gets to a SIGKILLed process.
	down atomic.Bool

	injected atomic.Int64 // total faults injected, for reporting
}

// NewProxy starts a proxy on an ephemeral localhost port forwarding to
// the target base URL (e.g. a seedd replica's http://127.0.0.1:port).
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		target: target,
		ln:     ln,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	p.srv = &http.Server{Handler: http.HandlerFunc(p.serve)}
	go func() { _ = p.srv.Serve(ln) }()
	return p, nil
}

// URL returns the proxy's base URL; the router is pointed here instead of
// at the replica.
func (p *Proxy) URL() string { return "http://" + p.ln.Addr().String() }

// Close stops the proxy and drops every open connection.
func (p *Proxy) Close() { _ = p.srv.Close() }

// Injected returns how many faults this proxy has injected so far.
func (p *Proxy) Injected() int64 { return p.injected.Load() }

// SetDown makes the proxy drop every connection (true) or forward
// normally again (false). Unlike Close this is reversible, modeling a
// network partition or a crashed-then-restarted process.
func (p *Proxy) SetDown(down bool) { p.down.Store(down) }

// SpikeLatency stalls every nth request by d before forwarding. n <= 0
// disables the fault.
func (p *Proxy) SpikeLatency(d time.Duration, n int) {
	if n <= 0 {
		p.latencyEvery.Store(0)
		return
	}
	p.latencyNs.Store(int64(d))
	p.latencyEvery.Store(int64(n))
}

// Burst5xx makes the next n requests answer 500 without reaching the
// replica.
func (p *Proxy) Burst5xx(n int) { p.errBurst.Store(int64(n)) }

// TruncateEvery aborts every nth response mid-body. n <= 0 disables.
func (p *Proxy) TruncateEvery(n int) { p.truncateEvery.Store(int64(n)) }

// Reset clears every fault; the proxy becomes a transparent hop.
func (p *Proxy) Reset() {
	p.down.Store(false)
	p.latencyEvery.Store(0)
	p.errBurst.Store(0)
	p.truncateEvery.Store(0)
}

func (p *Proxy) serve(w http.ResponseWriter, r *http.Request) {
	n := p.seq.Add(1)

	if p.down.Load() {
		p.injected.Add(1)
		// Hijack and slam the connection: the client sees a reset, not a
		// well-formed HTTP error — the same signature as a killed process.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}

	if every := p.latencyEvery.Load(); every > 0 && n%every == 0 {
		p.injected.Add(1)
		time.Sleep(time.Duration(p.latencyNs.Load()))
	}

	if p.errBurst.Load() > 0 && p.errBurst.Add(-1) >= 0 {
		p.injected.Add(1)
		http.Error(w, "chaos: injected server error", http.StatusInternalServerError)
		return
	}

	// Forward to the target, streaming the response back.
	url := p.target + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()

	truncate := false
	if every := p.truncateEvery.Load(); every > 0 && n%every == 0 {
		truncate = true
	}

	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if truncate {
		p.injected.Add(1)
		body, _ := io.ReadAll(resp.Body)
		w.WriteHeader(resp.StatusCode)
		if len(body) > 1 {
			_, _ = w.Write(body[:len(body)/2])
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		// Abort the connection so the client sees a mid-body reset rather
		// than a short-but-complete response.
		panic(http.ErrAbortHandler)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func newEcho(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Echo-Path", r.URL.Path)
		_, _ = w.Write([]byte(`{"echo":"` + strings.ToUpper(string(body)) + `"}`))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func newProxy(t *testing.T, target string) *Proxy {
	t.Helper()
	p, err := NewProxy(target)
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestProxyTransparentWhenHealthy(t *testing.T) {
	p := newProxy(t, newEcho(t).URL)
	resp, err := http.Post(p.URL()+"/v1/query?x=1", "application/json", strings.NewReader("hello"))
	if err != nil {
		t.Fatalf("request through idle proxy: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "HELLO") {
		t.Fatalf("proxy mangled the exchange: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Echo-Path"); got != "/v1/query" {
		t.Fatalf("path forwarded as %q", got)
	}
	if p.Injected() != 0 {
		t.Fatalf("idle proxy claims %d injected faults", p.Injected())
	}
}

func TestProxyLatencySpike(t *testing.T) {
	p := newProxy(t, newEcho(t).URL)
	p.SpikeLatency(300*time.Millisecond, 2) // every 2nd request stalls

	fast, slow := 0, 0
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		resp, err := http.Get(p.URL() + "/v1/dbs")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp.Body.Close()
		if time.Since(t0) >= 300*time.Millisecond {
			slow++
		} else {
			fast++
		}
	}
	if slow != 2 || fast != 2 {
		t.Fatalf("latency spike hit %d of 4 requests, want exactly every 2nd", slow)
	}
	p.Reset()
	t0 := time.Now()
	resp, err := http.Get(p.URL() + "/v1/dbs")
	if err != nil {
		t.Fatalf("after reset: %v", err)
	}
	resp.Body.Close()
	if time.Since(t0) >= 300*time.Millisecond {
		t.Fatal("Reset did not clear the latency fault")
	}
}

func TestProxy5xxBurst(t *testing.T) {
	echo := newEcho(t)
	p := newProxy(t, echo.URL)
	p.Burst5xx(3)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(p.URL() + "/v1/dbs")
		if err != nil {
			t.Fatalf("burst request %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("burst request %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	// Burst exhausted: traffic flows again.
	resp, err := http.Get(p.URL() + "/v1/dbs")
	if err != nil {
		t.Fatalf("post-burst request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst status %d, want 200", resp.StatusCode)
	}
	if p.Injected() != 3 {
		t.Fatalf("Injected() = %d, want 3", p.Injected())
	}
}

func TestProxyTruncation(t *testing.T) {
	p := newProxy(t, newEcho(t).URL)
	p.TruncateEvery(1)
	resp, err := http.Post(p.URL()+"/v1/query", "application/json", strings.NewReader("a long enough body to halve"))
	if err == nil {
		// The abort may surface on body read rather than on headers.
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("truncated response read cleanly; want a mid-body transport error")
	}
}

func TestProxyDownAndRecovery(t *testing.T) {
	p := newProxy(t, newEcho(t).URL)
	p.SetDown(true)
	client := &http.Client{Timeout: 2 * time.Second}
	if resp, err := client.Get(p.URL() + "/v1/dbs"); err == nil {
		resp.Body.Close()
		t.Fatal("request through a down proxy succeeded")
	}
	p.SetDown(false)
	resp, err := client.Get(p.URL() + "/v1/dbs")
	if err != nil {
		t.Fatalf("request after recovery: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status %d", resp.StatusCode)
	}
}
