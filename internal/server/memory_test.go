package server

import (
	"cmp"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/evstore"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/qmemory"
	"repro/internal/seed"
	"repro/internal/wal"
)

// TestMemoryServesRepeatWithZeroLLMCalls is the tentpole's end-to-end
// contract: a question answered correctly once is answered again from
// the query memory — source "memory", confidence attached, and zero
// simulated LLM calls for the request.
func TestMemoryServesRepeatWithZeroLLMCalls(t *testing.T) {
	sim := llm.NewSimulator()
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.Client = sim
		cfg.Memory = true
	})

	examples := testCorpus(t).Dev[:12]
	var memoryHits int
	for _, e := range examples {
		resp, data := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		if resp.StatusCode != 200 {
			continue
		}
		var first api.QueryResponse
		if err := json.Unmarshal(data, &first); err != nil {
			t.Fatal(err)
		}
		if first.Source == api.SourceMemory {
			// Cross-example generalization: a pattern learned from an
			// earlier example matched this question and passed verification
			// against THIS example's gold. Legitimate, but useless for the
			// first-vs-repeat comparison below.
			continue
		}

		before := sim.LedgerSnapshot().TotalCalls()
		resp, data = postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		if resp.StatusCode != 200 {
			t.Fatalf("repeat of %s = %d: %s", e.ID, resp.StatusCode, data)
		}
		var second api.QueryResponse
		if err := json.Unmarshal(data, &second); err != nil {
			t.Fatal(err)
		}
		if second.Source != api.SourceMemory {
			// The simulator does not answer every example correctly; only
			// judged-correct generations are admitted. Incorrect ones must
			// keep regenerating.
			continue
		}
		memoryHits++
		if delta := sim.LedgerSnapshot().TotalCalls() - before; delta != 0 {
			t.Errorf("memory hit for %s made %d LLM calls, want 0", e.ID, delta)
		}
		if second.MemoryConfidence <= 0 {
			t.Errorf("memory hit for %s carries no confidence", e.ID)
		}
		if second.SQL != first.SQL {
			t.Errorf("memory hit for %s served %q, generated %q", e.ID, second.SQL, first.SQL)
		}
		if second.RowCount != first.RowCount {
			t.Errorf("memory hit for %s row count %d != %d", e.ID, second.RowCount, first.RowCount)
		}
		if second.Timing.MemoryMicros <= 0 {
			t.Errorf("memory hit for %s reports no memory time", e.ID)
		}
		if second.Timing.GenerateMicros != 0 || second.Timing.EvidenceMicros != 0 {
			t.Errorf("memory hit for %s reports pipeline time: %+v", e.ID, second.Timing)
		}
		// The trace says which path answered: a repeat is the exact map's.
		tresp, err := http.Get(ts.URL + "/v1/traces/" + resp.Header.Get(obs.TraceIDHeader))
		if err != nil {
			t.Fatal(err)
		}
		var rec obs.TraceRecord
		err = json.NewDecoder(tresp.Body).Decode(&rec)
		tresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var attrs map[string]any
		for _, sp := range rec.Spans {
			if sp.Name == "memory.lookup" {
				attrs = attrMap(sp.Attrs)
			}
		}
		if attrs["match"] != "exact" || attrs["attempts"] != float64(1) || attrs["path"] == nil {
			t.Errorf("memory.lookup span of %s: %v; want match=exact attempts=1 and the engine's path", e.ID, attrs)
		}
	}
	if memoryHits == 0 {
		t.Fatal("no example was served from memory on repeat")
	}
	// Repeat traffic is told from paraphrase traffic without a trace.
	var exact, hits int64
	for _, st := range srv.Metrics().Memory {
		exact, hits = exact+st.ExactHits, hits+st.Hits
	}
	if exact < int64(memoryHits) || exact > hits {
		t.Errorf("memory stats: %d exact of %d hits; want at least %d exact", exact, hits, memoryHits)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(prom), "qmemory_exact_hits_total") {
		t.Error("/metrics does not export qmemory_exact_hits_total")
	}
}

// TestMemoryDisabledByDefault pins the compatibility default: without
// Config.Memory, repeats keep their pre-memory behavior (evidence cache
// hit, source "cache") and the metrics snapshot carries no memory block.
func TestMemoryDisabledByDefault(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	e := testCorpus(t).Dev[0]
	postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
	_, data := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
	var qr api.QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Source == api.SourceMemory {
		t.Fatal("memory must be opt-in")
	}
	if qr.Source != api.SourceCache {
		t.Fatalf("repeat source = %q, want %q", qr.Source, api.SourceCache)
	}
	if srv.Metrics().Memory != nil {
		t.Fatal("metrics should omit memory when disabled")
	}
}

// TestMemoryWarmRestart: with MemoryDir set, learned patterns survive a
// restart — the second life serves from memory without relearning.
func TestMemoryWarmRestart(t *testing.T) {
	dir := t.TempDir()
	newMemServer := func(sim llm.Client) (*Server, string, func()) {
		srv, err := New(Config{
			Corpora:   []*dataset.Corpus{testCorpus(t)},
			Client:    sim,
			Variant:   seed.VariantGPT,
			StoreSeed: 7,
			Memory:    true,
			MemoryDir: dir,
			Logger:    quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		return srv, ts.URL, func() { ts.Close(); srv.Close() }
	}

	_, url1, stop1 := newMemServer(llm.NewSimulator())
	// Teach the first life a few patterns; remember which ones stuck.
	var learned []dataset.Example
	for _, e := range testCorpus(t).Dev[:8] {
		postJSON(t, url1+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		_, data := postJSON(t, url1+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		var qr api.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			continue
		}
		if qr.Source == api.SourceMemory {
			learned = append(learned, e)
		}
	}
	if len(learned) == 0 {
		t.Fatal("first life learned nothing")
	}
	stop1()

	sim2 := llm.NewSimulator()
	srv2, url2, _ := newMemServer(sim2)
	for _, e := range learned {
		before := sim2.LedgerSnapshot().TotalCalls()
		resp, data := postJSON(t, url2+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		if resp.StatusCode != 200 {
			t.Fatalf("restarted server /v1/query = %d: %s", resp.StatusCode, data)
		}
		var qr api.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Source != api.SourceMemory {
			t.Errorf("restarted server regenerated %s (source %q), want memory", e.ID, qr.Source)
		}
		if delta := sim2.LedgerSnapshot().TotalCalls() - before; delta != 0 {
			t.Errorf("restarted memory hit for %s made %d LLM calls", e.ID, delta)
		}
	}
	for _, st := range srv2.Metrics().Memory {
		if st.Restored == 0 {
			t.Error("metrics report no restored patterns after warm restart")
		}
	}
}

// TestMemoryReplicationServesOnFollower: patterns learned on one replica
// ship to peers like evidence, over the memory kind of /v1/replicate — the
// follower serves a question it never generated, from memory, with zero
// LLM calls. Only a durable memory (MemoryDir) has a log to serve.
func TestMemoryReplicationServesOnFollower(t *testing.T) {
	leaderDir := t.TempDir()
	leaderSrv, err := New(Config{
		Corpora:   []*dataset.Corpus{testCorpus(t)},
		Client:    llm.NewSimulator(),
		Variant:   seed.VariantGPT,
		StoreDir:  leaderDir,
		StoreSeed: 7,
		Memory:    true,
		MemoryDir: t.TempDir(),
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	leaderTS := httptest.NewServer(leaderSrv.Handler())
	t.Cleanup(func() { leaderTS.Close(); leaderSrv.Close() })

	// Teach the leader.
	var learned []dataset.Example
	for _, e := range testCorpus(t).Dev[:8] {
		postJSON(t, leaderTS.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		_, data := postJSON(t, leaderTS.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		var qr api.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			continue
		}
		if qr.Source == api.SourceMemory {
			learned = append(learned, e)
		}
	}
	if len(learned) == 0 {
		t.Fatal("leader learned nothing")
	}

	followerSim := llm.NewSimulator()
	followerSrv, err := New(Config{
		Corpora:           []*dataset.Corpus{testCorpus(t)},
		Client:            followerSim,
		Variant:           seed.VariantGPT,
		StoreDir:          t.TempDir(),
		StoreSeed:         7,
		Peers:             []string{leaderTS.URL},
		ReplicateInterval: 20 * time.Millisecond,
		Memory:            true,
		MemoryDir:         t.TempDir(),
		Logger:            quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	followerTS := httptest.NewServer(followerSrv.Handler())
	t.Cleanup(func() { followerTS.Close(); followerSrv.Close() })

	deadline := time.Now().Add(5 * time.Second)
	for {
		var injected int64
		for _, st := range followerSrv.Metrics().Memory {
			injected += st.Injected
		}
		if injected >= int64(len(learned)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower injected %d patterns in 5s, want >= %d\nmemory replication: %+v",
				injected, len(learned), followerSrv.Metrics().MemoryReplication)
		}
		time.Sleep(10 * time.Millisecond)
	}

	for _, e := range learned {
		before := followerSim.LedgerSnapshot().TotalCalls()
		resp, data := postJSON(t, followerTS.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		if resp.StatusCode != 200 {
			t.Fatalf("follower /v1/query = %d: %s", resp.StatusCode, data)
		}
		var qr api.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Source != api.SourceMemory {
			t.Errorf("follower regenerated %s (source %q), want memory", e.ID, qr.Source)
		}
		if delta := followerSim.LedgerSnapshot().TotalCalls() - before; delta != 0 {
			t.Errorf("follower memory hit for %s made %d LLM calls", e.ID, delta)
		}
	}
}

// TestPeersRequireDurableStores pins that a fleet member replicates only
// what is durable: with Peers, New refuses a config without StoreDir and,
// when the query memory is on, one without MemoryDir.
func TestPeersRequireDurableStores(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(*Config)
		want string
	}{
		{"no StoreDir", func(c *Config) {}, "requires Config.StoreDir"},
		{"memory without MemoryDir", func(c *Config) { c.StoreDir, c.Memory = t.TempDir(), true }, "requires Config.MemoryDir"},
	} {
		cfg := Config{
			Corpora: []*dataset.Corpus{testCorpus(t)},
			Client:  llm.NewSimulator(),
			Variant: seed.VariantGPT,
			Peers:   []string{"http://127.0.0.1:1"},
			Logger:  quietLogger(),
		}
		tc.cfg(&cfg)
		srv, err := New(cfg)
		if err == nil {
			srv.Close()
			t.Fatalf("%s: New accepted the config", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New refused with %q, want it to name %q", tc.name, err, tc.want)
		}
	}
}

// TestReplicateServesDurableKindsOnly: GET /v1/replicate serves one log
// per kind and corpus — evidence by default, memory with kind=memory — and
// answers 404 for a kind this replica keeps no durable log of.
func TestReplicateServesDurableKindsOnly(t *testing.T) {
	status := func(ts *httptest.Server, query string) int {
		resp, err := http.Get(ts.URL + "/v1/replicate?" + query)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	_, volatile := newTestServer(t, func(c *Config) { c.Memory = true })
	_, durable := newTestServer(t, func(c *Config) {
		c.StoreDir, c.Memory, c.MemoryDir = t.TempDir(), true, t.TempDir()
	})
	for _, tc := range []struct {
		ts    *httptest.Server
		query string
		want  int
	}{
		{volatile, "corpus=bird", http.StatusNotFound},
		{volatile, "corpus=bird&kind=memory", http.StatusNotFound},
		{durable, "corpus=bird", http.StatusOK},
		{durable, "corpus=bird&kind=evidence", http.StatusOK},
		{durable, "corpus=bird&kind=memory", http.StatusOK},
		{durable, "kind=memory", http.StatusOK},
		{durable, "corpus=bird&kind=traces", http.StatusNotFound},
		{durable, "corpus=nope&kind=memory", http.StatusNotFound},
	} {
		if got := status(tc.ts, tc.query); got != tc.want {
			t.Errorf("durable=%v ?%s: status %d, want %d", tc.ts == durable, tc.query, got, tc.want)
		}
	}
}

// TestMemoryDeclineReasons: when the memory tier declines, the
// memory.lookup span names why — no candidate offered, or the reason the
// offered one was rejected — and the request is answered by the pipeline.
// Each rejected pattern was offered on its own exact phrasing, so it is
// decayed exactly once.
func TestMemoryDeclineReasons(t *testing.T) {
	// An example whose gold SQL the exact path offers: its literals all
	// appear in the question.
	var e dataset.Example
	for _, c := range testCorpus(t).Dev {
		probe, err := qmemory.New(qmemory.Options{})
		if err != nil {
			t.Fatal(err)
		}
		probe.Admit(c.DB, c.Question, "", c.GoldSQL, "")
		if _, ok := probe.Lookup(c.DB, c.Question); ok {
			e = c
			break
		}
	}
	if e.ID == "" {
		t.Fatal("no dev example's gold SQL is servable on its own phrasing")
	}

	for _, tc := range []struct {
		name    string // the subtest, when not decline
		decline string
		sql     string // "" plants nothing
		wrongFP bool   // plant sql with a fingerprint its result does not have
	}{
		{decline: "no_candidate"},
		{decline: "unparsable", sql: "SELECT FROM nothing WHERE"},
		// A name that does not bind fails at Prepare, as a parse error does.
		{name: "unbound", decline: "unparsable", sql: "SELECT * FROM no_such_table"},
		{decline: "exec_error", sql: "SELECT NOSUCH()"},
		{decline: "fingerprint", sql: e.GoldSQL, wrongFP: true},
		{decline: "judge", sql: "SELECT NULL"},
	} {
		t.Run(cmp.Or(tc.name, tc.decline), func(t *testing.T) {
			dir := t.TempDir()
			srv, ts := newTestServer(t, func(cfg *Config) { cfg.Memory, cfg.MemoryDir = true, dir })
			sess, _ := srv.reg.Session(e.DB)
			mem := srv.memories["bird"]
			if tc.sql != "" {
				fp := "not-the-result"
				if stmt, _, err := sess.DB.Engine.PrepareCached(tc.sql); err == nil && !tc.wrongFP {
					if res, err := stmt.Exec(); err == nil {
						if srv.judgedCorrect(sess, e, res) {
							t.Fatalf("%q is judged correct for %s", tc.sql, e.ID)
						}
						fp = qmemory.Fingerprint(res.Rows)
					}
				}
				mem.Admit(e.DB, e.Question, "", tc.sql, fp)
			}

			resp, data := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
			if resp.StatusCode != 200 {
				t.Fatalf("/v1/query = %d: %s", resp.StatusCode, data)
			}
			var qr api.QueryResponse
			if err := json.Unmarshal(data, &qr); err != nil {
				t.Fatal(err)
			}
			if qr.Source != api.SourceGenerated && qr.Source != api.SourceCache {
				t.Errorf("source = %q, want the pipeline tier's", qr.Source)
			}

			tresp, err := http.Get(ts.URL + "/v1/traces/" + resp.Header.Get(obs.TraceIDHeader))
			if err != nil {
				t.Fatal(err)
			}
			var rec obs.TraceRecord
			err = json.NewDecoder(tresp.Body).Decode(&rec)
			tresp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var attrs map[string]any
			for _, sp := range rec.Spans {
				if sp.Name == "memory.lookup" {
					attrs = attrMap(sp.Attrs)
				}
			}
			if attrs["decline"] != tc.decline || attrs["match"] != "none" {
				t.Errorf("memory.lookup attrs %v; want decline=%s match=none", attrs, tc.decline)
			}
			for _, gone := range []string{"hit", "verified"} {
				if _, ok := attrs[gone]; ok {
					t.Errorf("memory.lookup still carries %q: %v", gone, attrs)
				}
			}

			if tc.sql == "" {
				return
			}
			// The memory's store holds each pattern's last state; closing
			// the server releases it.
			id := qmemory.PatternID(e.DB, tc.sql)
			srv.Close()
			st, err := qmemory.OpenStore(filepath.Join(dir, "bird"), wal.Options{Manifest: evstore.Manifest("bird", 0)})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			failures := int64(-1)
			st.Load(func(r qmemory.Record) {
				if r.ID == id {
					failures = r.Failures
				}
			})
			if failures < 0 {
				t.Fatal("planted pattern is gone")
			}
			if failures != 1 {
				t.Errorf("planted pattern decayed %d times, want once", failures)
			}
		})
	}
}

// TestMemoryNeverWrites: a memory record whose SQL is a write never runs
// against a served database (ROADMAP finding M4). Replication refuses it
// at Inject, and a record that reaches the memory some other way — here a
// durable store written before the refusal existed — is declined by the
// memory tier's read-only check and demoted. Either way the question is
// answered by the pipeline and district keeps its 10 rows.
func TestMemoryNeverWrites(t *testing.T) {
	const del = "DELETE FROM district"
	i := slices.IndexFunc(testCorpus(t).Dev, func(e dataset.Example) bool { return e.DB == "financial" })
	if i < 0 {
		t.Fatal("no financial dev question")
	}
	e := testCorpus(t).Dev[i]
	rec := qmemory.Record{ID: qmemory.PatternID(e.DB, del), DB: e.DB, SQL: del, Fingerprint: "fp",
		Confidence: 0.99, Successes: 100, Phrasings: []string{e.Question}}

	ask := func(t *testing.T, srv *Server, url string) map[string]any {
		t.Helper()
		resp, data := postJSON(t, url+"/v1/query", api.QueryRequest{DB: e.DB, Question: e.Question})
		if resp.StatusCode != 200 {
			t.Fatalf("/v1/query = %d: %s", resp.StatusCode, data)
		}
		var qr api.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Source == api.SourceMemory || qr.SQL == del {
			t.Errorf("answered %q from %s", qr.SQL, qr.Source)
		}
		sess, _ := srv.reg.Session(e.DB)
		rows, err := sess.DB.Engine.Query("SELECT COUNT(*) FROM district")
		if err != nil || rows.Cell(0, 0).I != 10 {
			t.Fatalf("district after the question: %v, err %v; want 10 rows", rows, err)
		}
		tresp, err := http.Get(url + "/v1/traces/" + resp.Header.Get(obs.TraceIDHeader))
		if err != nil {
			t.Fatal(err)
		}
		defer tresp.Body.Close()
		var tr obs.TraceRecord
		if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
		for _, sp := range tr.Spans {
			if sp.Name == "memory.lookup" {
				return attrMap(sp.Attrs)
			}
		}
		t.Fatal("no memory.lookup span")
		return nil
	}

	t.Run("inject", func(t *testing.T) {
		srv, ts := newTestServer(t, func(cfg *Config) { cfg.Memory = true })
		mem := srv.memories["bird"]
		if applied, err := mem.Inject(rec); applied || err != nil {
			t.Fatalf("Inject(%q) = %v, %v; want refused", del, applied, err)
		}
		ask(t, srv, ts.URL)
		if st := mem.Stats(); st.Refused != 1 || st.Patterns != 0 {
			t.Errorf("memory stats %+v; want one refusal and no pattern", st)
		}
	})

	t.Run("restored", func(t *testing.T) {
		dir := t.TempDir()
		st, err := qmemory.OpenStore(filepath.Join(dir, "bird"), wal.Options{Manifest: evstore.Manifest("bird", 0)})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		srv, ts := newTestServer(t, func(cfg *Config) { cfg.Memory, cfg.MemoryDir = true, dir })
		if attrs := ask(t, srv, ts.URL); attrs["decline"] != "no_candidate" {
			t.Errorf("memory.lookup attrs %v; want decline=no_candidate", attrs)
		}
		mem := srv.memories["bird"]
		if st := mem.Stats(); st.Refused != 1 || st.Patterns != 0 {
			t.Errorf("memory stats %+v; want the stored write refused on replay and no pattern", st)
		}
	})
}

// TestPrepareReadRefusesWrites: both tiers prepare through prepareRead,
// which refuses every statement kind but SELECT before it is prepared.
func TestPrepareReadRefusesWrites(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	sess, _ := srv.reg.Session("financial")
	for _, sql := range []string{
		"DELETE FROM district",
		"  update district SET A2 = 'x'",
		"/* read? */ INSERT INTO district (district_id) VALUES (99)",
		"CREATE TABLE t (x INTEGER)",
	} {
		if _, _, err := prepareRead(sess, sql); !errors.Is(err, errNotSelect) {
			t.Errorf("prepareRead(%q) = %v, want errNotSelect", sql, err)
		}
	}
	if _, _, err := prepareRead(sess, "-- a read\nselect COUNT(*) FROM district"); err != nil {
		t.Errorf("prepareRead of a SELECT: %v", err)
	}
	if rows, _ := sess.DB.Engine.Query("SELECT COUNT(*) FROM district"); rows.Cell(0, 0).I != 10 {
		t.Errorf("district holds %v rows, want 10", rows.Cell(0, 0))
	}
}
