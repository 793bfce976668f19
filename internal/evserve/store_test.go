// Store-integration tests live in the external test package: evstore (the
// store implementation) imports evserve, so an internal test file could
// not import it back without a cycle.
package evserve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/evserve"
	"repro/internal/evstore"
	"repro/internal/pipeline"
)

// tracedGen returns a deterministic traced generator that counts calls.
// Traces carry fixed wall times so persisted and regenerated runs are
// trivially distinguishable byte-for-byte.
func tracedGen(calls *atomic.Int64) evserve.TracedFunc {
	return func(ctx context.Context, db, question string) (string, *pipeline.Trace, error) {
		n := calls.Add(1)
		return db + "/" + question, &pipeline.Trace{
			Graph: "test_graph",
			Stages: []pipeline.StageTrace{
				{Stage: "extract", WallMicros: 11, Tokens: int(n)},
				{Stage: "generate", Deps: []string{"extract"}, WallMicros: 29, Tokens: 7},
			},
			WallMicros:   40,
			SerialMicros: 40,
		}, nil
	}
}

// TestWarmRestartByteIdenticalZeroGenerations is the tentpole's golden
// test: kill a service with a populated store, restart over the same
// directory, and every response — evidence and trace — must be
// byte-identical to the pre-restart one with zero generator invocations.
func TestWarmRestartByteIdenticalZeroGenerations(t *testing.T) {
	dir := t.TempDir()
	questions := make([]string, 12)
	for i := range questions {
		questions[i] = fmt.Sprintf("question-%02d", i)
	}

	store, err := evstore.Open(dir, evstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	svc := evserve.New(evserve.Options{
		Variant:        "golden",
		GenerateTraced: tracedGen(&calls),
		Store:          store,
	})
	ctx := context.Background()
	want := make(map[string][]byte, len(questions))
	for _, q := range questions {
		ev, err := svc.GenerateTraced(ctx, "bird-db", q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = b
	}
	if n := calls.Load(); n != int64(len(questions)) {
		t.Fatalf("first life ran %d generations, want %d", n, len(questions))
	}
	svc.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: fresh store handle over the same directory, a generator
	// that must never run.
	restored, err := evstore.Open(dir, evstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	svc2 := evserve.New(evserve.Options{
		Variant: "golden",
		GenerateTraced: func(ctx context.Context, db, question string) (string, *pipeline.Trace, error) {
			t.Errorf("generator invoked after warm restart for %s/%s", db, question)
			return "", nil, errors.New("must not generate")
		},
		Store: restored,
	})
	defer svc2.Close()

	st := svc2.Stats()
	if st.Restored != int64(len(questions)) {
		t.Fatalf("Restored = %d, want %d", st.Restored, len(questions))
	}
	for _, q := range questions {
		ev, err := svc2.GenerateTraced(ctx, "bird-db", q)
		if err != nil {
			t.Fatal(err)
		}
		if !ev.CacheHit {
			t.Fatalf("restarted service missed cache for %q", q)
		}
		got, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		// The pre-restart responses were fresh generations (CacheHit
		// false); the replayed ones are hits. Everything else — evidence
		// text and the full trace — must match byte for byte.
		var a, b evserve.Evidence
		if err := json.Unmarshal(want[q], &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(got, &b); err != nil {
			t.Fatal(err)
		}
		a.CacheHit, b.CacheHit = false, false
		ab, bb := mustMarshal(t, a), mustMarshal(t, b)
		if string(ab) != string(bb) {
			t.Fatalf("response for %q not byte-identical after restart:\n before %s\n after  %s", q, ab, bb)
		}
	}
	if st := svc2.Stats(); st.Generations != 0 {
		t.Fatalf("restarted service ran %d generations, want 0", st.Generations)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCloseFlushesStoreBeforeReturn is the regression test for the
// shutdown-ordering fix: Close must wait for running generations and then
// flush the store, so every accepted write is on disk before the store's
// own Close.
func TestCloseFlushesStoreBeforeReturn(t *testing.T) {
	dir := t.TempDir()
	store, err := evstore.Open(dir, evstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var calls atomic.Int64
	svc := evserve.New(evserve.Options{
		Variant:        "flush",
		GenerateTraced: tracedGen(&calls),
		Workers:        4,
		Store:          store,
	})
	reqs := make([]evserve.Request, 8)
	for i := range reqs {
		reqs[i] = evserve.Request{DB: "db", Question: fmt.Sprintf("q%d", i)}
	}
	if _, err := svc.GenerateAll(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	// Service Close alone (the store is still open, its own Close not yet
	// called) must leave them all in the OS.
	if wal := readFile(t, filepath.Join(dir, "wal.evs")); bytes.Count(wal, []byte{'\n'}) != len(reqs) {
		t.Fatalf("service Close did not flush the store: %q", wal)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := evstore.Open(dir, evstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if n := reopened.Len(); n != len(reqs) {
		t.Fatalf("clean shutdown lost writes: %d of %d entries durable", n, len(reqs))
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// failingStore implements evserve.Store and fails every operation, to pin
// the contract that store failures surface as counters, never as request
// errors.
type failingStore struct{}

func (failingStore) Load(func(evserve.Key, evserve.Entry)) error { return errors.New("load broken") }
func (failingStore) Append(evserve.Key, evserve.Entry) error     { return errors.New("append broken") }
func (failingStore) Flush() error                                { return errors.New("flush broken") }

func TestStoreFailuresAreCountedNotFatal(t *testing.T) {
	var calls atomic.Int64
	svc := evserve.New(evserve.Options{
		Variant:        "degraded",
		GenerateTraced: tracedGen(&calls),
		Store:          failingStore{},
	})
	ev, err := svc.GenerateTraced(context.Background(), "db", "q")
	if err != nil {
		t.Fatalf("request failed because the store is broken: %v", err)
	}
	if ev.Text != "db/q" {
		t.Fatalf("evidence = %q", ev.Text)
	}
	svc.Close()
	st := svc.Stats()
	// Load at New, Append at generation, Flush at Close: three failures.
	if st.StoreErrors != 3 {
		t.Errorf("StoreErrors = %d, want 3 (load, append, flush)", st.StoreErrors)
	}
	if st.StoreAppends != 0 || st.Restored != 0 {
		t.Errorf("appends/restored = %d/%d, want 0/0 on a broken store", st.StoreAppends, st.Restored)
	}
}

// TestRestoreFiltersOtherVariants: corpus stores are shared across
// variants (experiments.Env wires one bird store into gpt, deepseek and
// revised services), so replay must restore only this service's variant —
// otherwise foreign entries inflate the cache and, under a small
// CacheCapacity, evict the entries the service can actually hit.
func TestRestoreFiltersOtherVariants(t *testing.T) {
	dir := t.TempDir()
	store, err := evstore.Open(dir, evstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const perVariant = 8
	for _, variant := range []string{"seed_gpt", "seed_deepseek", "seed_revised"} {
		for i := 0; i < perVariant; i++ {
			k := evserve.KeyFor("db", variant, fmt.Sprintf("q%d", i))
			if err := store.Append(k, evserve.Entry{Evidence: variant}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := evstore.Open(dir, evstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	var calls atomic.Int64
	// A cache barely big enough for this variant's entries: foreign-variant
	// replay would evict our own.
	svc := evserve.New(evserve.Options{
		Variant:        "seed_deepseek",
		GenerateTraced: tracedGen(&calls),
		CacheCapacity:  perVariant,
		Store:          reopened,
	})
	defer svc.Close()
	if st := svc.Stats(); st.Restored != perVariant {
		t.Fatalf("Restored = %d, want %d (own variant only)", st.Restored, perVariant)
	}
	for i := 0; i < perVariant; i++ {
		ev, err := svc.GenerateTraced(context.Background(), "db", fmt.Sprintf("q%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !ev.CacheHit || ev.Text != "seed_deepseek" {
			t.Fatalf("q%d: hit=%v text=%q — foreign variants polluted the replay", i, ev.CacheHit, ev.Text)
		}
	}
	if calls.Load() != 0 {
		t.Fatalf("generator ran %d times on a fully persisted variant", calls.Load())
	}
}

// TestRepeatCloseAfterStoreClosedNoPhantomErrors: Close is idempotent,
// including its store flush — a second Close after the store's owner
// closed it must not surface a phantom StoreError.
func TestRepeatCloseAfterStoreClosedNoPhantomErrors(t *testing.T) {
	store, err := evstore.Open(t.TempDir(), evstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	svc := evserve.New(evserve.Options{Variant: "v", GenerateTraced: tracedGen(&calls), Store: store})
	if _, err := svc.GenerateTraced(context.Background(), "db", "q"); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	svc.Close() // owner's store is gone; must not flush again
	if st := svc.Stats(); st.StoreErrors != 0 {
		t.Fatalf("StoreErrors = %d after repeat Close, want 0", st.StoreErrors)
	}
}

// TestCacheNamespaceRule pins the one shared namespace rule.
func TestCacheNamespaceRule(t *testing.T) {
	if got := evserve.CacheNamespace("seed_gpt", "bird"); got != "seed_gpt" {
		t.Errorf("bird namespace = %q", got)
	}
	if got := evserve.CacheNamespace("seed_gpt", "spider"); got != "seed_gpt_spider" {
		t.Errorf("spider namespace = %q", got)
	}
}

// TestStoreAppendsCounted: the happy-path counters.
func TestStoreAppendsCounted(t *testing.T) {
	store, err := evstore.Open(t.TempDir(), evstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var calls atomic.Int64
	svc := evserve.New(evserve.Options{Variant: "c", GenerateTraced: tracedGen(&calls), Store: store})
	defer svc.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := svc.GenerateTraced(ctx, "db", fmt.Sprintf("q%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Cache hit: no new append.
	if _, err := svc.GenerateTraced(ctx, "db", "q0"); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.StoreAppends != 3 || st.StoreErrors != 0 {
		t.Errorf("StoreAppends/StoreErrors = %d/%d, want 3/0", st.StoreAppends, st.StoreErrors)
	}
	if store.Len() != 3 {
		t.Errorf("store holds %d entries, want 3", store.Len())
	}
}
