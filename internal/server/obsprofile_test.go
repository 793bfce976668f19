package server

import (
	"context"
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/seed"
)

func benchServer(b *testing.B, traceCapacity int, slow time.Duration) (string, func()) {
	srv, err := New(Config{
		Corpora:            []*dataset.Corpus{dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7})},
		Client:             llm.NewSimulator(),
		Variant:            seed.VariantGPT,
		MaxInFlight:        1024,
		RequestTimeout:     time.Minute,
		TraceCapacity:      traceCapacity,
		SlowQueryThreshold: slow,
		Logger:             slog.New(slog.DiscardHandler),
	})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close(); srv.Close() }
}

func runBenchLoad(b *testing.B, base string) {
	corpus := dataset.BuildBIRD(dataset.BIRDOptions{Seed: 7})
	payloads := make([][]byte, 0, len(corpus.Dev))
	for _, e := range corpus.Dev {
		body, _ := json.Marshal(api.QueryRequest{DB: e.DB, Question: e.Question})
		payloads = append(payloads, body)
	}
	ctx := context.Background()
	if _, err := runLoad(ctx, loadOptions{baseURL: base, payloads: payloads, concurrency: 8}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := runLoad(ctx, loadOptions{baseURL: base, payloads: payloads, concurrency: 16, total: b.N}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkQueryTraced(b *testing.B) {
	base, stop := benchServer(b, 0, 25*time.Millisecond)
	defer stop()
	runBenchLoad(b, base)
}

func BenchmarkQueryUntraced(b *testing.B) {
	base, stop := benchServer(b, -1, 0)
	defer stop()
	runBenchLoad(b, base)
}
