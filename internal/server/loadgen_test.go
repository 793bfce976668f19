package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loadOptions configures one load-generation run against a server's
// /v1/query: total requests drawn round-robin from payloads, issued by
// concurrency workers.
type loadOptions struct {
	// baseURL is the server root, e.g. "http://127.0.0.1:8080".
	baseURL string
	// payloads are pre-marshalled JSON request bodies, replayed
	// round-robin.
	payloads [][]byte
	// concurrency is the worker count.
	concurrency int
	// total is the number of requests to issue; 0 defaults to
	// len(payloads) (one full replay of the question set).
	total int
}

// loadReport summarises one load run. Latencies are end-to-end from the
// client's side, in microseconds.
type loadReport struct {
	requests int
	errors   int
	// qps is requests (including failed ones) per second of wall time.
	qps       float64
	p50Micros float64
	p99Micros float64
}

// runLoad replays the payloads against the endpoint and aggregates a
// report. A non-2xx response counts as an error but still contributes its
// latency; transport failures abort the run.
func runLoad(ctx context.Context, opts loadOptions) (*loadReport, error) {
	if len(opts.payloads) == 0 {
		return nil, errors.New("server: loadOptions.payloads is empty")
	}
	if opts.total <= 0 {
		opts.total = len(opts.payloads)
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: opts.concurrency,
	}}
	url := opts.baseURL + pathQuery

	var next atomic.Int64
	var errCount atomic.Int64
	latencies := make([][]int64, opts.concurrency)
	errs := make([]error, opts.concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opts.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(opts.total) || ctx.Err() != nil {
					return
				}
				body := opts.payloads[i%int64(len(opts.payloads))]
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
				if err != nil {
					errs[w] = err
					return
				}
				req.Header.Set("Content-Type", "application/json")
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					errs[w] = fmt.Errorf("request %d: %w", i, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				latencies[w] = append(latencies[w], time.Since(t0).Microseconds())
				if resp.StatusCode < 200 || resp.StatusCode >= 300 {
					errCount.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var all []int64
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	return buildReport(all, int(errCount.Load()), elapsed), nil
}

// buildReport aggregates raw request latencies into a loadReport.
func buildReport(latencies []int64, errors int, elapsed time.Duration) *loadReport {
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	report := &loadReport{requests: len(latencies), errors: errors}
	if elapsed > 0 {
		report.qps = float64(len(latencies)) / elapsed.Seconds()
	}
	report.p50Micros = float64(percentile(latencies, 0.50))
	report.p99Micros = float64(percentile(latencies, 0.99))
	return report
}

// percentile returns the p-th percentile of sorted latencies using the
// nearest-rank method.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
