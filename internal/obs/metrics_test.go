package obs

import (
	"strings"
	"testing"
)

func TestHistogramQuantiles(t *testing.T) {
	tests := []struct {
		name     string
		capacity int
		observe  []int64
		q        map[float64]int64
	}{
		{
			name:     "empty",
			capacity: 8,
			observe:  nil,
			q:        map[float64]int64{0: 0, 0.5: 0, 0.99: 0, 1: 0},
		},
		{
			name:     "single sample",
			capacity: 8,
			observe:  []int64{42},
			q:        map[float64]int64{0: 42, 0.5: 42, 0.9: 42, 1: 42},
		},
		{
			name:     "exact deciles",
			capacity: 16,
			observe:  []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
			// nearest-rank: rank = ceil(q*10)
			q: map[float64]int64{0: 10, 0.1: 10, 0.5: 50, 0.9: 90, 0.99: 100, 1: 100},
		},
		{
			name:     "unsorted input",
			capacity: 16,
			observe:  []int64{90, 10, 50, 30, 70},
			q:        map[float64]int64{0.5: 50, 1: 90, 0: 10},
		},
		{
			name:     "saturating ring keeps newest window",
			capacity: 4,
			// 8 observations into capacity 4: ring holds the last 4 (5,6,7,8).
			observe: []int64{1, 2, 3, 4, 5, 6, 7, 8},
			q:       map[float64]int64{0: 5, 0.5: 6, 1: 8},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(tc.capacity)
			for _, v := range tc.observe {
				h.Observe(v)
			}
			if got := h.Count(); got != int64(len(tc.observe)) {
				t.Fatalf("Count = %d, want %d", got, len(tc.observe))
			}
			for q, want := range tc.q {
				if got := h.Quantiles(q)[0]; got != want {
					t.Errorf("Quantiles(%v) = %d, want %d", q, got, want)
				}
			}
		})
	}
}

func TestHistogramSaturatedCountAndSum(t *testing.T) {
	h := NewHistogram(4)
	var sum int64
	for i := int64(1); i <= 10; i++ {
		h.Observe(i)
		sum += i
	}
	if h.Count() != 10 {
		t.Fatalf("Count = %d, want 10 (whole history, not window)", h.Count())
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %d, want %d", h.Sum(), sum)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("reqs_total", "requests", L("route", "/v1/query"))
	c2 := r.Counter("reqs_total", "requests", L("route", "/v1/query"))
	if c1 != c2 {
		t.Fatal("re-registering same name+labels should return the same counter")
	}
	c3 := r.Counter("reqs_total", "requests", L("route", "/v1/schema"))
	if c1 == c3 {
		t.Fatal("different labels must get a distinct counter")
	}
	h1 := r.Histogram("lat_us", "latency", 0, L("route", "/v1/query"))
	h2 := r.Histogram("lat_us", "latency", 0, L("route", "/v1/query"))
	if h1 != h2 {
		t.Fatal("re-registering same histogram should return the same instance")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("queries_total", "total queries", L("route", "/v1/query"))
	for i := 0; i < 7; i++ {
		c.Inc()
	}
	r.CounterFunc("hits_total", "cache hits", func() int64 { return 12_345_678 })
	r.GaugeFunc("inflight", "in-flight requests", func() float64 { return 2.5 })
	r.GaugeFunc("cache_entries", "entries", func() float64 { return 31 })
	h := r.Histogram("latency_us", "request latency", 16, L("route", "/v1/query"))
	for _, v := range []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE queries_total counter",
		`queries_total{route="/v1/query"} 7`,
		"# TYPE hits_total counter",
		"hits_total 12345678\n",
		"# TYPE inflight gauge",
		"inflight 2.5",
		"cache_entries 31",
		"# TYPE latency_us summary",
		`latency_us{quantile="0.5",route="/v1/query"} 50`,
		`latency_us{quantile="0.9",route="/v1/query"} 90`,
		`latency_us{quantile="0.99",route="/v1/query"} 100`,
		`latency_us_sum{route="/v1/query"} 550`,
		`latency_us_count{route="/v1/query"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", L("q", `he said "hi"`+"\n")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `{q="he said \"hi\"\n"}`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}
