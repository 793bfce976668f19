package server

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// tokenBucket is a continuously refilled token bucket: capacity burst,
// refill rate tokens/second. It implements the server's rate limit.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: time.Now()}
}

// take consumes one token if available. When the bucket is empty it
// returns false plus the time until one token will have refilled — the
// Retry-After hint.
func (tb *tokenBucket) take(now time.Time) (bool, time.Duration) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	elapsed := now.Sub(tb.last).Seconds()
	if elapsed > 0 {
		tb.tokens = math.Min(tb.burst, tb.tokens+elapsed*tb.rate)
		tb.last = now
	}
	if tb.tokens >= 1 {
		tb.tokens--
		return true, 0
	}
	need := (1 - tb.tokens) / tb.rate
	return false, time.Duration(need * float64(time.Second))
}

// admission is the server's two-stage admission controller: a token-bucket
// rate limit (reject with 429 when sustained arrival rate exceeds the
// configured budget) in front of a bounded in-flight semaphore (reject
// with 503 when concurrency exceeds capacity). Either stage disabled is
// simply nil.
type admission struct {
	bucket *tokenBucket  // nil = unlimited rate
	slots  chan struct{} // nil = unlimited concurrency

	admitted    atomic.Int64
	rateLimited atomic.Int64
	overloaded  atomic.Int64
	inflight    atomic.Int64
}

func newAdmission(rate float64, burst, maxInFlight int) *admission {
	a := &admission{}
	if rate > 0 {
		a.bucket = newTokenBucket(rate, burst)
	}
	if maxInFlight > 0 {
		a.slots = make(chan struct{}, maxInFlight)
	}
	return a
}

// ticket is one admitted request's hold on the controller. The caller
// keeps it on its stack; admit fills it and release frees it.
type ticket struct {
	a *admission // nil once released, or when never admitted
}

// release returns the ticket's in-flight slot. Only the first call of an
// admitted ticket frees anything.
func (t *ticket) release() {
	if t.a == nil {
		return
	}
	t.a.inflight.Add(-1)
	if t.a.slots != nil {
		<-t.a.slots
	}
	t.a = nil
}

// admit decides one request. On success it fills t, which must be
// released when the request finishes, and returns status 0. On rejection
// it returns the HTTP status to serve (429 or 503) and a Retry-After hint.
func (a *admission) admit(t *ticket) (status int, retryAfter time.Duration) {
	if a.bucket != nil {
		ok, wait := a.bucket.take(time.Now())
		if !ok {
			a.rateLimited.Add(1)
			// The token time is exact but every starved client computes the
			// same one; jitter spreads their retries so the refilled token
			// is not stampeded.
			return 429, jitterRetry(wait)
		}
	}
	if a.slots != nil {
		select {
		case a.slots <- struct{}{}:
		default:
			a.overloaded.Add(1)
			// The queue is full of in-flight work; suggest retrying after
			// roughly one typical request's worth of backoff. Unlike the
			// rate limiter there is no exact time to compute — a slot frees
			// whenever some request finishes — so the jitter does double
			// duty: it spreads retries AND decorrelates clients that were
			// all rejected by the same full queue.
			return 503, jitterRetry(250 * time.Millisecond)
		}
	}
	a.admitted.Add(1)
	a.inflight.Add(1)
	t.a = a
	return 0, 0
}

// jitterRetry spreads a nominal Retry-After hint over [d, 1.5d): never
// earlier than the base (a 429's token genuinely does not exist before
// then), up to half again later so simultaneous rejects decorrelate.
func jitterRetry(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d + time.Duration(rand.Int64N(int64(d/2+1)))
}

// AdmissionStats is the /metrics view of the admission controller.
type AdmissionStats struct {
	// Admitted counts requests that passed both stages.
	Admitted int64 `json:"admitted"`
	// RateLimited counts 429 rejections from the token bucket.
	RateLimited int64 `json:"rate_limited"`
	// Overloaded counts 503 rejections from the in-flight semaphore.
	Overloaded int64 `json:"overloaded"`
	// Inflight is the number of admitted requests currently executing.
	Inflight int64 `json:"inflight"`
}

func (a *admission) stats() AdmissionStats {
	return AdmissionStats{
		Admitted:    a.admitted.Load(),
		RateLimited: a.rateLimited.Load(),
		Overloaded:  a.overloaded.Load(),
		Inflight:    a.inflight.Load(),
	}
}
