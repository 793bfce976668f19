package server

import (
	"testing"
	"time"
)

func TestTokenBucketRefill(t *testing.T) {
	tb := newTokenBucket(10, 2) // 10 tokens/s, burst 2
	now := time.Now()
	if ok, _ := tb.take(now); !ok {
		t.Fatal("first take from a full bucket denied")
	}
	if ok, _ := tb.take(now); !ok {
		t.Fatal("second take within burst denied")
	}
	ok, wait := tb.take(now)
	if ok {
		t.Fatal("take from an empty bucket allowed")
	}
	if wait <= 0 || wait > 100*time.Millisecond {
		t.Fatalf("retry-after = %v, want (0, 100ms] at 10 tokens/s", wait)
	}
	// After the advertised wait a token must exist.
	if ok, _ := tb.take(now.Add(wait)); !ok {
		t.Fatal("take after the advertised retry-after still denied")
	}
	// Refill never exceeds burst.
	if ok, _ := tb.take(now.Add(time.Hour)); !ok {
		t.Fatal("take after long idle denied")
	}
	if ok, _ := tb.take(now.Add(time.Hour)); !ok {
		t.Fatal("second take after long idle denied (burst 2)")
	}
	if ok, _ := tb.take(now.Add(time.Hour)); ok {
		t.Fatal("third take after long idle allowed — bucket exceeded burst")
	}
}

func TestAdmissionRateLimit(t *testing.T) {
	a := newAdmission(1, 1, 0) // 1 req/s, burst 1, no in-flight cap
	var tk ticket
	if status, _ := a.admit(&tk); status != 0 {
		t.Fatalf("first request rejected with %d", status)
	}
	tk.release()
	status, retry := a.admit(new(ticket))
	if status != 429 {
		t.Fatalf("second immediate request status = %d, want 429", status)
	}
	if retry <= 0 {
		t.Fatal("429 carries no Retry-After hint")
	}
	st := a.stats()
	if st.Admitted != 1 || st.RateLimited != 1 {
		t.Errorf("stats = %+v, want 1 admitted / 1 rate-limited", st)
	}
}

func TestAdmissionInFlightBound(t *testing.T) {
	a := newAdmission(0, 0, 2) // no rate limit, 2 slots
	var t1, t2, t3 ticket
	if status, _ := a.admit(&t1); status != 0 {
		t.Fatalf("first admit rejected: %d", status)
	}
	if status, _ := a.admit(&t2); status != 0 {
		t.Fatal("second admit rejected with a free slot")
	}
	status, retry := a.admit(new(ticket))
	if status != 503 {
		t.Fatalf("over-capacity status = %d, want 503", status)
	}
	if retry <= 0 {
		t.Fatal("503 carries no Retry-After hint")
	}
	if got := a.stats().Inflight; got != 2 {
		t.Fatalf("Inflight = %d, want 2", got)
	}
	t1.release()
	t1.release() // double release must not free a second slot
	if status, _ := a.admit(&t3); status != 0 {
		t.Fatal("admit after release rejected")
	}
	if status, _ := a.admit(new(ticket)); status != 503 {
		t.Fatalf("double release freed an extra slot (status %d, want 503)", status)
	}
	t2.release()
	st := a.stats()
	if st.Overloaded != 2 {
		t.Errorf("Overloaded = %d, want 2", st.Overloaded)
	}
}

func TestAdmissionDisabled(t *testing.T) {
	a := newAdmission(0, 0, 0)
	for i := 0; i < 100; i++ {
		var tk ticket
		if status, _ := a.admit(&tk); status != 0 {
			t.Fatalf("unlimited admission rejected request %d with %d", i, status)
		}
		defer tk.release()
	}
}

// TestAdmissionAllocations: admitting and releasing a request, through
// both stages, allocates nothing — the ticket lives on the caller's stack.
func TestAdmissionAllocations(t *testing.T) {
	a := newAdmission(1e9, 1<<20, 4)
	allocs := testing.AllocsPerRun(1000, func() {
		var tk ticket
		if status, _ := a.admit(&tk); status != 0 {
			t.Fatalf("admit rejected with %d", status)
		}
		tk.release()
	})
	if allocs != 0 {
		t.Errorf("admit plus release allocates %v times, want 0", allocs)
	}
}
