package fleet

import (
	"testing"
	"time"
)

// The breaker tests drive time explicitly — no sleeps, no flakes.

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if !b.Allow(now) {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Record(false, now)
	}
	// A success between failures resets the consecutive count: only
	// *consecutive* failures signal a broken replica, not background noise.
	b.Record(true, now)
	for i := 0; i < 2; i++ {
		b.Record(false, now)
	}
	if state, _ := b.State(now); state != "closed" {
		t.Fatalf("breaker tripped on interleaved failures (state %s)", state)
	}
	b.Record(false, now)
	if state, trips := b.State(now); state != "open" || trips != 1 {
		t.Fatalf("state %s trips %d after 3 consecutive failures, want open/1", state, trips)
	}
	if b.Allow(now) {
		t.Fatal("open breaker admitted a request")
	}
}

func TestBreakerProbationProbeAndReadmission(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(1, time.Second)
	b.Record(false, now)
	if b.Allow(now.Add(500 * time.Millisecond)) {
		t.Fatal("breaker admitted a request during probation")
	}
	probeAt := now.Add(1100 * time.Millisecond)
	if !b.Allow(probeAt) {
		t.Fatal("breaker refused the probe after probation expired")
	}
	// Exactly one probe: concurrent callers must not stampede a replica
	// that just came back.
	if b.Allow(probeAt) {
		t.Fatal("breaker admitted a second concurrent probe")
	}
	b.Record(true, probeAt)
	if state, _ := b.State(probeAt); state != "closed" {
		t.Fatalf("probe success left state %s, want closed", state)
	}
	if !b.Allow(probeAt) {
		t.Fatal("re-admitted replica refused a request")
	}
}

func TestBreakerFlappingDoublesProbation(t *testing.T) {
	const base, slack = 250 * time.Millisecond, 100 * time.Millisecond
	now := time.Unix(0, 0)
	b := NewBreaker(1, base)
	b.Record(false, now) // trip #1: probation 250ms

	// Each failed probe doubles probation, up to 16x the base: 4s. The
	// doubling after that would be 8s, and the cap pins 4s.
	wait := base
	for _, want := range []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second, 4 * time.Second} {
		now = now.Add(wait + slack)
		if !b.Allow(now) {
			t.Fatalf("probe after %v probation refused", wait)
		}
		b.Record(false, now)
		if b.Allow(now.Add(want - slack)) {
			t.Fatalf("flapping replica re-admitted before its %v probation expired", want)
		}
		wait = want
	}
	if !b.Allow(now.Add(wait + slack)) {
		t.Fatal("probation exceeded the 16x cap")
	}

	// A probe success resets probation back to the base, so a healed
	// replica is not stuck with its flapping history.
	b.Record(true, now.Add(wait+slack))
	now = now.Add(5 * time.Second)
	b.Record(false, now)
	if b.Allow(now.Add(base - slack)) {
		t.Fatal("probation did not apply after reset")
	}
	if !b.Allow(now.Add(base + slack)) {
		t.Fatal("probation did not reset to base after a healthy stretch")
	}
}

func TestBreakerForceOpen(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(5, time.Second)
	b.ForceOpen(now)
	if b.Allow(now) {
		t.Fatal("force-opened breaker admitted a request")
	}
	if state, trips := b.State(now); state != "open" || trips != 1 {
		t.Fatalf("state %s trips %d after ForceOpen, want open/1", state, trips)
	}
	// Repeat ForceOpen while open is a no-op, not another trip.
	b.ForceOpen(now)
	if _, trips := b.State(now); trips != 1 {
		t.Fatalf("repeat ForceOpen counted %d trips, want 1", trips)
	}
}
