package fleet

import (
	"sync"
	"time"
)

// Breaker states.
const (
	// breakerClosed admits traffic normally.
	breakerClosed = iota
	// breakerOpen ejects the replica: no traffic until probation expires.
	breakerOpen
	// breakerHalfOpen admits exactly one probe request; its outcome
	// decides between re-admission and a longer probation.
	breakerHalfOpen
)

// stateNames renders breaker states for metrics and logs.
var stateNames = [...]string{"closed", "open", "half_open"}

// Breaker is a per-replica circuit breaker: Threshold consecutive
// failures eject the replica for Probation; after probation one probe
// request is admitted, and its outcome either re-admits the replica or
// re-ejects it with doubled probation (capped at 16x its base). Doubling
// is what keeps a flapping replica — one that answers the probe and then
// fails again — from soaking up a retry per probation window forever.
//
// A Breaker is safe for concurrent use. The zero value is not usable;
// construct with NewBreaker.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	probation time.Duration

	state     int
	fails     int           // consecutive failures while closed
	openUntil time.Time     // when the open state expires into half-open
	current   time.Duration // this ejection's probation (doubles on re-ejection)
	probing   bool          // a half-open probe is in flight

	trips int64 // closed->open transitions, for metrics
}

// NewBreaker builds a breaker. threshold <= 0 defaults to 5 consecutive
// failures; probation <= 0 defaults to 1s. A flapping replica's probation
// doubles up to 16x probation.
func NewBreaker(threshold int, probation time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if probation <= 0 {
		probation = time.Second
	}
	return &Breaker{threshold: threshold, probation: probation, current: probation}
}

// Allow reports whether a request may be sent to this replica now. In the
// half-open state only one caller wins the probe slot; everyone else is
// refused until the probe's Record lands.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Before(b.openUntil) {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = false
		fallthrough
	default: // breakerHalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record reports one request outcome. Failures while closed accumulate
// toward ejection; a half-open probe failure re-ejects with doubled
// probation, a probe success closes the breaker and resets probation.
func (b *Breaker) Record(success bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		if success {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.threshold {
			b.trip(now)
		}
	case breakerHalfOpen:
		b.probing = false
		if success {
			b.state = breakerClosed
			b.fails = 0
			b.current = b.probation
			return
		}
		b.current = min(2*b.current, 16*b.probation)
		b.trip(now)
	case breakerOpen:
		// A straggler from before the trip; the open timer already covers it.
	}
}

// ForceOpen ejects the replica immediately — the health prober calls this
// when liveness itself fails, so the serving path stops trying a dead
// replica without burning Threshold requests on it first.
func (b *Breaker) ForceOpen(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		b.trip(now)
	}
}

// trip transitions to open. Callers must hold b.mu.
func (b *Breaker) trip(now time.Time) {
	b.state = breakerOpen
	b.openUntil = now.Add(b.current)
	b.fails = 0
	b.trips++
}

// State returns the current state name and the closed->open trip count.
func (b *Breaker) State(now time.Time) (string, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.state
	if s == breakerOpen && !now.Before(b.openUntil) {
		// Probation has expired; the next Allow will flip to half-open.
		s = breakerHalfOpen
	}
	return stateNames[s], b.trips
}
