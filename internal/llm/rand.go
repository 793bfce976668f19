package llm

// Rand is a small deterministic pseudo-random source (splitmix64). It gives
// task functions capability-gated coin flips that are stable across runs
// for the same (model, prompt, salt) triple — the property that makes the
// whole reproduction deterministic.
type Rand struct{ state uint64 }

// NewRand returns a Rand seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("llm: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Chance reports true with probability p (clamped to [0,1]).
func (r *Rand) Chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
