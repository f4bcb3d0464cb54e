package trace

import "math"

// xorshift64 is a small deterministic PRNG (Marsaglia xorshift*), used so
// traces are reproducible across runs and platforms without pulling in
// math/rand ordering guarantees.
type xorshift64 struct{ state uint64 }

// newXorshift seeds the generator; a zero seed is remapped to a fixed
// non-zero constant since the xorshift state must never be zero.
func newXorshift(seed uint64) *xorshift64 {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &xorshift64{state: seed}
}

// next returns the next 64-bit value.
func (x *xorshift64) next() uint64 {
	s := x.state
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	x.state = s
	return s * 0x2545F4914F6CDD1D
}

// float64 returns a uniform value in [0, 1).
func (x *xorshift64) float64() float64 {
	return float64(x.next()>>11) / (1 << 53)
}

// below reports whether the next draw u = next()>>11 is below t, which
// is float64() < p for t = threshold(p), with no float conversion.
func (x *xorshift64) below(t uint64) bool { return x.next()>>11 < t }

// threshold returns the t for which below(t) is float64() < p: the
// number of 53-bit draws u with u/2^53 < p, ceil(p·2^53) clamped to
// [0, 2^53]. u/2^53 is exact, so the two agree on every draw. p ≤ 0,
// and NaN, never hold; p ≥ 1 always does.
func threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// intn returns a uniform value in [0, n).
func (x *xorshift64) intn(n int) int {
	return int(x.next() % uint64(n))
}
