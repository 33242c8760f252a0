// Package rng provides deterministic pseudo-random number generation for the
// simulator. Every stochastic component of the reproduction (request
// arrivals, key distributions, traffic phases, counter noise) draws from an
// explicitly seeded generator so that experiments are bit-for-bit repeatable
// across runs and machines.
//
// The core generator is xoshiro256** seeded through splitmix64, the
// combination recommended by Blackman and Vigna. It is small, allocation-free
// and fast enough to sit inside the simulator's per-tick hot path.
package rng

import "math"

// Source is a deterministic 64-bit PRNG (xoshiro256**).
//
// The zero value is not usable; construct with New. Source is not safe for
// concurrent use; give each simulated entity its own stream via Split.
type Source struct {
	s [4]uint64
}

// splitmix64 advances the seed state and returns the next seeding value.
// It is used only to initialize xoshiro state so that closely related seeds
// (0, 1, 2, ...) still produce uncorrelated streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed.
func New(seed uint64) *Source {
	var r Source
	r.Seed(seed)
	return &r
}

// Seed resets the generator state from seed.
func (r *Source) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro requires a non-zero state; splitmix64 cannot produce four
	// zero outputs from any seed, but be defensive anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent child stream. The child is seeded from the
// parent's next output, so the parent advances by one value.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// DeriveSeed derives a decorrelated child seed from a base seed and a
// textual run key, by folding the key bytes through splitmix64. It is the
// contract behind the experiment engine's per-run seeding: a run's seed
// depends only on (base seed, run key) — never on worker count, submission
// order, or completion order — so a parallel experiment matrix reproduces
// the serial one bit for bit.
//
// The mapping is stable: DeriveSeed(base, k...) returns the same value on
// every platform and release (TestDeriveSeedGolden pins it). Key parts are
// length-prefixed into the fold, so ("ab","c") and ("a","bc") derive
// different seeds.
func DeriveSeed(base uint64, key ...string) uint64 {
	state := base
	out := splitmix64(&state)
	for _, k := range key {
		state ^= uint64(len(k)) * 0x9e3779b97f4a7c15
		out ^= splitmix64(&state)
		for i := 0; i < len(k); i += 8 {
			var chunk uint64
			for j := i; j < i+8 && j < len(k); j++ {
				chunk = chunk<<8 | uint64(k[j])
			}
			state ^= chunk
			out ^= splitmix64(&state)
		}
	}
	return out
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method, which avoids modulo bias without divisions in the
// common case.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	thresh := -n % n
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= thresh {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// NormFloat64 returns a standard normally distributed value using the
// Marsaglia polar method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// ExpFloat64 returns an exponentially distributed value with rate 1
// (mean 1). Divide by a rate to obtain other means.
func (r *Source) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Poisson returns a Poisson-distributed count with the given mean.
// For small means it uses Knuth's product method; for large means a
// normal approximation with continuity correction, which is accurate to
// well under a percent for mean >= 30 and keeps the call O(1).
func (r *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := mean + math.Sqrt(mean)*r.NormFloat64() + 0.5
	if v < 0 {
		return 0
	}
	return int(v)
}

// Shuffle permutes the first n elements using the Fisher-Yates algorithm,
// calling swap(i, j) to exchange elements.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
