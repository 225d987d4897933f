// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every stochastic component in this repository.
//
// Reproducibility is a hard requirement for the experiment harness: a single
// root seed must determine every random k-partitioning, every synthetic
// workload and every subsampling decision, even when partitions are processed
// concurrently by many goroutines. The standard library generators are either
// global (math/rand top-level) or awkward to split into independent streams,
// so we implement a small, well-studied pair of primitives:
//
//   - splitmix64 is used for seeding and for deriving independent child
//     streams (Split); it is a bijective finalizer with excellent avalanche
//     behaviour, the construction recommended by Vigna for seeding xoshiro.
//   - xoshiro256** is the core generator: 256 bits of state, period 2^256-1,
//     passes BigCrush, and is extremely fast (4 xors, 2 rotations per draw).
//
// An RNG is NOT safe for concurrent use; instead, derive one child stream per
// goroutine with Split, which is cheap and gives statistically independent
// sequences.
package rng

import "math/bits"

// RNG is a xoshiro256** generator with splitmix64-based stream derivation.
// The zero value is not usable; construct with New or Split.
type RNG struct {
	s  [4]uint64
	id uint64 // fixed stream identity; makes Split order-insensitive
}

// splitmix64 advances *x by the golden-ratio increment and returns the next
// output of the splitmix64 sequence.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically derived from seed. Distinct seeds
// yield independent streams; the same seed always yields the same stream.
func New(seed uint64) *RNG {
	return fromID(seed)
}

// fromID constructs a generator whose state and fixed identity both derive
// from id through splitmix64.
func fromID(id uint64) *RNG {
	r := &RNG{id: id}
	sm := id
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not be seeded with the all-zero state; splitmix64 outputs
	// four consecutive zeros with probability 2^-256, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent child stream identified by label. Children
// with distinct labels, and children of distinct parents, are independent.
// Split is a pure function of the generator's fixed identity and the label,
// never of its draw position: r.Split(0) is the same stream no matter how
// many values were drawn from r before the call. This property is what lets
// concurrent per-partition workers share a root seed reproducibly.
func (r *RNG) Split(label uint64) *RNG {
	// Two rounds of splitmix64 over (id, label) give a well-mixed child id.
	sm := r.id ^ 0xd1b54a32d192ed03
	_ = splitmix64(&sm)
	sm ^= 0x9e3779b97f4a7c15 * (label + 1)
	childID := splitmix64(&sm)
	return fromID(childID)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Uint64n returns a uniform integer in [0, n). Panics if n == 0.
// Uses Lemire's multiply-shift rejection method (unbiased).
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). Panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function, via Fisher-Yates.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm32 returns a uniformly random permutation of [0, n) as int32 values.
// It is the allocation-friendly variant used by the graph generators.
func (r *RNG) Perm32(n int) []int32 {
	p := make([]int32, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = int32(i)
	}
	return p
}

// SampleK returns k distinct uniform values from [0, n) in random order.
// It runs in O(k) expected time using Floyd's algorithm when k << n and
// falls back to a partial Fisher-Yates otherwise. Panics if k > n or k < 0.
func (r *RNG) SampleK(n, k int) []int32 {
	if k < 0 || k > n {
		panic("rng: SampleK with k out of range")
	}
	if k == 0 {
		return nil
	}
	// For dense samples a partial shuffle is cheaper than hashing.
	if k*4 >= n {
		p := r.Perm32(n)
		return p[:k:k]
	}
	seen := make(map[int32]struct{}, k)
	out := make([]int32, 0, k)
	for j := n - k; j < n; j++ {
		t := int32(r.Intn(j + 1))
		if _, dup := seen[t]; dup {
			t = int32(j)
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	// Floyd's method yields a uniform set but a biased order; shuffle.
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
