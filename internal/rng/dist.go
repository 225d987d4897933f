package rng

import "math"

// Geometric returns the number of failures before the first success in a
// sequence of Bernoulli(p) trials, i.e. a sample from the geometric
// distribution on {0, 1, 2, ...}. It is the core of skip-sampling: to visit
// the positions of successes in a long Bernoulli sequence, repeatedly jump
// forward by Geometric(p)+1. Panics if p <= 0 or p > 1.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric with p out of (0, 1]")
	}
	return r.GeometricLog(math.Log1p(-p))
}

// GeometricLog is Geometric(p) for a caller that takes many samples at one
// p: it takes logq = math.Log1p(-p), which a skip-sampling loop computes
// once, instead of p. The divisor is the same float64, so for the same
// generator state it returns what Geometric(p) returns, draw for draw; logq
// = -Inf is p = 1, which consumes no draw. A skip is capped at
// maxGeometricSkip, so a skip-sampling cursor below 2^62 can add skip+1
// without overflowing int64. Panics unless logq < 0.
func (r *RNG) GeometricLog(logq float64) int {
	if !(logq < 0) {
		panic("rng: GeometricLog with log1p(-p) out of [-Inf, 0)")
	}
	if math.IsInf(logq, -1) {
		return 0
	}
	u := r.Float64()
	// Avoid log(0); Float64 is in [0,1) so 1-u is in (0,1].
	g := math.Floor(math.Log1p(-u) / logq)
	if g < 0 {
		return 0
	}
	if g > maxGeometricSkip {
		return maxGeometricSkip
	}
	return int(g)
}

// maxGeometricSkip caps a geometric draw: 2^62 where int has 64 bits. That
// is beyond any index space a skip-sampling loop here walks (n(n-1)/2 <
// 2^61 pairs for 31-bit IDs), so the cap never moves a sampled position
// that lies inside one.
const maxGeometricSkip = math.MaxInt>>1 + 1

// Binomial returns a sample from Binomial(n, p). For the moderate n·p values
// used in this repository an exact O(n·p) expected-time algorithm (counting
// geometric skips) is both simple and fast; for large p it samples the
// complement. Panics if n < 0 or p outside [0,1].
func (r *RNG) Binomial(n int, p float64) int {
	if n < 0 || p < 0 || p > 1 {
		panic("rng: Binomial with invalid parameters")
	}
	if n == 0 || p == 0 {
		return 0
	}
	if p == 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	// Count successes by skipping over failures geometrically. The expected
	// number of iterations is n*p + 1.
	logq := math.Log1p(-p)
	count := 0
	pos := -1
	for {
		pos += r.GeometricLog(logq) + 1
		if pos >= n {
			return count
		}
		count++
	}
}

// Exp returns an exponentially distributed sample with rate lambda
// (mean 1/lambda). Panics if lambda <= 0.
func (r *RNG) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exp with lambda <= 0")
	}
	u := r.Float64()
	return -math.Log1p(-u) / lambda
}

// Zipf samples from a bounded Zipf (power-law) distribution on {1, ..., n}
// with exponent s > 1: P(X = k) is proportional to k^{-s}. Sampling is exact
// inversion on a precomputed CDF (O(log n) per draw after O(n) setup), which
// suits the workload generators that draw an entire degree sequence from one
// distribution.
type Zipf struct {
	n   int
	cdf []float64 // cdf[k-1] = P(X <= k), cdf[n-1] == 1
}

// NewZipf builds the exact sampler. Panics if n < 1 or s <= 1.
func NewZipf(n int, s float64) *Zipf {
	if n < 1 || s <= 1 {
		panic("rng: NewZipf with invalid parameters")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += math.Pow(float64(k), -s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return &Zipf{n: n, cdf: cdf}
}

// Sample draws one value in {1, ..., n}.
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}
