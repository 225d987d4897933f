// Package stats provides the small statistical toolkit used by the
// experiment harness: summary statistics with confidence intervals over
// repeated seeded trials, and fixed-width table rendering for the
// paper-shaped result tables.
package stats

import (
	"fmt"
	"math"
)

// Summary holds streaming moments of a sample.
type Summary struct {
	n        int
	mean, m2 float64 // Welford accumulators
	min, max float64
}

// Add inserts one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the sample size.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 for an empty sample).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation.
func (s *Summary) Max() float64 { return s.max }

// Var returns the unbiased sample variance.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.Std() / math.Sqrt(float64(s.n))
}

// MeanCI formats "mean ± ci" compactly.
func (s *Summary) MeanCI() string {
	return fmt.Sprintf("%.3g ± %.2g", s.Mean(), s.CI95())
}
