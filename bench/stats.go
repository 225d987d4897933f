package main

import (
	"math"
	"sort"
)

// Metric is one reported number with its unit, the shape BENCHMARK.json's
// contract prints on the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps a declared metric name to its reading.
type Metrics map[string]Metric

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), because that is
// the rule the benchmark's acceptance check applies to ten runs. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median: the measure
// every bound in BENCHMARK.json is compared against. Fewer than two values
// have no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// tailPercentile picks the highest of the usual percentiles that still has
// at least ten samples beyond it (p75 at 40 samples, p90 at 100, p99 at
// 1000); below 20 samples only the median qualifies.
func tailPercentile(samples int) float64 {
	best := 0.5
	for _, p := range []float64{0.75, 0.9, 0.95, 0.99, 0.999} {
		if float64(samples)*(1-p) >= 10 {
			best = p
		}
	}
	return best
}
