package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seed diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds coincided %d/64 times", same)
	}
}

func TestSplitIsOrderInsensitive(t *testing.T) {
	a := New(7)
	c1 := a.Split(3)
	// Drawing from the parent must not change what Split(3) returns.
	for i := 0; i < 100; i++ {
		a.Uint64()
	}
	c2 := a.Split(3)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("Split depends on parent draw position at draw %d", i)
		}
	}
}

func TestSplitLabelsIndependent(t *testing.T) {
	a := New(7)
	c1, c2 := a.Split(1), a.Split(2)
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams coincided %d/64 times", same)
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 8, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		sum += r.Float64()
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPerm32IsPermutation(t *testing.T) {
	r := New(10)
	p := r.Perm32(257)
	seen := make([]bool, 257)
	for _, v := range p {
		if v < 0 || int(v) >= 257 || seen[v] {
			t.Fatalf("Perm32 not a permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestSampleKDistinct(t *testing.T) {
	r := New(13)
	f := func(nRaw, kRaw uint16) bool {
		n := int(nRaw%500) + 1
		k := int(kRaw) % (n + 1)
		s := r.SampleK(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int32]bool, k)
		for _, v := range s {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleKUniform(t *testing.T) {
	// Every element of [0, 10) should appear in a size-3 sample with
	// probability 3/10.
	r := New(17)
	const trials = 30000
	counts := make([]int, 10)
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleK(10, 3) {
			counts[v]++
		}
	}
	want := float64(trials) * 0.3
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d sampled %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(19)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(23)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) frequency = %v", p, got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(29)
	const p, draws = 0.2, 50000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / draws
	want := (1 - p) / p // mean of failures-before-success geometric
	if math.Abs(mean-want) > 0.15 {
		t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
}

func TestGeometricP1(t *testing.T) {
	r := New(31)
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1); g != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", g)
		}
	}
}

// refGeometric is the closed-form geometric sampler as first written, one
// logarithm of p per draw; the reference that both samplers must equal.
func refGeometric(r *RNG, p float64) int {
	if p == 1 {
		return 0
	}
	g := math.Floor(math.Log1p(-r.Float64()) / math.Log1p(-p))
	if g < 0 {
		return 0
	}
	if g > math.MaxInt>>1+1 {
		return math.MaxInt>>1 + 1
	}
	return int(g)
}

// TestGeometricLogMatchesGeometric: the hoisted-log sampler, given
// math.Log1p(-p), returns what Geometric(p) returns, draw for draw and
// leaving the stream in the same state, across p from 1e-9 up to 1 — which
// is what lets every skip-sampling loop hoist the logarithm without moving
// a generated edge.
func TestGeometricLogMatchesGeometric(t *testing.T) {
	ps := []float64{1e-9, 1e-6, 3e-5, 1e-3, 0.004, 0.01, 0.1, 1.0 / 3, 0.5, 0.9, 0.999999, 1}
	for i := 1; i < 64; i++ {
		ps = append(ps, float64(i)/64)
	}
	ref, geo, hoisted := New(71), New(71), New(71)
	for _, p := range ps {
		logq := math.Log1p(-p)
		for i := 0; i < 2000; i++ {
			want := refGeometric(ref, p)
			if got := geo.Geometric(p); got != want {
				t.Fatalf("Geometric(%v) draw %d = %d, reference %d", p, i, got, want)
			}
			if got := hoisted.GeometricLog(logq); got != want {
				t.Fatalf("GeometricLog(log1p(-%v)) draw %d = %d, Geometric %d", p, i, got, want)
			}
		}
	}
	if a, b, c := ref.Uint64(), geo.Uint64(), hoisted.Uint64(); a != b || a != c {
		t.Fatalf("streams diverged after the sweep: %d %d %d", a, b, c)
	}
}

// TestBinomialMatchesGeometricSkips: Binomial, which hoists its logarithm,
// counts the same skips as the one-logarithm-per-draw loop it replaced.
func TestBinomialMatchesGeometricSkips(t *testing.T) {
	a, b := New(73), New(73)
	for _, n := range []int{1, 7, 100, 5000} {
		for _, p := range []float64{1e-4, 0.01, 0.2, 0.5} {
			for rep := 0; rep < 50; rep++ {
				want, pos := 0, -1
				for {
					pos += refGeometric(b, p) + 1
					if pos >= n {
						break
					}
					want++
				}
				if got := a.Binomial(n, p); got != want {
					t.Fatalf("Binomial(%d, %v) rep %d = %d, reference %d", n, p, rep, got, want)
				}
			}
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(37)
	const n, p, draws = 200, 0.1, 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		b := float64(r.Binomial(n, p))
		sum += b
		sumSq += b * b
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean-n*p) > 0.5 {
		t.Errorf("Binomial mean = %v, want %v", mean, n*p)
	}
	if math.Abs(variance-n*p*(1-p)) > 2 {
		t.Errorf("Binomial variance = %v, want %v", variance, n*p*(1-p))
	}
}

func TestBinomialRange(t *testing.T) {
	r := New(41)
	f := func(nRaw uint8, pRaw uint8) bool {
		n := int(nRaw % 100)
		p := float64(pRaw) / 255
		b := r.Binomial(n, p)
		return b >= 0 && b <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(43)
	if b := r.Binomial(0, 0.5); b != 0 {
		t.Fatalf("Binomial(0, .5) = %d", b)
	}
	if b := r.Binomial(10, 0); b != 0 {
		t.Fatalf("Binomial(10, 0) = %d", b)
	}
	if b := r.Binomial(10, 1); b != 10 {
		t.Fatalf("Binomial(10, 1) = %d", b)
	}
}

func TestExpMean(t *testing.T) {
	r := New(47)
	const lambda, draws = 2.0, 50000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += r.Exp(lambda)
	}
	mean := sum / draws
	if math.Abs(mean-1/lambda) > 0.02 {
		t.Fatalf("Exp(%v) mean = %v, want %v", lambda, mean, 1/lambda)
	}
}

func TestZipfRange(t *testing.T) {
	r := New(53)
	z := NewZipf(100, 2.0)
	for i := 0; i < 5000; i++ {
		v := z.Sample(r)
		if v < 1 || v > 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}

func TestZipfExactMass(t *testing.T) {
	// With exponent 2 and n=1000, P(1) = 1/H where H ~ pi^2/6, so ~0.6082.
	r := New(59)
	z := NewZipf(1000, 2.0)
	const draws = 50000
	ones, twos := 0, 0
	for i := 0; i < draws; i++ {
		switch z.Sample(r) {
		case 1:
			ones++
		case 2:
			twos++
		}
	}
	p1 := float64(ones) / draws
	p2 := float64(twos) / draws
	if math.Abs(p1-0.608) > 0.02 {
		t.Errorf("Zipf(1000, 2) P(1) = %v, want ~0.608", p1)
	}
	if math.Abs(p2-0.152) > 0.015 {
		t.Errorf("Zipf(1000, 2) P(2) = %v, want ~0.152", p2)
	}
}

func TestPanics(t *testing.T) {
	r := New(61)
	cases := []struct {
		name string
		f    func()
	}{
		{"Uint64n(0)", func() { r.Uint64n(0) }},
		{"Intn(0)", func() { r.Intn(0) }},
		{"Intn(-1)", func() { r.Intn(-1) }},
		{"Geometric(0)", func() { r.Geometric(0) }},
		{"Geometric(1.5)", func() { r.Geometric(1.5) }},
		{"GeometricLog(0)", func() { r.GeometricLog(0) }},
		{"GeometricLog(NaN)", func() { r.GeometricLog(math.NaN()) }},
		{"Binomial(-1, .5)", func() { r.Binomial(-1, 0.5) }},
		{"Binomial(1, 2)", func() { r.Binomial(1, 2) }},
		{"Exp(0)", func() { r.Exp(0) }},
		{"NewZipf(0, 2)", func() { NewZipf(0, 2) }},
		{"NewZipf(5, 1)", func() { NewZipf(5, 1) }},
		{"SampleK(2, 3)", func() { r.SampleK(2, 3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.f()
		})
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(67)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: sum %d != %d", got, sum)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64n(1000003)
	}
	_ = sink
}

func BenchmarkGeometric(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Geometric(0.01)
	}
	_ = sink
}

func BenchmarkSplit(b *testing.B) {
	r := New(1)
	var sink *RNG
	for i := 0; i < b.N; i++ {
		sink = r.Split(uint64(i))
	}
	_ = sink
}
