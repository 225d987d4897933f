package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the text exposition format for a fixed registry:
// families in registration order, vector children in sorted label order,
// histograms as cumulative buckets plus _sum/_count. Scrapers (and the CI
// validator) depend on this exact shape.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "Total jobs.").Add(3)
	g := r.Gauge("queue_depth", "Jobs waiting.")
	g.Set(7)
	g.Dec()
	v := r.CounterVec("cache_ops_total", "Cache operations.", "op")
	v.With("miss").Add(2)
	v.With("hit").Add(5)
	h := r.Histogram("latency_seconds", "Job latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.1) // boundary: le is inclusive, lands in the 0.1 bucket
	h.Observe(3)
	r.GaugeFunc("uptime_seconds", "Seconds since start.", func() float64 { return 12.5 })

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP jobs_total Total jobs.
# TYPE jobs_total counter
jobs_total 3
# HELP queue_depth Jobs waiting.
# TYPE queue_depth gauge
queue_depth 6
# HELP cache_ops_total Cache operations.
# TYPE cache_ops_total counter
cache_ops_total{op="hit"} 5
cache_ops_total{op="miss"} 2
# HELP latency_seconds Job latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 2
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 3.15
latency_seconds_count 3
# HELP uptime_seconds Seconds since start.
# TYPE uptime_seconds gauge
uptime_seconds 12.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The rendered text must round-trip through the scrape parser.
	parsed, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"jobs_total":                     3,
		"queue_depth":                    6,
		`cache_ops_total{op="hit"}`:      5,
		`latency_seconds_bucket{le="1"}`: 2,
		"latency_seconds_count":          3,
		"uptime_seconds":                 12.5,
	} {
		if parsed[name] != want {
			t.Errorf("ParseText[%s] = %v, want %v", name, parsed[name], want)
		}
	}
}

// TestHistogramBucketBoundaries pins the le-inclusive bucket rule: a sample
// equal to an upper bound counts in that bucket, one just above spills into
// the next, and everything past the last bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4.9, 5, 5.1, 100} {
		h.Observe(v)
	}
	// Raw (non-cumulative) per-bucket counts: (-inf,1]=2 (0.5, 1),
	// (1,2]=2 (1.0000001, 2), (2,5]=2 (4.9, 5), (5,+inf)=2 (5.1, 100).
	want := []int64{2, 2, 2, 2}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d count = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
}

// TestHistogramSum checks the CAS-loop float sum under concurrency.
func TestHistogramSum(t *testing.T) {
	h := newHistogram([]float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 4000 {
		t.Fatalf("sum = %v, want 4000", got)
	}
}

// TestRegistryConcurrentRender hammers every collector kind while rendering
// concurrently; run under -race this is the scrape-while-submitting story at
// the registry level.
func TestRegistryConcurrentRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	v := r.CounterVec("v_total", "", "l")
	h := r.HistogramVec("h_seconds", "", nil, "task")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lbl := string(rune('a' + i))
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Add(1)
				v.With(lbl).Inc()
				h.With(lbl).Observe(float64(i))
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if _, err := r.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseText(strings.NewReader(b.String())); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// Two goroutines that ask for the same new metric at once (two jobs opening
// their first cluster session) must get one collector; under -race this also
// pins that the collector is made under the registry's lock.
func TestConcurrentFirstUseMakesOneCollector(t *testing.T) {
	for range 50 {
		r := NewRegistry()
		var counters [2]*Counter
		var gauges [2]*Gauge
		var hists [2]*Histogram
		var wg sync.WaitGroup
		for i := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				counters[i] = r.Counter("c_total", "")
				gauges[i] = r.Gauge("g", "")
				hists[i] = r.Histogram("h_seconds", "", nil)
			}()
		}
		wg.Wait()
		if counters[0] != counters[1] || gauges[0] != gauges[1] || hists[0] != hists[1] {
			t.Fatal("concurrent first use made two collectors for one metric")
		}
	}
}

// TestIdempotentRegistration: same name and kind returns the same collector;
// a kind mismatch panics.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	b := r.Counter("x_total", "")
	if a != b {
		t.Fatal("re-registration minted a second counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "")
}
