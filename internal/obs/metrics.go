// Package obs is the repository's observability layer: a dependency-free
// metrics core (atomic counters, gauges and fixed-bucket latency histograms
// behind a Registry that renders the Prometheus text exposition format), a
// log/slog-based structured run-trace layer (trace.go) and a Sink interface
// (sink.go) through which library packages — cluster, rounds, stream — report
// low-level events without ever owning a registry themselves.
//
// The paper's whole trade — coreset quality bought with communication and
// rounds — lives or dies by numbers: per-round wire bytes, retries, replayed
// machines, cache hits, job latency. This package is how those numbers leave
// the process while it runs, instead of being visible only in a single job's
// JSON report after the fact. The service (internal/service) exposes its
// registry at GET /metrics; coreset serve adds net/http/pprof on an opt-in
// admin listener; coreset load scrapes the endpoint mid-run and prints
// deltas next to its latency percentiles.
//
// Everything here is stdlib-only and safe for concurrent use: counters and
// gauges are single atomics, histograms are an atomic counter per bucket, and
// rendering takes a snapshot without stopping writers.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. The zero value is ready to
// use, but counters almost always come from Registry.Counter so they render.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta; negative deltas are ignored (a counter never goes down).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (queue depth, in-flight jobs,
// resident entries).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefLatencyBuckets is the default histogram bucket layout for job and round
// latencies, in seconds: half-decade steps from 1ms to 60s. The service's
// workload spans ~0.05ms cache hits to multi-second cluster jobs, so the
// range is deliberately wide.
var DefLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket histogram: observation v lands in the first
// bucket whose upper bound is >= v (bounds are inclusive, Prometheus "le"
// semantics), with an implicit +Inf bucket at the end. Counts are atomics;
// the sum is a CAS loop over float64 bits. Observations never block each
// other or a concurrent render.
type Histogram struct {
	bounds []float64 // ascending upper bounds, exclusive of +Inf
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: inclusive le
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metric kinds, for duplicate-registration checks and TYPE lines.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

// family is one registered metric name: either a single collector (no
// labels) or a vector of children keyed by label values.
type family struct {
	name   string
	help   string
	kind   string
	labels []string // empty for unlabeled metrics

	// Exactly one of the following is used, matching kind/labels.
	counter    *Counter
	counterFn  func() float64
	gauge      *Gauge
	gaugeFn    func() float64
	hist       *Histogram
	buckets    []float64 // bucket layout for histogram vec children
	mu         sync.Mutex
	children   map[string]*child
	childOrder []string
}

type child struct {
	values  []string
	counter *Counter
	hist    *Histogram
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Metric creation is idempotent: asking for an existing
// name with the same kind returns the existing collector, and a kind
// mismatch panics (it is a programming error, caught by any test that
// touches the path).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, kind string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d labels (was %s with %d)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: append([]string(nil), labels...)}
	if len(labels) > 0 {
		f.children = make(map[string]*child)
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter returns the registered counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, nil)
	if f.counter == nil && f.counterFn == nil {
		f.counter = &Counter{}
	}
	if f.counter == nil {
		panic(fmt.Sprintf("obs: counter %q is function-backed", name))
	}
	return f.counter
}

// CounterFunc registers a counter whose value is read from fn at render
// time. It is how existing monotonic totals (cache hits, lifetime job
// counts) are exposed without double bookkeeping; fn must be monotonic and
// safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindCounter, nil)
	f.counterFn = fn
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, nil)
	if f.gauge == nil && f.gaugeFn == nil {
		f.gauge = &Gauge{}
	}
	if f.gauge == nil {
		panic(fmt.Sprintf("obs: gauge %q is function-backed", name))
	}
	return f.gauge
}

// GaugeFunc registers a gauge read from fn at render time (queue depth,
// resident bytes — values some other structure already tracks).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGauge, nil)
	f.gaugeFn = fn
}

// Histogram returns the registered histogram, creating it with the given
// bucket upper bounds on first use (nil buckets = DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, kindHist, nil)
	if f.hist == nil {
		if buckets == nil {
			buckets = DefLatencyBuckets
		}
		f.hist = newHistogram(buckets)
	}
	return f.hist
}

// CounterVec is a counter family with labels; With returns the child for a
// concrete label-value tuple, creating it on first use.
type CounterVec struct{ f *family }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, kindCounter, labels)}
}

// HistogramVec registers a labeled histogram family with the given bucket
// layout (nil = DefLatencyBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := r.family(name, help, kindHist, labels)
	f.mu.Lock()
	if f.buckets == nil {
		if buckets == nil {
			buckets = DefLatencyBuckets
		}
		f.buckets = append([]float64(nil), buckets...)
	}
	f.mu.Unlock()
	return &HistogramVec{f: f}
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{values: append([]string(nil), values...)}
		switch f.kind {
		case kindCounter:
			c.counter = &Counter{}
		case kindHist:
			c.hist = newHistogram(f.buckets)
		}
		f.children[key] = c
		f.childOrder = append(f.childOrder, key)
		sort.Strings(f.childOrder) // deterministic exposition order
	}
	return c
}

// With returns the child counter for the label values (in declaration order).
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).counter }

// With returns the child histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).hist }

// WriteTo renders every registered metric in the Prometheus text exposition
// format (version 0.0.4), families in registration order and vector children
// in sorted label order, so output for a fixed workload is stable enough to
// pin in golden tests.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func (f *family) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	if len(f.labels) == 0 {
		switch f.kind {
		case kindCounter:
			v := float64(0)
			if f.counterFn != nil {
				v = f.counterFn()
			} else if f.counter != nil {
				v = float64(f.counter.Value())
			}
			fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(v))
		case kindGauge:
			v := float64(0)
			if f.gaugeFn != nil {
				v = f.gaugeFn()
			} else if f.gauge != nil {
				v = float64(f.gauge.Value())
			}
			fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(v))
		case kindHist:
			renderHistogram(b, f.name, "", f.hist)
		}
		return
	}
	f.mu.Lock()
	keys := append([]string(nil), f.childOrder...)
	children := make([]*child, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()
	for _, c := range children {
		lbl := formatLabels(f.labels, c.values)
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, lbl, formatFloat(float64(c.counter.Value())))
		case kindHist:
			renderHistogram(b, f.name, lbl, c.hist)
		}
	}
}

// renderHistogram emits the _bucket/_sum/_count triplet. lbl is the
// pre-rendered label set ("{a=\"b\"}" or ""); the le label is appended
// inside it.
func renderHistogram(b *strings.Builder, name, lbl string, h *Histogram) {
	if h == nil {
		h = newHistogram(nil)
	}
	withLe := func(le string) string {
		if lbl == "" {
			return `{le="` + le + `"}`
		}
		return lbl[:len(lbl)-1] + `,le="` + le + `"}`
	}
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLe(formatFloat(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLe("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, lbl, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, lbl, h.Count())
}

func formatLabels(names, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the rendered registry — what the
// service mounts at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
