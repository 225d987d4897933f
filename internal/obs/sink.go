package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Sink receives counter- and sample-style events from library layers. The
// cluster runtime reports frames, bytes, dial attempts, backoff sleeps,
// retries and replays through an injected Sink (cluster.Config.Obs); the
// rounds driver reports per-round union sizes and shrink ratios. Library
// code stays silent by default — a nil Sink is the zero-cost off switch, and
// callers go through the package-level Count/Observe helpers, which are
// nil-safe.
//
// Implementations must be safe for concurrent use; the cluster runtime calls
// them from one goroutine per worker connection.
type Sink interface {
	// Count adds delta to the named monotonic counter.
	Count(name string, delta int64)
	// Observe records one sample of a distribution (latencies in seconds,
	// sizes in edges or bytes).
	Observe(name string, v float64)
}

// Count forwards to s if non-nil.
func Count(s Sink, name string, delta int64) {
	if s != nil {
		s.Count(name, delta)
	}
}

// Observe forwards to s if non-nil.
func Observe(s Sink, name string, v float64) {
	if s != nil {
		s.Observe(name, v)
	}
}

// KeyedSink is the optional Sink extension for counters carrying one label —
// how the cluster runtime's per-connection events gain a machine dimension.
// A sink that implements it must route each metric name through either the
// labeled or the unlabeled path consistently, never both (a Registry-backed
// sink cannot register a name under two shapes).
type KeyedSink interface {
	Sink
	// CountBy adds delta to the counter's child for label=value.
	CountBy(name, label, value string, delta int64)
}

// CountBy forwards a labeled count to s: sinks implementing KeyedSink get
// the label, plain sinks get an unlabeled Count with the same total, and a
// nil sink stays free. Library code can therefore always pass the label and
// let the sink decide the granularity.
func CountBy(s Sink, name, label, value string, delta int64) {
	switch ks := s.(type) {
	case nil:
	case KeyedSink:
		ks.CountBy(name, label, value, delta)
	default:
		s.Count(name, delta)
	}
}

// RegistrySink adapts a Registry into a Sink: Count lands in a counter of
// the same name, Observe in a histogram (DefLatencyBuckets unless the name
// was pre-registered with its own layout). Metrics appear in the registry on
// first use, so a daemon's /metrics only carries the event families its
// runtimes actually produced.
type RegistrySink struct {
	reg *Registry

	mu     sync.Mutex
	counts map[string]*Counter
	hists  map[string]*Histogram
	vecs   map[string]*CounterVec
}

// NewRegistrySink returns a sink writing into reg.
func NewRegistrySink(reg *Registry) *RegistrySink {
	return &RegistrySink{
		reg:    reg,
		counts: make(map[string]*Counter),
		hists:  make(map[string]*Histogram),
		vecs:   make(map[string]*CounterVec),
	}
}

// CountBy implements KeyedSink: the named counter becomes a one-label vector
// and delta lands in the label=value child. A name used through CountBy must
// never also be used through Count on the same sink (the registry pins a
// family's label shape on first registration).
func (s *RegistrySink) CountBy(name, label, value string, delta int64) {
	s.mu.Lock()
	v, ok := s.vecs[name]
	if !ok {
		v = s.reg.CounterVec(name, "runtime event counter (see internal/obs)", label)
		s.vecs[name] = v
	}
	s.mu.Unlock()
	v.With(value).Add(delta)
}

// Count implements Sink.
func (s *RegistrySink) Count(name string, delta int64) {
	s.mu.Lock()
	c, ok := s.counts[name]
	if !ok {
		c = s.reg.Counter(name, "runtime event counter (see internal/obs)")
		s.counts[name] = c
	}
	s.mu.Unlock()
	c.Add(delta)
}

// Observe implements Sink.
func (s *RegistrySink) Observe(name string, v float64) {
	s.mu.Lock()
	h, ok := s.hists[name]
	if !ok {
		h = s.reg.Histogram(name, "runtime event distribution (see internal/obs)", nil)
		s.hists[name] = h
	}
	s.mu.Unlock()
	h.Observe(v)
}

// ParseText parses Prometheus text exposition into a flat map keyed by the
// full sample name including its label set (exactly as rendered, e.g.
// `jobs_total{task="edcs"}`). Comment and blank lines are skipped; a
// malformed sample line is an error. It is the parser behind coreset load
// -scrape and the CI metrics validator, and deliberately handles only the
// subset WriteTo emits.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is everything after the last space; label values can
		// never contain a raw space... but help/label escaping keeps spaces,
		// so split at the last space instead of the first.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("obs: malformed metric line %q", line)
		}
		name, valStr := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: metric %q has non-numeric value %q", name, valStr)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
