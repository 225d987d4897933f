package obs

import (
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
	"time"
)

// Tracer is the structured run-trace layer: a thin wrapper over *slog.Logger
// that stamps every event with a run ID and emits span-style start/end pairs
// (shard start/end, round start/end, replay attempt, compose). A nil *Tracer
// is valid and silent — library code takes a *Tracer and never checks it for
// nil, so tracing stays zero-cost until someone turns it on (coreset
// -trace, coreset serve -trace).
type Tracer struct {
	l     *slog.Logger
	runID string
}

// NewTracer wraps l; a nil logger yields a nil (silent) tracer. runID may be
// empty when the caller stamps runs later via WithRun.
func NewTracer(l *slog.Logger, runID string) *Tracer {
	if l == nil {
		return nil
	}
	return &Tracer{l: l, runID: runID}
}

// NewTextTracer traces to w in slog text format without timestamps — the
// deterministic layout the CLI's -trace flag uses, pinned by golden tests
// (durations still vary; tests normalize the dur_ms attribute).
func NewTextTracer(w io.Writer, runID string) *Tracer {
	h := slog.NewTextHandler(w, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Attr{}
			}
			return a
		},
	})
	return &Tracer{l: slog.New(h), runID: runID}
}

// WithRun returns a tracer stamping events with runID (nil-safe).
func (t *Tracer) WithRun(runID string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{l: t.l, runID: runID}
}

// Enabled reports whether events will be emitted (nil-safe).
func (t *Tracer) Enabled() bool { return t != nil && t.l != nil }

// Event emits one span-style event with the run ID attached. args are slog
// key/value pairs.
func (t *Tracer) Event(name string, args ...any) {
	if t == nil || t.l == nil {
		return
	}
	if t.runID != "" {
		args = append([]any{"run", t.runID}, args...)
	}
	t.l.Info(name, args...)
}

// Span emits name+".start" now and returns a function emitting name+".end"
// with a dur_ms attribute plus any extra end-time args. Usage:
//
//	end := tr.Span("round", "round", r)
//	... work ...
//	end("union", len(u))
func (t *Tracer) Span(name string, args ...any) func(endArgs ...any) {
	if t == nil || t.l == nil {
		return noopEnd
	}
	return t.span(name, args)
}

// noopEnd is the shared end function of a disabled span, so the nil path
// never allocates a closure.
var noopEnd = func(...any) {}

func (t *Tracer) span(name string, args []any) func(endArgs ...any) {
	t.Event(name+".start", args...)
	start := time.Now()
	return func(endArgs ...any) {
		all := append(append([]any{}, args...), endArgs...)
		all = append(all, "dur_ms", float64(time.Since(start).Microseconds())/1000)
		t.Event(name+".end", all...)
	}
}

var runSeq atomic.Int64

// NewRunID mints a process-unique run ID (time-seeded, sequence-suffixed) —
// what long-running daemons stamp jobs with.
func NewRunID() string {
	return fmt.Sprintf("r-%x-%d", time.Now().UnixNano()&0xffffff, runSeq.Add(1))
}

// RunIDFromSeed derives a deterministic run ID from a run's root seed — what
// single-shot CLI runs use, so a fixed-seed run traces identically every
// time (golden-testable). The mix is the splitmix64 finalizer.
func RunIDFromSeed(seed uint64) string {
	x := seed + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return fmt.Sprintf("r-%08x", uint32(x))
}
