package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer: {name, start, end, parent, job}.
// Start and end are offsets from the tracer's epoch; parent indexes the
// tracer's span list (-1 for a root); job groups the spans of one replayed
// job or one service request.
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int
	Job    int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory from ONE goroutine (the staged replay, or
// one closed-loop client); they are written out only when the run ends, so
// recording costs two clock reads and an append. A nil tracer records
// nothing, which is how the end-to-end run measures with tracing off.
type tracer struct {
	epoch time.Time
	track int // Chrome-trace thread id: 0 for the replay, the client index in service_mix
	job   int
	open  []int
	spans []span
}

func newTracer(epoch time.Time, track int) *tracer {
	return &tracer{epoch: epoch, track: track}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Job: t.job})
	t.open = append(t.open, id)
	t.spans[id].Start = time.Since(t.epoch)
	return id
}

// end closes span id, which must be the innermost open span, and returns its
// duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	if len(t.open) == 0 || t.open[len(t.open)-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = now
	return t.spans[id].dur()
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover. Spans come from one goroutine, so children never
// overlap and the covered part is the plain sum of their durations.
func selfTimes(spans []span) map[string]time.Duration {
	covered := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.dur()
		}
	}
	self := map[string]time.Duration{}
	for i, s := range spans {
		self[s.Name] += s.dur() - covered[i]
	}
	return self
}

// checkNesting reports the first span that is not closed, ends before it
// starts, escapes its parent's interval, or has negative self time.
func checkNesting(spans []span) error {
	covered := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Parent >= i || s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d (%s) escapes its parent %d (%s)", i, s.Name, s.Parent, p.Name)
			}
			covered[s.Parent] += s.dur()
		}
	}
	for i, s := range spans {
		if covered[i] > s.dur() {
			return fmt.Errorf("span %d (%s) has negative self time", i, s.Name)
		}
	}
	return nil
}

// traceEvent is one Chrome trace event, the same shape `coreset -trace-out`
// writes, so one Perfetto session opens both files.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes every tracer's spans as {"traceEvents": [...]}:
// one process named after the workload, one thread per tracer.
func writeChromeTrace(path, workload string, tracers []*tracer) error {
	events := []traceEvent{{
		Name: "process_name", Ph: "M",
		Args: map[string]any{"name": "bench " + workload},
	}}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, t := range tracers {
		for i, s := range t.spans {
			events = append(events, traceEvent{
				Name: s.Name, Ph: "X", Tid: t.track,
				Ts: us(s.Start), Dur: us(s.dur()),
				Args: map[string]any{"span": i, "parent": s.Parent, "job": s.Job},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return fmt.Errorf("assembling trace: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
