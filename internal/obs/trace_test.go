package obs

import (
	"regexp"
	"strings"
	"testing"
)

// TestNilTracerSafe: every method on a nil *Tracer must be a no-op, since
// library code never nil-checks the tracers it is handed.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Event("x", "k", 1)
	end := tr.Span("y")
	end("k", 2)
	if tr.WithRun("r-1") != nil {
		t.Fatal("nil tracer WithRun must stay nil")
	}
	if NewTracer(nil, "r-1") != nil {
		t.Fatal("NewTracer(nil, ...) must return nil")
	}
}

var durRe = regexp.MustCompile(`dur_ms=[0-9.]+`)

// TestTextTracerFormat pins the slog text layout -trace golden tests rely on:
// no timestamps, run ID first, span start/end pairs with a dur_ms tail.
func TestTextTracerFormat(t *testing.T) {
	var b strings.Builder
	tr := NewTextTracer(&b, "r-test")
	tr.Event("compose", "shards", 4)
	end := tr.Span("round", "round", 1)
	end("union_edges", 10)

	got := durRe.ReplaceAllString(b.String(), "dur_ms=X")
	want := `level=INFO msg=compose run=r-test shards=4
level=INFO msg=round.start run=r-test round=1
level=INFO msg=round.end run=r-test round=1 union_edges=10 dur_ms=X
`
	if got != want {
		t.Errorf("trace output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRunIDs(t *testing.T) {
	if RunIDFromSeed(42) != RunIDFromSeed(42) {
		t.Fatal("RunIDFromSeed not deterministic")
	}
	if RunIDFromSeed(42) == RunIDFromSeed(43) {
		t.Fatal("distinct seeds collided")
	}
	if NewRunID() == NewRunID() {
		t.Fatal("NewRunID repeated itself")
	}
}
