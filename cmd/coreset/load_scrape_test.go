package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// fakeMetrics serves a /metrics exposition whose counter advances on every
// scrape — a stand-in for a `coreset worker -admin` surface.
func fakeMetrics(t *testing.T, name string, step int64) *httptest.Server {
	t.Helper()
	var v atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v.Add(step)-step)
		fmt.Fprintf(w, "worker_bytes_total{dir=\"in\"} %d\n", (v.Load()-step)*100)
		fmt.Fprintln(w, "some_gauge 42")
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestScrapeSetPerURLDeltas: -scrape with two explicit admin URLs snapshots
// both surfaces and prints each one's moved counters under its own header —
// how per-worker frame/byte deltas line up next to the service's.
func TestScrapeSetPerURLDeltas(t *testing.T) {
	w0 := fakeMetrics(t, "worker_frames_total", 7)
	w1 := fakeMetrics(t, "worker_frames_total", 3)

	s, err := newScrapeSet(w0.URL + "/," + w1.URL) // trailing slash is trimmed
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	after, err := s.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	s.printDeltas(&out, before, after)
	got := out.String()

	for _, want := range []string{
		"metrics delta over the run (" + w0.URL + "):",
		"metrics delta over the run (" + w1.URL + "):",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing per-URL header %q:\n%s", want, got)
		}
	}
	// Each surface advanced by its own step; both deltas must print, the
	// gauge must not.
	if !strings.Contains(got, "+7") || !strings.Contains(got, "+3") {
		t.Errorf("per-worker counter deltas missing:\n%s", got)
	}
	if !strings.Contains(got, `worker_bytes_total{dir="in"}`) {
		t.Errorf("labeled byte counter delta missing:\n%s", got)
	}
	if strings.Contains(got, "some_gauge") {
		t.Errorf("gauge leaked into the delta report:\n%s", got)
	}
}

// TestScrapeSetOff: the flag unset is a nil set, and every operation on it
// is a free no-op.
func TestScrapeSetOff(t *testing.T) {
	s, err := newScrapeSet("")
	if err != nil || s != nil {
		t.Fatalf("newScrapeSet(\"\") = %v, %v; want nil, nil", s, err)
	}
	if snap, err := s.snapshot(); snap != nil || err != nil {
		t.Fatalf("nil snapshot = %v, %v", snap, err)
	}
	var out strings.Builder
	s.printDeltas(&out, nil, nil)
	if out.Len() != 0 {
		t.Fatalf("nil printDeltas wrote %q", out.String())
	}
}

// TestScrapeSetRejectsEmptyURL: a stray comma is a configuration error, not
// a silently skipped surface.
func TestScrapeSetRejectsEmptyURL(t *testing.T) {
	if _, err := newScrapeSet("http://a:1,,http://b:2"); err == nil {
		t.Fatal("empty URL accepted")
	}
}
