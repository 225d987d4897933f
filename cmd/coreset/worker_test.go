package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/task"
)

// syncBuffer makes a bytes.Buffer safe for the worker's concurrent logger
// and tracer writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startWorker runs the CLI in a goroutine and parses the machine-readable
// ready lines off stdout. Closing the returned stop function triggers the
// stdin-EOF shutdown path and waits for a clean exit.
func startWorker(t *testing.T, args ...string) (workerAddr, adminAddr string, stderr *syncBuffer, stop func()) {
	t.Helper()
	stdinR, stdinW := io.Pipe()
	stdoutR, stdoutW := io.Pipe()
	errBuf := &syncBuffer{}
	code := make(chan int, 1)
	go func() {
		code <- runWorker(context.Background(), append([]string{"-exit-on-stdin-eof"}, args...), stdinR, stdoutW, errBuf)
		stdoutW.Close()
	}()
	sc := bufio.NewScanner(stdoutR)
	deadline := time.AfterFunc(10*time.Second, func() { stdoutR.CloseWithError(fmt.Errorf("timed out awaiting ready lines")) })
	wantAdmin := false
	for _, a := range args {
		if a == "-admin" {
			wantAdmin = true
		}
	}
	for workerAddr == "" || (wantAdmin && adminAddr == "") {
		if !sc.Scan() {
			break
		}
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, cluster.ReadyPrefix):
			workerAddr = strings.TrimPrefix(line, cluster.ReadyPrefix)
		case strings.HasPrefix(line, "CORESETWORKER ADMIN "):
			adminAddr = strings.TrimPrefix(line, "CORESETWORKER ADMIN ")
		}
	}
	deadline.Stop()
	if workerAddr == "" {
		t.Fatalf("no ready line from worker (stderr: %s)", errBuf.String())
	}
	go io.Copy(io.Discard, stdoutR) // keep the pipe drained
	return workerAddr, adminAddr, errBuf, func() {
		stdinW.Close()
		if c := <-code; c != 0 {
			t.Errorf("worker exited %d (stderr: %s)", c, errBuf.String())
		}
	}
}

// path10 is a 10-vertex path graph — enough to exercise one full run.
func path10() stream.EdgeSource {
	return stream.NewReaderSource(strings.NewReader("p 10 9\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n"))
}

// TestAdminSurface: -admin serves /metrics, /healthz and pprof, and after a
// real coordinator run the worker registry shows frames, bytes, phase
// samples and the run count — the same operational contract as serve.
func TestAdminSurface(t *testing.T) {
	workerAddr, adminAddr, _, stop := startWorker(t, "-q", "-admin", "127.0.0.1:0")
	defer stop()
	if adminAddr == "" {
		t.Fatal("no admin ready line")
	}
	base := "http://" + adminAddr

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}

	_, st, err := cluster.Solve(context.Background(),
		path10(), cluster.Config{Workers: []string{workerAddr}, Seed: 3}, task.MustGet("matching"), task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalCommBytes <= 0 {
		t.Fatal("run measured no communication")
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	m, err := obs.ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("parsing /metrics: %v\n%s", err, body)
	}
	if m[`worker_runs_total`] != 1 {
		t.Fatalf("worker_runs_total = %v, want 1\n%s", m[`worker_runs_total`], body)
	}
	for _, name := range []string{
		`worker_frames_total{dir="in"}`,
		`worker_frames_total{dir="out"}`,
		`worker_bytes_total{dir="in"}`,
		`worker_bytes_total{dir="out"}`,
	} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}
	for _, phase := range []string{"decode", "build", "encode"} {
		name := fmt.Sprintf(`worker_phase_seconds_count{phase=%q}`, phase)
		if m[name] != 1 {
			t.Errorf("%s = %v, want 1", name, m[name])
		}
	}
}

// TestTraceJoinsCoordinatorRun: with -trace the worker's spans carry the run
// ID the coordinator shipped in its HELLO, so the two trace streams can be
// joined on it.
func TestTraceJoinsCoordinatorRun(t *testing.T) {
	workerAddr, _, stderr, stop := startWorker(t, "-q", "-trace")
	runID := obs.RunIDFromSeed(3)
	if _, _, err := cluster.Solve(context.Background(),
		path10(), cluster.Config{Workers: []string{workerAddr}, Seed: 3, RunID: runID}, task.MustGet("matching"), task.Params{}); err != nil {
		t.Fatal(err)
	}
	stop() // drain so all spans are flushed
	out := stderr.String()
	for _, want := range []string{"worker.run.start", "worker.run.end", "run=" + runID} {
		if !strings.Contains(out, want) {
			t.Fatalf("worker trace output missing %q:\n%s", want, out)
		}
	}
}
