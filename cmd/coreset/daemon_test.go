package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/stream"
	"repro/internal/task"
)

// logAddr waits for a "<prefix> <addr>" line in a daemon's log and returns
// the address: serve announces its listeners only there.
func logAddr(t *testing.T, log *syncBuffer, prefix string) string {
	t.Helper()
	re := regexp.MustCompile(regexp.QuoteMeta(prefix) + ` (\S+)`)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := re.FindStringSubmatch(log.String()); m != nil {
			return m[1]
		}
	}
	t.Fatalf("no %q line in the log:\n%s", prefix, log.String())
	return ""
}

// exitCode waits for a daemon goroutine's exit code.
func exitCode(t *testing.T, code <-chan int) int {
	t.Helper()
	select {
	case c := <-code:
		return c
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit")
		return -1
	}
}

// TestServeJobAdminAndDrain: serve on ephemeral ports registers a generator
// graph, runs a job to done, answers on the admin surface, and drains
// cleanly once its context ends — the path a signal takes in production.
func TestServeJobAdminAndDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stderr := &syncBuffer{}
	code := make(chan int, 1)
	go func() {
		code <- runServe(ctx, []string{"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-workers", "1"}, stderr)
	}()
	api := service.NewClient("http://"+logAddr(t, stderr, "serving on"), nil)
	admin := "http://" + logAddr(t, stderr, "admin surface on")

	info, err := api.AddGraph(ctx, service.CreateGraphRequest{Gen: &service.GenSpec{Name: "gnp", N: 300, Deg: 6, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	jobCtx, jobCancel := context.WithTimeout(ctx, 30*time.Second)
	defer jobCancel()
	if _, err := api.Run(jobCtx, service.CreateJobRequest{Graph: info.ID, Task: "matching", K: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(admin + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("admin /healthz: %d %q", resp.StatusCode, body)
	}
	m, err := service.NewClient(admin, nil).Metrics(ctx)
	if err != nil {
		t.Fatalf("admin /metrics: %v", err)
	}
	if m["service_jobs_done_total"] != 1 {
		t.Fatalf("service_jobs_done_total = %v, want 1", m["service_jobs_done_total"])
	}

	cancel()
	if c := exitCode(t, code); c != 0 || !strings.Contains(stderr.String(), "drained cleanly") {
		t.Fatalf("exit %d; log:\n%s", c, stderr.String())
	}
}

// gateSource holds a run in flight: its first Next — which the coordinator
// makes only after every worker has acknowledged the HELLO — announces
// started and then blocks until release is closed.
type gateSource struct {
	stream.EdgeSource
	once             sync.Once
	started, release chan struct{}
}

func (s *gateSource) Next(buf []graph.Edge) (int, error) {
	s.once.Do(func() { close(s.started) })
	<-s.release
	return s.EdgeSource.Next(buf)
}

// TestWorkerDrainsInFlightRunOnStdinEOF: when the parent closes a worker's
// stdin mid-run, the drain helper stops accepting but lets the in-flight run
// finish — the coordinator gets its answer — before the worker exits 0.
func TestWorkerDrainsInFlightRunOnStdinEOF(t *testing.T) {
	workerAddr, _, stderr, stop := startWorker(t)
	src := &gateSource{EdgeSource: path10(), started: make(chan struct{}), release: make(chan struct{})}
	solved := make(chan error, 1)
	go func() {
		_, _, err := cluster.Solve(context.Background(), src,
			cluster.Config{Workers: []string{workerAddr}, Seed: 3}, task.MustGet("matching"), task.Params{})
		solved <- err
	}()
	<-src.started

	stopped := make(chan struct{})
	go func() { stop(); close(stopped) }() // closes stdin, then waits for exit 0
	// The drain has begun once the listener refuses new connections; the
	// run it must wait for is still parked in the gate.
	for {
		conn, err := net.Dial("tcp", workerAddr)
		if err != nil {
			break
		}
		conn.Close()
		time.Sleep(time.Millisecond)
	}
	select {
	case <-stopped:
		t.Fatalf("worker exited with a run in flight:\n%s", stderr.String())
	default:
	}
	close(src.release)
	if err := <-solved; err != nil {
		t.Fatalf("in-flight run failed during the drain: %v", err)
	}
	<-stopped
	if !strings.Contains(stderr.String(), "drained cleanly (served 1 runs)") {
		t.Fatalf("worker log:\n%s", stderr.String())
	}
}
