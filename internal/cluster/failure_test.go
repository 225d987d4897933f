package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// runWithTimeout guards against the exact failure mode these tests exist
// for: a coordinator that hangs instead of surfacing an error.
func runWithTimeout(t *testing.T, d time.Duration, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatal("coordinator hung")
		return nil
	}
}

// crashingWorker accepts one connection, speaks a valid handshake, consumes
// nFrames frames and then drops the connection — a worker crash mid-shard.
func crashingWorker(t *testing.T, nFrames int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if typ, _, _, err := readFrame(conn); err != nil || typ != frameHello {
			return
		}
		if _, err := writeFrame(conn, frameAck, []byte{protocolVersion}); err != nil {
			return
		}
		for i := 0; i < nFrames; i++ {
			if _, _, _, err := readFrame(conn); err != nil {
				return
			}
		}
		// Crash: vanish without CORESET or ERROR.
	}()
	return ln.Addr().String()
}

// TestWorkerCrashMidShard: a worker that dies mid-run must surface as a
// typed *WorkerError at the coordinator — no hang, no partial compose.
func TestWorkerCrashMidShard(t *testing.T) {
	healthy := startWorkers(t, 2)
	crash := crashingWorker(t, 1)
	g := gen.GNP(3000, 20.0/3000, rng.New(1))
	err := runWithTimeout(t, 30*time.Second, func() error {
		_, _, err := Solve(context.Background(), stream.NewGraphSource(g),
			Config{Workers: []string{healthy[0], crash, healthy[1]}, Seed: 1, BatchSize: 64}, matchingTask, task.Params{})
		return err
	})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WorkerError", err)
	}
	if we.Machine != 1 {
		t.Fatalf("failure attributed to machine %d, want 1", we.Machine)
	}
}

// TestDialFailure: an unreachable worker address fails the run with a typed
// error naming the machine.
func TestDialFailure(t *testing.T) {
	// A listener we immediately close: the port is valid but dead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	g := gen.GNP(200, 0.05, rng.New(2))
	err = runWithTimeout(t, 30*time.Second, func() error {
		_, _, err := Solve(context.Background(), stream.NewGraphSource(g), Config{Workers: []string{dead}, Seed: 2}, matchingTask, task.Params{})
		return err
	})
	var we *WorkerError
	if !errors.As(err, &we) || we.Addr != dead {
		t.Fatalf("err = %v, want *WorkerError for %s", err, dead)
	}
}

// TestRemoteErrorFrame: an ERROR frame sent by the worker must carry its
// message into the coordinator's error.
func TestRemoteErrorFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _, _, _ = readFrame(conn)
		_, _ = writeFrame(conn, frameError, []byte("worker says no"))
	}()
	g := gen.GNP(100, 0.05, rng.New(3))
	err = runWithTimeout(t, 30*time.Second, func() error {
		_, _, err := Solve(context.Background(), stream.NewGraphSource(g), Config{Workers: []string{ln.Addr().String()}, Seed: 3}, matchingTask, task.Params{})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "worker says no") {
		t.Fatalf("err = %v, want remote message", err)
	}
}

// cancelSource cancels the run's context after a fixed number of Next calls
// and keeps producing; the coordinator, not the source, must stop the run.
type cancelSource struct {
	inner  stream.EdgeSource
	cancel func()
	after  int
	calls  int
}

func (s *cancelSource) Next(buf []graph.Edge) (int, error) {
	s.calls++
	if s.calls == s.after {
		s.cancel()
	}
	return s.inner.Next(buf)
}
func (s *cancelSource) NumVertices() int   { return s.inner.NumVertices() }
func (s *cancelSource) KnownUpfront() bool { return s.inner.KnownUpfront() }

// TestCoordinatorCancelDrainsWorkers: canceling a run mid-shard returns the
// context error promptly and the workers drop their run state (no
// connection stays active).
func TestCoordinatorCancelDrainsWorkers(t *testing.T) {
	const k = 3
	workers := make([]*Worker, k)
	addrs := make([]string, k)
	for i := range workers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = NewWorker(nil)
		addrs[i] = ln.Addr().String()
		go workers[i].Serve(ln) //nolint:errcheck
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, w := range workers {
			_ = w.Shutdown(ctx)
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := gen.GNP(5000, 0.005, rng.New(4))
	src := &cancelSource{inner: stream.NewGraphSource(g), cancel: cancel, after: 3}
	err := runWithTimeout(t, 30*time.Second, func() error {
		_, _, err := Solve(ctx, src, Config{Workers: addrs, Seed: 4, BatchSize: 64}, matchingTask, task.Params{})
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		active := 0
		for _, w := range workers {
			active += w.Active()
		}
		if active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d worker connections still active after cancellation", active)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPreCanceledContext(t *testing.T) {
	addrs := startWorkers(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.GNP(200, 0.05, rng.New(5))
	_, _, err := Solve(ctx, stream.NewGraphSource(g), Config{Workers: addrs, Seed: 5}, matchingTask, task.Params{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// gatedSource blocks mid-stream until released, so tests can observe a run
// in flight.
type gatedSource struct {
	inner   stream.EdgeSource
	started chan struct{} // closed at the first Next
	release chan struct{} // Next blocks here after the first call
	calls   int
}

func (s *gatedSource) Next(buf []graph.Edge) (int, error) {
	s.calls++
	if s.calls == 1 {
		close(s.started)
	} else {
		<-s.release
	}
	return s.inner.Next(buf)
}
func (s *gatedSource) NumVertices() int   { return s.inner.NumVertices() }
func (s *gatedSource) KnownUpfront() bool { return s.inner.KnownUpfront() }

// TestWorkerShutdownDrains: Shutdown with budget must wait for an in-flight
// run to complete (graceful drain), and the run must succeed.
func TestWorkerShutdownDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(nil)
	go w.Serve(ln) //nolint:errcheck

	g := gen.GNP(800, 0.01, rng.New(6))
	src := &gatedSource{inner: stream.NewGraphSource(g), started: make(chan struct{}), release: make(chan struct{})}
	runDone := make(chan error, 1)
	go func() {
		m, _, err := Solve(context.Background(), src, Config{Workers: []string{ln.Addr().String()}, Seed: 6}, matchingTask, task.Params{})
		if err == nil && m.Matching == nil {
			err = errNotEqual
		}
		runDone <- err
	}()
	<-src.started
	// Wait for the run-assignment connection to land on the worker.
	for w.Active() == 0 {
		time.Sleep(time.Millisecond)
	}

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- w.Shutdown(ctx)
	}()
	// The drain must not kill the in-flight run: give Shutdown a moment,
	// then release the source and expect both to finish cleanly.
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned %v before the in-flight run finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(src.release)
	if err := <-runDone; err != nil {
		t.Fatalf("drained run failed: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("graceful Shutdown: %v", err)
	}
	if w.Served() != 1 {
		t.Fatalf("worker served %d runs, want 1", w.Served())
	}
}

// TestWorkerShutdownRacesShardFrames: Shutdown arriving while SHARD frames
// are still streaming into an in-flight run must drain — the run completes
// and answers with a CORESET — not drop the connection mid-shard. The frames
// are spoken by hand so the test controls exactly where in the stream the
// shutdown lands.
func TestWorkerShutdownRacesShardFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(nil)
	serveDone := make(chan error, 1)
	go func() { serveDone <- w.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	h := hello{version: protocolVersion, task: taskMatching, machine: 0, k: 1, known: true, n: 1000, rounds: 1}
	if _, err := writeFrame(conn, frameHello, encodeHello(h)); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := readFrame(conn); err != nil || typ != frameAck {
		t.Fatalf("handshake: typ 0x%02x err %v", typ, err)
	}

	// First SHARD lands before the shutdown begins.
	batch := func(base graph.ID) []byte {
		var edges []graph.Edge
		for i := graph.ID(0); i < 50; i++ {
			edges = append(edges, graph.Edge{U: base + 2*i, V: base + 2*i + 1})
		}
		return graph.AppendEdgeBatch(nil, edges)
	}
	if _, err := writeFrame(conn, frameShard, batch(0)); err != nil {
		t.Fatal(err)
	}

	// Shutdown concurrently with the rest of the shard stream.
	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- w.Shutdown(ctx)
	}()
	for i := 1; i <= 5; i++ {
		if _, err := writeFrame(conn, frameShard, batch(graph.ID(100*i))); err != nil {
			t.Fatalf("SHARD %d after Shutdown started: %v", i, err)
		}
	}
	var eos [binary.MaxVarintLen64]byte
	if _, err := writeFrame(conn, frameEOS, eos[:binary.PutUvarint(eos[:], 1000)]); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := readFrame(conn); err != nil || typ != frameTelem {
		t.Fatalf("want TELEM after drain, got typ 0x%02x err %v", typ, err)
	}
	typ, payload, _, err := readFrame(conn)
	if err != nil || typ != frameCoreset {
		t.Fatalf("want CORESET after TELEM, got typ 0x%02x err %v", typ, err)
	}
	sum, err := task.DecodeSummary(matchingTask, payload)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Edges != 300 {
		t.Fatalf("drained run saw %d edges, want 300", sum.Edges)
	}
	conn.Close()
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if w.Served() != 1 {
		t.Fatalf("worker served %d runs, want 1", w.Served())
	}
	// The drained worker accepts no new runs.
	if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		c.Close()
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestNoGoroutineLeaks: successful runs, failed runs and canceled runs must
// all return the process to its goroutine baseline.
func TestNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	addrs, shutdown, err := ServeLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.GNP(1000, 0.01, rng.New(7))

	// Success.
	if _, _, err := Solve(context.Background(), stream.NewGraphSource(g), Config{Workers: addrs, Seed: 7}, matchingTask, task.Params{}); err != nil {
		t.Fatal(err)
	}
	// Worker failure.
	crash := crashingWorker(t, 0)
	if _, _, err := Solve(context.Background(), stream.NewGraphSource(g), Config{Workers: []string{addrs[0], crash}, Seed: 7}, matchingTask, task.Params{}); err == nil {
		t.Fatal("crash run succeeded")
	}
	// Cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	src := &cancelSource{inner: stream.NewGraphSource(g), cancel: cancel, after: 2}
	_, _, _ = Solve(ctx, src, Config{Workers: addrs, Seed: 7, BatchSize: 32}, matchingTask, task.Params{})
	cancel()

	shutdown() // all worker goroutines must exit too

	waitGoroutines(t, baseline)
}

// waitGoroutines waits for the process to return to its goroutine baseline.
// It allows small slack for runtime-internal goroutines; anything beyond it
// is a leaked sharder, connection watcher or worker handler.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not settle: %d (baseline %d)\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
