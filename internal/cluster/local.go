package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// ReadyPrefix is the line a worker process prints on stdout once its
// listener is bound, followed by the listen address. SpawnLocal blocks on it
// so the returned addresses are immediately dialable. `coreset worker`
// prints it, in a self-spawned fleet and a resident deployment alike.
const ReadyPrefix = "CORESETWORKER READY "

// readyTimeout bounds how long SpawnLocal waits for a forked worker to bind.
const readyTimeout = 10 * time.Second

// LocalWorkers is a set of worker processes forked on this machine — the
// single-machine deployment of the cluster runtime (cmd/coreset -cluster
// local). Each worker's lifetime is tied to its stdin: Close closes the
// pipes, the workers drain and exit, and stragglers are killed.
type LocalWorkers struct {
	addrs  []string
	procs  []*exec.Cmd
	stdins []io.WriteCloser
}

// SpawnLocal forks k worker processes by running bin with args (plus
// whatever the binary needs to enter worker mode — cmd/coreset passes
// "worker -exit-on-stdin-eof", tying each worker to its stdin) and collects
// their self-reported listen addresses. Worker stderr is forwarded to
// stderr. On any failure the already-started workers are torn down.
func SpawnLocal(bin string, args []string, k int, stderr io.Writer) (*LocalWorkers, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cluster: SpawnLocal needs k > 0 (got %d)", k)
	}
	// exec.Cmd forwards a non-*os.File stderr through one copier goroutine
	// per child; serialize them so k workers can share one buffer or writer.
	if stderr != nil {
		if _, isFile := stderr.(*os.File); !isFile {
			stderr = &syncWriter{w: stderr}
		}
	}
	lw := &LocalWorkers{}
	for i := 0; i < k; i++ {
		cmd := exec.Command(bin, args...)
		cmd.Stderr = stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			lw.Close()
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			lw.Close()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			lw.Close()
			return nil, fmt.Errorf("cluster: spawning worker %d: %w", i, err)
		}
		lw.procs = append(lw.procs, cmd)
		lw.stdins = append(lw.stdins, stdin)
		addr, err := readReadyLine(stdout)
		if err != nil {
			lw.Close()
			return nil, fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		lw.addrs = append(lw.addrs, addr)
	}
	return lw, nil
}

// Addrs returns the workers' listen addresses, in spawn order.
func (l *LocalWorkers) Addrs() []string { return append([]string(nil), l.addrs...) }

// Kill SIGKILLs worker i — no drain, no warning, mid-frame if a run is in
// flight — and reaps the process. It exists for fault-injection: chaos tests
// kill a fleet member mid-round and assert the coordinator replays it. The
// worker stays in Addrs (its address now refuses dials) and Close skips it.
func (l *LocalWorkers) Kill(i int) error {
	if i < 0 || i >= len(l.procs) || l.procs[i] == nil {
		return fmt.Errorf("cluster: Kill(%d): no such worker", i)
	}
	cmd := l.procs[i]
	if err := cmd.Process.Kill(); err != nil {
		return err
	}
	_ = cmd.Wait() // reap; the error is the SIGKILL we just sent
	_ = l.stdins[i].Close()
	l.procs[i], l.stdins[i] = nil, nil
	return nil
}

// Close shuts the workers down: stdin pipes are closed (the workers' exit
// signal), each process gets a drain window to exit cleanly, and anything
// still running is killed. The first wait error, if any, is returned.
func (l *LocalWorkers) Close() error {
	for _, in := range l.stdins {
		if in != nil {
			in.Close()
		}
	}
	var firstErr error
	for _, cmd := range l.procs {
		if cmd == nil {
			continue // already reaped by Kill
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil && firstErr == nil {
				firstErr = err
			}
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: worker pid %d killed after drain timeout", cmd.Process.Pid)
			}
		}
	}
	return firstErr
}

// ParseWorkerList parses a comma-separated worker address list (the -cluster
// flag shared by coreset run, coreset serve and coreset load), rejecting empty
// entries up front so a trailing comma fails at configuration time instead
// of surfacing later as a dial error against machine "".
func ParseWorkerList(spec string) ([]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("cluster: empty worker address list")
	}
	addrs := strings.Split(spec, ",")
	for i, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("cluster: empty worker address in %q", spec)
		}
		addrs[i] = a
	}
	return addrs, nil
}

// syncWriter serializes concurrent writes from the workers' stderr copiers.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// readReadyLine scans stdout for the ReadyPrefix line and returns the
// address, bounding the wait so a wedged child cannot hang the parent.
func readReadyLine(stdout io.Reader) (string, error) {
	type lineErr struct {
		addr string
		err  error
	}
	ch := make(chan lineErr, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, ReadyPrefix) {
				ch <- lineErr{addr: strings.TrimSpace(strings.TrimPrefix(line, ReadyPrefix))}
				// Keep draining stdout so the child never blocks on a full
				// pipe; it prints nothing else in practice.
				for sc.Scan() {
				}
				return
			}
		}
		ch <- lineErr{err: fmt.Errorf("worker exited before reporting ready")}
	}()
	select {
	case le := <-ch:
		return le.addr, le.err
	case <-time.After(readyTimeout):
		return "", fmt.Errorf("timed out waiting for ready line")
	}
}

// ServeLoopback starts k workers on loopback listeners inside this process
// and returns their addresses plus a shutdown function. The protocol still
// crosses real TCP sockets — the bytes are as measured as with forked
// processes — but without the fork, which is what tests, experiments
// (E20) and benchmarks want.
func ServeLoopback(k int) (addrs []string, shutdown func(), err error) {
	workers := make([]*Worker, 0, k)
	serveDone := make(chan struct{}, k)
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *Worker) {
				defer wg.Done()
				_ = w.Shutdown(ctx)
			}(w)
		}
		wg.Wait()
		for range workers {
			<-serveDone
		}
	}
	for i := 0; i < k; i++ {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			shutdown()
			return nil, nil, lerr
		}
		w := NewWorker(log.New(io.Discard, "", 0))
		workers = append(workers, w)
		addrs = append(addrs, ln.Addr().String())
		go func() {
			_ = w.Serve(ln)
			serveDone <- struct{}{}
		}()
	}
	return addrs, shutdown, nil
}
