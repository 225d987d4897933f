package cluster

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"time"
)

// ReadyPrefix is the line `coreset worker` prints on stdout once its
// listener is bound, followed by the listen address, so a harness that
// starts workers on port 0 learns an address that is immediately dialable.
const ReadyPrefix = "CORESETWORKER READY "

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

// ServeLoopback starts k workers on loopback listeners inside this process
// and returns their addresses plus a shutdown function — the single-machine
// fleet (coreset -cluster local, tests, experiments, benchmarks). The
// protocol still crosses real TCP sockets, so the bytes are measured exactly
// as against a fleet of `coreset worker` processes.
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
