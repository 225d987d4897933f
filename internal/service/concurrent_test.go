package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentClients hammers one service from many goroutines with a
// deliberately colliding key space, so cache hits, fresh runs and queue
// pressure interleave. Run with -race; the assertions are about coherence:
// every job terminates, and every response for the same key carries the
// same solution size.
func TestConcurrentClients(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 4, QueueDepth: 256})

	var info GraphInfo
	if code := c.postJSON("/v1/graphs", CreateGraphRequest{Gen: &GenSpec{Name: "gnp", N: 3000, Deg: 6, Seed: 1}}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}

	const clients = 8
	const jobsPerClient = 6
	var (
		mu    sync.Mutex
		sizes = map[Key]int{}
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := 0; i < jobsPerClient; i++ {
				req := CreateJobRequest{
					Graph: info.ID,
					Task:  []string{TaskMatching, TaskVC}[i%2],
					K:     2 + i%3,
					Seed:  uint64(i % 4), // collisions across clients → cache hits
					Mode:  []string{ModeStream, ModeBatch}[ci%2],
				}
				v := c.runJob(req)
				if v.State != string(JobDone) {
					errs <- fmt.Errorf("client %d: job %s state %s (%s)", ci, v.ID, v.State, v.Error)
					return
				}
				mu.Lock()
				k := jobKey(req, req.Graph, 1)
				if prev, seen := sizes[k]; seen && prev != v.Result.SolutionSize {
					mu.Unlock()
					errs <- fmt.Errorf("key %+v: solution size %d then %d", k, prev, v.Result.SolutionSize)
					return
				}
				sizes[k] = v.Result.SolutionSize
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := c.stats()
	if st.Cache.Hits == 0 {
		t.Fatalf("colliding workload produced no cache hits: %+v", st.Cache)
	}
	if got := st.Jobs.Done; int(st.Jobs.Submitted) != clients*jobsPerClient || got != clients*jobsPerClient {
		t.Fatalf("job accounting: %+v", st.Jobs)
	}
}

// TestGracefulShutdownDrainsInflight submits more slow jobs than workers,
// shuts down while they are queued/running, and requires that (1) Shutdown
// returns only after every accepted job reached a terminal state, and
// (2) the worker goroutines are actually gone afterwards.
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{Workers: 2, QueueDepth: 32})
	reg := s.Registry()
	if _, err := reg.AddSpec("g", &GenSpec{Name: "gnp", N: 100000, Deg: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Manager().Submit(CreateJobRequest{Graph: "g", Task: TaskVC, K: 4, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s not terminal after shutdown (state %s)", j.ID, j.State())
		}
		if st := j.State(); st != JobDone {
			t.Fatalf("job %s drained to %s, want done", j.ID, st)
		}
	}
	if _, err := s.Manager().Submit(CreateJobRequest{Graph: "g", Task: TaskMatching, K: 4, Seed: 99}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit: %v", err)
	}

	// The pool's goroutines must be gone. Give the runtime a moment to
	// retire exiting goroutines before comparing.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, after)
	}
}

// TestShutdownDeadlineCancelsJobs: when the drain deadline expires, running
// streaming jobs are canceled via their contexts and Shutdown still leaves
// no goroutine behind.
func TestShutdownDeadlineCancelsJobs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	if _, err := s.Registry().AddSpec("g", &GenSpec{Name: "gnp", N: 1000000, Deg: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Manager().Submit(CreateJobRequest{Graph: "g", Task: TaskVC, K: 4, Seed: uint64(i), Batch: 256})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		// The machine may genuinely finish everything in 50ms; accept a
		// clean drain but require terminal jobs either way.
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s not terminal after forced shutdown (state %s)", j.ID, j.State())
		}
	}
}

// TestWaitedJobsAreCounted: a job is counted in the lifetime totals before
// its waiters wake, so whoever waits on a job and then reads the totals finds
// it there — the order ExampleServer's "3 jobs done" line depends on.
func TestWaitedJobsAreCounted(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64})
	defer s.Shutdown(context.Background())
	if _, err := s.Registry().AddSpec("g", &GenSpec{Name: "gnp", N: 200, Deg: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	const n = 40
	jobs := make([]*Job, n)
	for i := range jobs {
		j, err := s.Manager().Submit(CreateJobRequest{Graph: "g", Task: TaskMatching, K: 2, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		<-j.Done()
		if _, done, _, _ := s.Manager().lifetime(); done < int64(i+1) {
			t.Fatalf("waited on %d done jobs, lifetime counts %d", i+1, done)
		}
	}
}
