package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/task"
)

// Sentinel errors Submit maps to HTTP statuses.
var (
	ErrQueueFull    = errors.New("service: job queue full")
	ErrShuttingDown = errors.New("service: shutting down")
	ErrUnknownGraph = errors.New("service: unknown graph")
	// ErrNoCluster rejects mode "cluster" jobs on a daemon started without
	// a worker fleet (coreset serve -cluster).
	ErrNoCluster = errors.New("service: no cluster workers configured")
)

// JobState is a job's lifecycle position. Transitions are
// queued → running → {done, failed, canceled}; a queued job canceled before
// a worker picks it up goes straight to canceled.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Job is one coreset computation tracked by the manager. All mutable state
// is behind mu; done is closed exactly once when the job reaches a terminal
// state, which is what GET /v1/jobs/{id}?wait= blocks on.
type Job struct {
	ID  string
	Req CreateJobRequest
	key Key // cache key, pinned at submission (includes the graph generation)

	// ctx and cancel exist while the job is queued or running; a terminal
	// job drops both. Once the job is submitted, cancel is only written and
	// read under mu.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	// runID is the job's trace run ID, set by the executing worker goroutine
	// before execute runs; cluster jobs ship it to the worker fleet so their
	// spans join the job's trace stream.
	runID string

	mu     sync.Mutex
	state  JobState
	cached bool
	err    error
	result *graph.RunReport
}

// Cancel requests cancellation: a queued job is dropped when dequeued, a
// running job stops at the next batch boundary. Safe to call in any state,
// any number of times; on a terminal job, which has dropped its context, it
// does nothing.
func (j *Job) Cancel() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// View returns the API representation of the job.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{ID: j.ID, State: string(j.state), Cached: j.cached, Request: j.Req, Result: j.result}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
}

// finish moves the job to its terminal state and releases waiters.
func (j *Job) finish(rep *graph.RunReport, err error) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.state, j.result = JobDone, rep
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state, j.err = JobCanceled, err
	default:
		j.state, j.err = JobFailed, err
	}
	// A retained terminal job holds no context: Cancel reads nil and does
	// nothing, and the context's resources go with the call below.
	cancel := j.cancel
	j.ctx, j.cancel = nil, nil
	j.mu.Unlock()
	cancel()
	close(j.done)
}

// Manager runs coreset jobs on a bounded worker pool fed by a bounded
// queue. Submission is admission-controlled (a full queue rejects rather
// than blocks), results of successful runs are published to the cache, and
// Shutdown drains: no new submissions, every already-accepted job runs (or
// observes its cancellation), and all workers exit before Shutdown returns.
type Manager struct {
	reg       *Registry
	cache     *Cache
	queue     chan *Job
	workers   int
	retention int
	// cluster configures the worker fleet mode "cluster" jobs dispatch to
	// (immutable after construction; an empty fleet means cluster jobs are
	// rejected).
	cluster ClusterConfig
	// ins carries the metrics collectors and tracer the worker loop writes
	// to; nil (the zero-instrumentation default in library tests) is valid.
	ins *Instruments
	wg  sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu        sync.Mutex
	jobs      map[string]*Job
	terminal  []string // terminal job IDs, oldest first (retention FIFO)
	seq       int
	closed    bool
	submitted int64
	// byTask counts submissions per task name (cache hits included). Keys
	// are seeded from the task registry at construction so every registered
	// task reports a zero-valued series from startup.
	byTask map[string]int64
	// Cumulative terminal-state counters: they survive retention pruning,
	// so /v1/stats keeps honest lifetime totals.
	nDone, nFailed, nCanceled int64
}

// ClusterConfig configures the worker fleet mode "cluster" jobs dispatch
// to. MaxRetries is cluster.Config.MaxRetries: the per-machine, per-round
// replay budget, 0 failing fast.
type ClusterConfig struct {
	Workers    []string
	Spares     []string
	MaxRetries int
}

// NewManager starts workers goroutines consuming a queue of queueDepth
// pending jobs. The most recent `retention` terminal jobs stay pollable;
// older ones are pruned so a long-running daemon's memory stays bounded
// (<= 0: keep everything). clusterCfg's fleet, when non-empty, is what
// mode "cluster" jobs run against. ins (nil for none) receives job latency
// and in-flight instrumentation and supplies the event sink threaded into
// cluster and rounds runs.
func NewManager(reg *Registry, cache *Cache, workers, queueDepth, retention int, clusterCfg ClusterConfig, ins *Instruments) *Manager {
	if workers <= 0 {
		workers = 1
	}
	if queueDepth <= 0 {
		queueDepth = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		reg:       reg,
		cache:     cache,
		queue:     make(chan *Job, queueDepth),
		workers:   workers,
		retention: retention,
		cluster: ClusterConfig{
			Workers:    append([]string(nil), clusterCfg.Workers...),
			Spares:     append([]string(nil), clusterCfg.Spares...),
			MaxRetries: clusterCfg.MaxRetries,
		},
		ins:        ins,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		byTask:     make(map[string]int64, len(task.Names())),
	}
	for _, name := range task.Names() {
		m.byTask[name] = 0
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Workers returns the pool size.
func (m *Manager) Workers() int { return m.workers }

// Submit validates and enqueues a job. On a cache hit the returned job is
// already done, carries the cached report, and never touches the queue — the
// service's core promise: a repeated query re-runs nothing.
func (m *Manager) Submit(req CreateJobRequest) (*Job, error) {
	if err := req.normalize(); err != nil {
		return nil, err
	}
	if req.Mode == ModeCluster {
		if len(m.cluster.Workers) == 0 {
			return nil, ErrNoCluster
		}
		// One machine per worker address: the request's k must name the
		// fleet size, or the cache key would lie about the partitioning.
		if req.K != len(m.cluster.Workers) {
			return nil, badRequestf("cluster mode requires k = %d (the fleet size), got %d",
				len(m.cluster.Workers), req.K)
		}
	}
	scope, gen, ok := m.reg.CacheScope(req.Graph)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownGraph, req.Graph)
	}
	key := jobKey(req, scope, gen)
	rep, hit := m.cache.Get(key)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrShuttingDown
	}
	m.seq++
	j := &Job{
		ID:    fmt.Sprintf("j-%d", m.seq),
		Req:   req,
		key:   key,
		done:  make(chan struct{}),
		state: JobQueued,
	}
	if hit {
		// Born terminal, so it never gets a context: Cancel is a no-op.
		j.state, j.cached, j.result = JobDone, true, rep
		close(j.done)
		m.jobs[j.ID] = j
		m.submitted++
		m.byTask[req.Task]++
		m.ins.noteJob(req.Task)
		m.noteTerminalLocked(j)
		return j, nil
	}
	j.ctx, j.cancel = context.WithCancel(m.baseCtx)
	select {
	case m.queue <- j:
	default:
		j.cancel()
		return nil, ErrQueueFull
	}
	m.jobs[j.ID] = j
	m.submitted++
	m.byTask[req.Task]++
	m.ins.noteJob(req.Task)
	return j, nil
}

// noteTerminalLocked records a terminal transition: bump the lifetime
// counter and prune the oldest terminal jobs beyond the retention window.
func (m *Manager) noteTerminalLocked(j *Job) {
	switch j.State() {
	case JobDone:
		m.nDone++
	case JobFailed:
		m.nFailed++
	case JobCanceled:
		m.nCanceled++
	}
	m.terminal = append(m.terminal, j.ID)
	if m.retention <= 0 {
		return
	}
	for len(m.terminal) > m.retention {
		delete(m.jobs, m.terminal[0])
		m.terminal = m.terminal[1:]
	}
}

// Get returns a tracked job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		var rep *graph.RunReport
		err := j.ctx.Err()
		if err == nil {
			m.ins.jobStarted()
			j.setRunning()
			j.runID = obs.NewRunID()
			tr := m.ins.trace().WithRun(j.runID)
			end := tr.Span("job", "job", j.ID, "task", j.Req.Task, "mode", j.Req.Mode, "k", j.Req.K)
			start := time.Now()
			rep, err = m.execute(j)
			m.ins.observeJob(j.Req.Task, j.Req.Mode, time.Since(start))
			m.ins.jobFinished()
			if err == nil {
				m.cache.Put(j.key, rep)
				end("state", string(JobDone))
			} else {
				end("state", "error", "err", err.Error())
			}
		}
		// finish makes j terminal and wakes its waiters; m.mu is held until
		// j is counted, so whoever sees j terminal and then reads the
		// lifetime totals finds j among them.
		m.mu.Lock()
		j.finish(rep, err)
		m.noteTerminalLocked(j)
		m.mu.Unlock()
	}
}

// lifetime returns the monotonic lifetime totals (submitted and per-terminal-
// state counts) backing the /metrics counter functions.
func (m *Manager) lifetime() (submitted, done, failed, canceled int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.submitted, m.nDone, m.nFailed, m.nCanceled
}

// execute pins the job's graph and hands the run to the engine — the one
// place that dispatches on mode and rounds, so a newly registered task or
// runtime reaches the daemon without a service change. Every mode honors the
// job context at batch granularity (engine.Run).
func (m *Manager) execute(j *Job) (*graph.RunReport, error) {
	entry, err := m.reg.Acquire(j.Req.Graph)
	if err != nil {
		return nil, err // evicted or removed since submission
	}
	defer m.reg.Release(entry)
	if scope, gen := entry.cacheScope(); scope != j.key.Graph || gen != j.key.Gen {
		// The ID was re-registered with a different graph between submission
		// and execution; running against it would publish its result under
		// the old key. A dataset re-registered with identical bytes passes —
		// its scope is the content hash, which did not change.
		return nil, fmt.Errorf("service: graph %q was replaced while job %s was queued", j.Req.Graph, j.ID)
	}
	req := j.Req
	return engine.Run(j.ctx, engine.Spec{
		Task:      req.Task,
		Beta:      req.Beta, // normalize pinned the default, so cache keys and reports agree
		Rounds:    req.Rounds,
		Runtime:   req.Mode,
		K:         req.K,
		Seed:      req.Seed,
		BatchSize: req.Batch,
		// Registry sources are restartable, so with a replay budget (coreset
		// serve's -max-retries, cluster.DefaultMaxRetries unless set) a
		// worker lost mid-round costs the job one round replay, reported in
		// the result's retry fields, instead of a failed job.
		Cluster: cluster.Config{
			Workers:    m.cluster.Workers,
			Spares:     m.cluster.Spares,
			MaxRetries: m.cluster.MaxRetries,
			RunID:      j.runID,
		},
		Metrics: m.ins.registry(),
	}, entry.Source())
}

// Stats counts jobs by state. Terminal counts are lifetime totals (they
// survive retention pruning); queued/running are scanned from the retained
// set, which always contains every non-terminal job.
func (m *Manager) Stats() JobStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := JobStats{
		Submitted: m.submitted,
		QueueLen:  len(m.queue),
		Done:      int(m.nDone),
		Failed:    int(m.nFailed),
		Canceled:  int(m.nCanceled),
		ByTask:    make(map[string]int64, len(m.byTask)),
	}
	for name, n := range m.byTask {
		st.ByTask[name] = n
	}
	for _, j := range m.jobs {
		switch j.State() {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
		}
	}
	return st
}

// Shutdown stops accepting jobs and drains the pool: every accepted job
// reaches a terminal state and every worker goroutine exits before Shutdown
// returns. If ctx expires first, all outstanding job contexts are canceled
// (streaming jobs stop at the next batch boundary) and Shutdown still waits
// for the workers to exit, returning the ctx error.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		m.baseCancel()
		return nil
	case <-ctx.Done():
		m.baseCancel()
		<-done
		return ctx.Err()
	}
}
