package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/stream"
	"repro/internal/task"
)

const serviceGraphID = "bench"

// serviceEnv is the set-up state of service_mix: a coresetd server with the
// shipped defaults behind an http.Server on a loopback port, with the
// workload's generator spec registered.
type serviceEnv struct {
	w        workloadDef
	spec     service.GenSpec
	srv      *service.Server
	hs       *http.Server
	served   chan error // http.Server.Serve's return
	base     string
	client   *http.Client
	register time.Duration // POST /v1/graphs round trip
}

func setupService(w workloadDef, seed uint64) (_ *serviceEnv, err error) {
	e := &serviceEnv{
		w:      w,
		spec:   service.GenSpec{Name: "gnp", N: w.n, Deg: w.deg, Seed: seed},
		srv:    service.New(service.Config{}),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients}},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.hs = &http.Server{Handler: e.srv}
	e.base = "http://" + ln.Addr().String()
	go func() { e.served <- e.hs.Serve(ln) }()
	defer func() {
		if err != nil {
			e.close()
		}
	}()

	t0 := time.Now()
	var info service.GraphInfo
	code, err := e.do(http.MethodPost, "/v1/graphs", service.CreateGraphRequest{ID: serviceGraphID, Gen: &e.spec}, &info)
	e.register = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("registering graph: %w", err)
	}
	if code != http.StatusCreated && code != http.StatusOK {
		return nil, fmt.Errorf("registering graph: HTTP %d", code)
	}
	return e, nil
}

// close drains the HTTP server and the job pool and waits for both.
func (e *serviceEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.served
	e.srv.Shutdown(ctx)
	e.client.CloseIdleConnections()
}

// do sends one JSON request and decodes a 2xx JSON reply into out.
func (e *serviceEnv) do(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// runJob submits one job and long-polls it to its answer, as a caller of the
// daemon would: the sample's duration runs from before the POST until the
// decoded report is in hand.
func (e *serviceEnv) runJob(tr *tracer, seed uint64) (s sample) {
	s.seed = seed
	t0 := time.Now()
	job := tr.begin("service.job")
	defer func() {
		tr.end(job)
		s.dur = time.Since(t0)
	}()

	var view service.JobView
	id := tr.begin("service.submit")
	code, err := e.do(http.MethodPost, "/v1/jobs", service.CreateJobRequest{
		Graph: serviceGraphID, Task: e.w.task, K: e.w.k, Seed: seed, Mode: service.ModeStream,
	}, &view)
	tr.end(id)
	s.submit = time.Since(t0)
	switch {
	case err != nil:
		s.err = err
		return s
	case code == http.StatusServiceUnavailable:
		s.rejected, s.err = true, errors.New("refused: HTTP 503")
		return s
	case code != http.StatusOK && code != http.StatusAccepted:
		s.err = fmt.Errorf("submit: HTTP %d", code)
		return s
	}
	for view.State == string(service.JobQueued) || view.State == string(service.JobRunning) {
		id := tr.begin("service.wait")
		code, err := e.do(http.MethodGet, "/v1/jobs/"+view.ID+"?wait=30s", nil, &view)
		tr.end(id)
		if err != nil || code != http.StatusOK {
			s.err = fmt.Errorf("poll: HTTP %d: %v", code, err)
			return s
		}
	}
	if view.State != string(service.JobDone) || view.Result == nil {
		s.err = fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
		return s
	}
	s.cached = view.Cached
	s.edges, s.comm, s.size = view.Result.M, view.Result.TotalCommBytes, view.Result.SolutionSize
	return s
}

// closedLoop runs the workload's clients, each sending its next request only
// once the previous one is answered. A client's j-th request uses a fresh
// seed unless j mod 4 = 3, when it repeats the seed of its request j-3 — a
// result-cache hit. stop is asked only between groups of four, so exactly a
// quarter of every client's requests are repeats.
func (e *serviceEnv) closedLoop(tracers []*tracer, seedOf func(i int) uint64, stop func(groups int) bool) []sample {
	perClient := make([][]sample, e.w.clients)
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr *tracer
			if tracers != nil {
				tr = tracers[c]
			}
			for j := 0; j%4 != 0 || !stop(j/4); j++ {
				fresh := j
				if j%4 == 3 {
					fresh = j - 3
				}
				if tr != nil {
					tr.job = j
				}
				perClient[c] = append(perClient[c], e.runJob(tr, seedOf(fresh*e.w.clients+c)))
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

func (e *serviceEnv) cacheHits() (int64, error) {
	var st service.StatsView
	code, err := e.do(http.MethodGet, "/v1/stats", nil, &st)
	if err != nil || code != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/stats: HTTP %d: %v", code, err)
	}
	return st.Cache.Hits, nil
}

// serviceCheckEvery is the stride of the answer check: re-solving every job
// in-process would cost as much as the timed phase.
const serviceCheckEvery = 16

// checkReports marks as failed every checked job whose reported solution
// size differs from an in-process stream.Solve at the same (graph, task, k,
// seed), or is not positive.
func checkReports(d *task.Descriptor, spec service.GenSpec, k int, samples []sample) error {
	for i := range samples {
		s := &samples[i]
		if s.err != nil {
			continue
		}
		if s.size <= 0 {
			s.err = fmt.Errorf("solution size %d", s.size)
			continue
		}
		if i%serviceCheckEvery != 0 {
			continue
		}
		src, err := spec.Source()
		if err != nil {
			return err
		}
		want, _, err := stream.Solve(context.Background(), src, stream.Config{K: k, Seed: s.seed}, d, task.Params{})
		if err != nil {
			return fmt.Errorf("reference solve: %w", err)
		}
		if s.size != want.Size {
			s.err = fmt.Errorf("wrong answer: solutionSize %d, in-process stream.Solve %d (seed %d)", s.size, want.Size, s.seed)
		}
	}
	return nil
}

// runService runs service_mix. The traced run is the same closed loop with a
// span around every request; service_mix has no staged replay.
func runService(w workloadDef, o runOpts) (*runResult, error) {
	d, ok := task.Get(w.task)
	if !ok {
		return nil, fmt.Errorf("unknown task %q", w.task)
	}
	env, setups, err := timedSetups(o, func() (*serviceEnv, error) {
		env, err := setupService(w, o.seed)
		if err != nil {
			return nil, err
		}
		groups := (w.warmup + 4*w.clients - 1) / (4 * w.clients)
		warm := env.closedLoop(nil, func(i int) uint64 { return warmSeed(o.seed, i) }, func(g int) bool { return g >= groups })
		if f := failures(warm); len(f) > 0 {
			env.close()
			return nil, fmt.Errorf("warm-up %s", f[0])
		}
		return env, nil
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	it, err := env.spec.Iter()
	if err != nil {
		return nil, err
	}
	orc := newOracle(d, w.n, gen.Collect(it))

	var tracers []*tracer
	runtime.GC()
	hits0, err := env.cacheHits()
	if err != nil {
		return nil, err
	}
	alloc0, ticks0, start := totalAlloc(), readCPUTicks(), time.Now()
	if o.trace {
		for c := 0; c < w.clients; c++ {
			tracers = append(tracers, newTracer(start, c))
		}
	}
	samples := env.closedLoop(tracers, func(i int) uint64 { return jobSeed(o.seed, i) },
		func(g int) bool { return g > 0 && time.Since(start).Seconds() >= o.seconds })
	ph := endPhase(start, alloc0, ticks0)
	hits1, err := env.cacheHits()
	if err != nil {
		return nil, err
	}
	if err := checkReports(d, env.spec, w.k, samples); err != nil {
		return nil, err
	}
	for _, f := range failures(samples) {
		fmt.Fprintln(os.Stderr, w.name+":", f)
	}

	e2e, failed := endToEnd(o.spec, setups, samples, ph, orc)
	tail, pct := jobTail(samples)
	res := &runResult{
		Workload: w.name, Trace: o.trace, Seed: o.seed, Reference: orc.kind,
		Attempted: len(samples), Failed: failed, Metrics: e2e,
		Jobs: len(samples), TailPercentile: pct, StealShare: ph.stealShare,
		Exact: map[string]int64{
			"job0.comm_bytes":    int64(samples[0].comm),
			"job0.solution_size": int64(samples[0].size),
		},
	}
	if !o.trace {
		return res, nil
	}

	m := newMetrics(o.spec.PerLayer)
	var submit, cold, hit []float64
	rejected := 0
	for _, s := range samples {
		submit = append(submit, s.submit.Seconds())
		switch {
		case s.rejected:
			rejected++
		case s.err != nil:
		case s.cached:
			hit = append(hit, s.dur.Seconds())
		default:
			cold = append(cold, s.dur.Seconds())
		}
	}
	var jobs, accounted time.Duration
	for _, tr := range tracers {
		if err := checkNesting(tr.spans); err != nil {
			return nil, err
		}
		self := selfTimes(tr.spans)
		inServer := self["service.submit"] + self["service.wait"]
		accounted += inServer
		jobs += inServer + self["service.job"]
	}
	m.set("service.register.busy_s", env.register.Seconds())
	m.set("service.submit.p50_s", median(submit))
	m.set("service.cold.p50_s", median(cold))
	m.set("service.hit.p50_s", median(hit))
	m.set("service.hit_share", float64(hits1-hits0)/float64(len(samples)))
	m.set("service.rejected", float64(rejected))
	m.set("service.job_tail_s", tail)
	m.set("trace.accounted_share", accounted.Seconds()/jobs.Seconds())
	if failed == 0 {
		m.set("trace.parity_ok", 1) // every checked report equals the in-process answer
	}
	res.Metrics = m
	return res, writeChromeTrace(filepath.Join(o.outDir, "trace-"+w.name+".json"), w.name, tracers)
}
