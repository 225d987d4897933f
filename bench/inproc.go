package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// inprocEnv is the set-up state of an in-process workload (everything but
// service_mix): the generated input, the stored dataset when the workload
// reads from disk, and the loopback worker fleet when it needs one.
type inprocEnv struct {
	w      workloadDef
	d      *task.Descriptor
	params task.Params
	n      int
	// edges is the full edge list: the source of the in-memory workloads,
	// and for every workload what the answer checker and oracle read.
	edges []graph.Edge
	// ds and dir are the ingested dataset and its temporary directory.
	ds     *dataset.Dataset
	dir    string
	ingest time.Duration // wall time of dataset.IngestFile
	// addrs and stopWorkers are the loopback cluster workers.
	addrs       []string
	stopWorkers func()
}

// setupInproc generates the workload's input from seed and brings up what
// its jobs need. workers > 0 also starts that many loopback cluster workers.
func setupInproc(w workloadDef, seed uint64, tmpRoot string, workers int) (_ *inprocEnv, err error) {
	d, ok := task.Get(w.task)
	if !ok {
		return nil, fmt.Errorf("unknown task %q", w.task)
	}
	e := &inprocEnv{w: w, d: d, n: w.n}
	if d.UsesBeta {
		e.params.EDCS = edcs.ParamsForBeta(w.beta)
	}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	p := w.deg / float64(w.n)
	if w.onDisk {
		if err := e.ingestGenerated(gen.GNPIter(w.n, p, rng.New(seed)), tmpRoot); err != nil {
			return nil, err
		}
	} else {
		e.edges = gen.GNP(w.n, p, rng.New(seed)).Edges
	}
	if workers > 0 {
		if e.addrs, e.stopWorkers, err = cluster.ServeLoopback(workers); err != nil {
			return nil, fmt.Errorf("starting loopback workers: %w", err)
		}
	}
	return e, nil
}

// ingestGenerated writes the generated edges as a SNAP-style text edge list,
// ingests that file the way `coreset ingest -in` does, and opens the result.
func (e *inprocEnv) ingestGenerated(it gen.EdgeIter, tmpRoot string) error {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "dataset-")
	if err != nil {
		return err
	}
	e.dir = dir
	text := filepath.Join(dir, "edges.txt")
	f, err := os.Create(text)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(bw, "# Undirected graph: bench %s\n# FromNodeId\tToNodeId\n", e.w.name)
	var line []byte
	for {
		ed, ok := it.Next()
		if !ok {
			break
		}
		e.edges = append(e.edges, ed)
		line = strconv.AppendInt(line[:0], int64(ed.U), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(ed.V), 10)
		line = append(line, '\n')
		bw.Write(line) // a failed write resurfaces from Flush
	}
	if err := errors.Join(bw.Flush(), f.Close()); err != nil {
		return fmt.Errorf("writing %s: %w", text, err)
	}
	t0 := time.Now()
	man, err := dataset.IngestFile(filepath.Join(dir, "ds"), text, dataset.IngestOptions{SegmentEdges: e.w.segEdges})
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	e.ingest = time.Since(t0)
	if man.M != len(e.edges) {
		return fmt.Errorf("ingest stored %d edges, generated %d", man.M, len(e.edges))
	}
	if e.ds, err = dataset.Open(filepath.Join(dir, "ds")); err != nil {
		return err
	}
	e.n = e.ds.NumVertices()
	return nil
}

// close stops the workers and removes the temporary dataset; it is safe on a
// half-built env and is what keeps failed runs from leaving files behind.
func (e *inprocEnv) close() {
	if e.stopWorkers != nil {
		e.stopWorkers()
		e.stopWorkers = nil
	}
	if e.ds != nil {
		e.ds.Close()
		e.ds = nil
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
		e.dir = ""
	}
}

// source mints a fresh edge source over the input, as a job would.
func (e *inprocEnv) source() stream.EdgeSource {
	if e.ds != nil {
		src := stream.NewDatasetSource(e.ds)
		src.MaxResidentBytes = maxResidentBytes
		return src
	}
	return stream.NewSliceSource(e.n, e.edges)
}

// job runs one whole job through the workload's runtime and returns the
// answer with the edges it read and the coreset bytes it cost.
func (e *inprocEnv) job(seed uint64) (sol task.Solution, edges, comm int, err error) {
	ctx := context.Background()
	if e.w.runtime == "cluster" {
		sol, st, err := cluster.Solve(ctx, e.source(), cluster.Config{Workers: e.addrs, Seed: seed}, e.d, e.params)
		if err != nil {
			return sol, 0, 0, err
		}
		return sol, st.EdgesTotal, st.TotalCommBytes, nil
	}
	sol, st, err := stream.Solve(ctx, e.source(), stream.Config{K: e.w.k, Seed: seed}, e.d, e.params)
	if err != nil {
		return sol, 0, 0, err
	}
	return sol, st.EdgesTotal, st.TotalCommBytes, nil
}

// oracleExactLimit is the largest input on which the matching reference is
// an exact maximum matching; above it the reference is the trivial bound.
const oracleExactLimit = 200_000

// newOracle computes the quality reference for a task on (n, edges).
func newOracle(d *task.Descriptor, n int, edges []graph.Edge) oracle {
	if d.Name == "vc" {
		// Any cover holds an endpoint of every edge of a maximal matching.
		return oracle{kind: "maximal_greedy_lower_bound", ref: matching.MaximalGreedy(n, edges).Size(), cover: true}
	}
	if len(edges) <= oracleExactLimit {
		return oracle{kind: "maximum_matching", ref: matching.Maximum(n, edges).Size()}
	}
	nonIsolated := 0
	for _, deg := range graph.Degrees(n, edges) {
		if deg > 0 {
			nonIsolated++
		}
	}
	return oracle{kind: "half_non_isolated_vertices", ref: nonIsolated / 2}
}

// timedJobs runs jobs back to back for the given time (at least one) and
// returns a sample and the answer of each. The answers are checked
// afterwards, outside the timed interval.
func timedJobs(e *inprocEnv, seed uint64, seconds float64) (samples []sample, sols []task.Solution, ph phase) {
	runtime.GC()
	alloc0, ticks0, start := totalAlloc(), readCPUTicks(), time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		t0 := time.Now()
		sol, edges, comm, err := e.job(jobSeed(seed, i))
		samples = append(samples, sample{dur: time.Since(t0), edges: edges, comm: comm, size: sol.Size, err: err})
		sols = append(sols, sol)
	}
	return samples, sols, endPhase(start, alloc0, ticks0)
}

// checkSolutions marks as failed every job whose answer the task's verifier
// rejects against the full edge list, or whose size is not positive. It runs
// after the timed phase, one checker per CPU: verifying a matching against a
// million edges costs a third of the job that found it.
func checkSolutions(d *task.Descriptor, n int, edges []graph.Edge, samples []sample, sols []task.Solution) {
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if sols[i].Size <= 0 {
					samples[i].err = fmt.Errorf("solution size %d", sols[i].Size)
				} else if err := d.Verify(n, edges, sols[i]); err != nil {
					samples[i].err = fmt.Errorf("wrong answer: %w", err)
				}
			}
		}()
	}
	for i := range samples {
		if samples[i].err == nil {
			next <- i
		}
	}
	close(next)
	wg.Wait()
}

// runInproc runs one in-process workload: set-up (several times, timed),
// the oracle, then either the timed phase or the traced pass.
func runInproc(w workloadDef, o runOpts) (*runResult, error) {
	workers := 0
	if w.runtime == "cluster" || o.trace {
		workers = w.k
	}
	env, setups, err := timedSetups(o, func() (*inprocEnv, error) {
		env, err := setupInproc(w, o.seed, o.outDir, workers)
		if err != nil {
			return nil, err
		}
		for i := 0; i < w.warmup; i++ {
			if _, _, _, err := env.job(warmSeed(o.seed, i)); err != nil {
				env.close()
				return nil, fmt.Errorf("warm-up job: %w", err)
			}
		}
		return env, nil
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	orc := newOracle(env.d, env.n, env.edges)
	res := &runResult{Workload: w.name, Trace: o.trace, Seed: o.seed, Reference: orc.kind, Exact: map[string]int64{}}
	if o.trace {
		return res, tracedInproc(env, o, res)
	}

	samples, sols, ph := timedJobs(env, o.seed, o.seconds)
	checkSolutions(env.d, env.n, env.edges, samples, sols)
	for _, f := range failures(samples) {
		fmt.Fprintln(os.Stderr, w.name+":", f)
	}
	res.Metrics, res.Failed = endToEnd(o.spec, setups, samples, ph, orc)
	res.StealShare = ph.stealShare
	res.Attempted, res.Jobs = len(samples), len(samples)
	_, res.TailPercentile = jobTail(samples)
	res.Exact["job0.comm_bytes"] = int64(samples[0].comm)
	res.Exact["job0.solution_size"] = int64(samples[0].size)
	return res, nil
}
