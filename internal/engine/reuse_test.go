package engine

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// reuseJob is one job of TestReuseNeverChangesAnAnswer.
type reuseJob struct {
	task string
	k    int
	seed uint64
}

// reuseResult is what a job hands its caller: the machines' summaries and
// the composed solution.
type reuseResult struct {
	sums []task.Summary
	sol  task.Solution
}

// runReuseJob runs j over g on one runtime — stream, or a one-round session
// with the first j.k loopback workers — composes the summaries and holds the
// solution to the task's verifier.
func runReuseJob(runtime string, addrs []string, g *graph.Graph, j reuseJob) (reuseResult, error) {
	ctx := context.Background()
	d := task.MustGet(j.task)
	p, _ := params(d)
	var (
		sums []task.Summary
		st   *core.PipelineStats
		err  error
	)
	if runtime == Stream {
		sums, st, err = stream.Summaries(ctx, stream.NewGraphSource(g), stream.Config{K: j.k, Seed: j.seed}, d, p)
	} else {
		sess, oerr := cluster.Open(ctx, cluster.Config{Workers: addrs[:j.k]}, d, p, 0, g.N)
		if oerr != nil {
			return reuseResult{}, oerr
		}
		defer sess.Close()
		sums, st, err = sess.Round(ctx, stream.NewGraphSource(g), j.k, j.seed)
	}
	if err != nil {
		return reuseResult{}, err
	}
	sol := d.Compose(st.N, sums)
	if d.Verify != nil {
		if err := d.Verify(g.N, g.Edges, sol); err != nil {
			return reuseResult{}, fmt.Errorf("%s %+v: %w", runtime, j, err)
		}
	}
	return reuseResult{sums, sol}, nil
}

// deepCopy copies r through nothing it could share with r: each summary
// round-trips through its task's codec, and the solution's slices are cloned.
func deepCopy(t *testing.T, name string, r reuseResult) reuseResult {
	t.Helper()
	d := task.MustGet(name)
	c := reuseResult{sums: make([]task.Summary, len(r.sums)), sol: r.sol}
	for i, s := range r.sums {
		var err error
		if c.sums[i], err = task.DecodeSummary(d, task.AppendSummary(nil, d, s)); err != nil {
			t.Fatal(err)
		}
	}
	if r.sol.Matching != nil {
		c.sol.Matching = r.sol.Matching.Clone()
	}
	c.sol.Cover, c.sol.Verts = slices.Clone(r.sol.Cover), slices.Clone(r.sol.Verts)
	if !reflect.DeepEqual(c, r) {
		t.Fatalf("%s: the deep copy differs from the result it copies", name)
	}
	return c
}

// releasePaths are the entry points that hand their summaries back to the
// free lists once they have composed and reported: engine.Run on each
// runtime, and the library calls stream.Solve and cluster.Solve.
var releasePaths = []string{"Run/" + Batch, "Run/" + Stream, "Run/" + Cluster, "stream.Solve", "cluster.Solve"}

// releaseJob is one job on a release path. The vc jobs run on graphs of
// different n, so the residuals and tables they recycle grow and shrink from
// one job to the next.
type releaseJob struct {
	task string
	g    *graph.Graph
	k    int
	seed uint64
}

// params returns the parameters a job of task d runs with, and its beta.
func params(d *task.Descriptor) (task.Params, int) {
	if !d.UsesBeta {
		return task.Params{}, 0
	}
	return task.Params{EDCS: edcs.ParamsForBeta(8)}, 8
}

// reference is j's answer from the materialized reference
// (task.Descriptor.Batch), which hands nothing back.
func (j releaseJob) reference() task.Solution {
	d := task.MustGet(j.task)
	p, _ := params(d)
	want, _ := d.Batch(j.g, j.k, 0, j.seed, p)
	return want
}

// runReleaseJob runs j on path, over the first j.k loopback workers for the
// cluster paths, and returns what the path hands its caller with what differs
// between two runs of one job cleared: an engine.Run's report (comparable),
// a Solve's solution. The answer must be want, j's reference.
func runReleaseJob(path string, addrs []string, j releaseJob, want task.Solution) (any, error) {
	ctx := context.Background()
	d := task.MustGet(j.task)
	p, beta := params(d)
	src := stream.NewGraphSource(j.g)
	var (
		got  any
		size int
		err  error
	)
	switch path {
	case "stream.Solve":
		var sol task.Solution
		sol, _, err = stream.Solve(ctx, src, stream.Config{K: j.k, Seed: j.seed}, d, p)
		got, size = sol, sol.Size
		if err == nil && !reflect.DeepEqual(sol, want) {
			err = fmt.Errorf("%s %s k=%d seed=%d: answer differs from the reference", path, j.task, j.k, j.seed)
		}
	case "cluster.Solve":
		var sol task.Solution
		sol, _, err = cluster.Solve(ctx, src, cluster.Config{Workers: addrs[:j.k], Seed: j.seed}, d, p)
		got, size = sol, sol.Size
		if err == nil && !reflect.DeepEqual(sol, want) {
			err = fmt.Errorf("%s %s k=%d seed=%d: answer differs from the reference", path, j.task, j.k, j.seed)
		}
	default:
		sp := Spec{Task: j.task, Beta: beta, Runtime: strings.TrimPrefix(path, "Run/"), K: j.k, Seed: j.seed, Cluster: cluster.Config{Workers: addrs[:j.k]}}
		var rep *graph.RunReport
		if rep, err = Run(ctx, sp, src); err == nil {
			got, size = comparable(*rep), rep.SolutionSize
		}
	}
	if err == nil && size != want.Size {
		err = fmt.Errorf("%s %s k=%d seed=%d: answer of size %d, the reference's %d", path, j.task, j.k, j.seed, size, want.Size)
	}
	return got, err
}

// TestReuseNeverChangesAnAnswer: machines draw their shard blocks, routing
// batches, vc degree tables and residuals and the vc composer's table from
// process-wide free lists and hand them back when done, so a summary or
// solution that aliased one would change under the next job to draw it. For
// every task, over stream and over a loopback cluster, job A's summaries and
// solution must come through eight concurrent jobs (mixed tasks, seeds and k)
// deep-equal to a copy taken before them, and each concurrent job must
// deep-equal its solo run. Every solution must also pass its task's verifier,
// which a machine that lost its store before reading it fails. The input is
// dense enough that vc levels fire and every machine's store spans several
// blocks. Then, on every path that hands its summaries back at the end of a
// run (releasePaths), twelve concurrent jobs on three graphs must each equal
// their solo run and the materialized reference, and every edge slice the
// runs draw must go back exactly once (graph.TrackEdges). CI repeats it under
// the race detector, whose sync.Pool drops a random quarter of what it is
// handed, so the repeats vary which blocks get reused.
func TestReuseNeverChangesAnAnswer(t *testing.T) {
	addrs, shutdown, err := cluster.ServeLoopback(4)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	g := gen.GNP(400, 0.25, rng.New(3))
	names := task.Names()
	var mixed []reuseJob
	for i := range 8 {
		mixed = append(mixed, reuseJob{names[i%len(names)], 2 + i%3, uint64(20 + i)})
	}
	for _, runtime := range []string{Stream, Cluster} {
		t.Run(runtime, func(t *testing.T) {
			held := make([]reuseResult, len(names))
			copies := make([]reuseResult, len(names))
			for i, name := range names {
				if held[i], err = runReuseJob(runtime, addrs, g, reuseJob{name, 4, 7}); err != nil {
					t.Fatal(err)
				}
				copies[i] = deepCopy(t, name, held[i])
			}
			solo := make([]reuseResult, len(mixed))
			for i, j := range mixed {
				r, err := runReuseJob(runtime, addrs, g, j)
				if err != nil {
					t.Fatal(err)
				}
				solo[i] = deepCopy(t, j.task, r)
			}
			got := make([]reuseResult, len(mixed))
			errs := make([]error, len(mixed))
			var wg sync.WaitGroup
			for i, j := range mixed {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = runReuseJob(runtime, addrs, g, j)
				}()
			}
			wg.Wait()
			for i, j := range mixed {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if !reflect.DeepEqual(got[i], solo[i]) {
					t.Errorf("concurrent job %+v differs from its solo run", j)
				}
			}
			for i, name := range names {
				if !reflect.DeepEqual(held[i], copies[i]) {
					t.Errorf("%s: job A's held summaries or solution changed while later jobs ran", name)
				}
			}
		})
	}

	graphs := []*graph.Graph{g, gen.GNP(260, 0.3, rng.New(4)), gen.GNP(530, 0.2, rng.New(5))}
	var (
		jobs []releaseJob
		refs []task.Solution
	)
	for i := range 12 {
		j := releaseJob{names[i%len(names)], graphs[i%len(graphs)], 2 + i%3, uint64(40 + i)}
		jobs, refs = append(jobs, j), append(refs, j.reference())
	}
	for _, path := range releasePaths {
		t.Run(path, func(t *testing.T) {
			ledger := graph.TrackEdges()
			t.Cleanup(func() { ledger.Close() }) // uninstalls it, should a run fail
			solo := make([]any, len(jobs))
			for i, j := range jobs {
				if solo[i], err = runReleaseJob(path, addrs, j, refs[i]); err != nil {
					t.Fatal(err)
				}
			}
			got := make([]any, len(jobs))
			errs := make([]error, len(jobs))
			var wg sync.WaitGroup
			for i, j := range jobs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = runReleaseJob(path, addrs, j, refs[i])
				}()
			}
			wg.Wait()
			if err := ledger.Close(); err != nil {
				t.Error(err)
			}
			for i, j := range jobs {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if !reflect.DeepEqual(got[i], solo[i]) {
					t.Errorf("concurrent job %s n=%d k=%d seed=%d differs from its solo run", j.task, j.g.N, j.k, j.seed)
				}
			}
		})
	}
}
