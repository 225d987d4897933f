package engine

import (
	"context"
	"fmt"
	"reflect"
	"slices"
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
	var p task.Params
	if d.UsesBeta {
		p.EDCS = edcs.ParamsForBeta(8)
	}
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

// TestReuseNeverChangesAnAnswer: machines draw their shard blocks, routing
// batches and vc degree tables from process-wide free lists and hand them
// back when done, so a summary or solution that aliased one would change
// under the next job to draw it. For every task, over stream and over a
// loopback cluster, job A's summaries and solution must come through eight
// concurrent jobs (mixed tasks, seeds and k) deep-equal to a copy taken
// before them, and each concurrent job must deep-equal its solo run. Every
// solution must also pass its task's verifier, which a machine that lost
// its store before reading it fails. The input is dense enough that vc
// levels fire and every machine's store spans several blocks. CI repeats it
// under the race detector, whose sync.Pool drops a random quarter of what it
// is handed, so the repeats vary which blocks get reused.
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
}
