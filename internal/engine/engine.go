// Package engine is the one place that knows how to run a (task, runtime,
// rounds) combination. The paper's simultaneous protocol is one thing — every
// machine summarizes its share of a random k-partitioning, the coordinator
// composes — and batch, stream and cluster, like the MPC rounds of "Coresets
// Meet EDCS" (arXiv:1711.03076), are deployment choices for it. Run holds
// that choice once: both frontends (coreset run and the service's job
// manager) describe what they want in a Spec, hand over an edge source and
// get back the graph.RunReport they print or serve.
//
// There are two runtimes behind three names, and Run picks one in a single
// switch that yields a round function (rounds.Round): stream.Summaries for
// the in-process pipeline, or Session.Round on one cluster.Session for the
// worker fleet. Batch is the in-process pipeline over the materialized
// input, bracketed by self-checks. A single-round run calls the round
// function once; a multi-round run hands it to rounds.Drive, which knows the
// schedule but not the runtime. Either way the task's Compose turns the
// final summaries into the answer and its Verify self-checks a batch run.
// Both runtimes route with stream.Pass, feed the task's own builders, fold
// the summaries with task.Descriptor.FoldStats into the shared run-stats
// struct (core.PipelineStats), and report below is the single stats→report
// path.
package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edcs"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/stream"
	"repro/internal/task"
)

// Runtime names: where the k machines live. They are the report's "mode".
const (
	Batch   = "batch"   // the stream pipeline over the materialized, self-checked graph
	Stream  = "stream"  // k goroutines behind stream.Route
	Cluster = "cluster" // k workers over TCP
)

// Spec is one run's full description. Every field is a CLI flag or a job
// request field of some frontend; nothing here is engine-only tuning.
type Spec struct {
	Task   string // registered task name (internal/task)
	Beta   int    // EDCS degree bound, beta-capable tasks only (0 = default)
	Rounds int    // multi-round MPC cap, rounds-capable tasks only (0 = single round)

	Runtime string // Batch | Stream | Cluster
	// K is the machine count. In the cluster runtime it must equal
	// len(Cluster.Workers): one machine per worker.
	K    int
	Seed uint64 // partitioning seed, the run's only randomness

	BatchSize int // edges per routed batch / SHARD frame (0 = default)

	// Cluster is the resolved fleet for the cluster runtime: Workers, Spares,
	// MaxRetries and RunID (plus the timeouts, when a caller sets them) are
	// taken as given; BatchSize and Metrics are filled from this Spec,
	// whose Seed every round routes with.
	Cluster cluster.Config

	Metrics *obs.Registry // wire-level and per-round metrics (nil: silent)
	Trace   *obs.Tracer   // shard and round spans (nil: off)
}

// resolve checks the Spec and looks up what every path needs: the task
// descriptor and its parameters. Parameter errors carry task.ValidateParams'
// text, the vocabulary every frontend already speaks.
func (sp Spec) resolve() (d *task.Descriptor, p task.Params, err error) {
	if err := task.ValidateParams(sp.Task, sp.Beta, sp.Rounds); err != nil {
		return nil, p, err
	}
	d, ok := task.Get(sp.Task)
	if !ok {
		return nil, p, fmt.Errorf("unknown task %q (known tasks: %s)", sp.Task, strings.Join(task.Names(), ", "))
	}
	if sp.K < 1 {
		return nil, p, fmt.Errorf("k must be at least 1 (got %d)", sp.K)
	}
	switch sp.Runtime {
	case Batch, Stream:
	case Cluster:
		if n := len(sp.Cluster.Workers); sp.K != n {
			return nil, p, fmt.Errorf("cluster runtime runs one machine per worker: k = %d but the fleet has %d", sp.K, n)
		}
	default:
		return nil, p, fmt.Errorf("unknown runtime %q (known runtimes: %s, %s, %s)", sp.Runtime, Batch, Stream, Cluster)
	}
	if d.UsesBeta {
		p.EDCS = edcs.ParamsForBeta(sp.Beta)
	}
	return d, p, nil
}

// Run executes the run sp describes over src and reports it. The runtime
// switch (Spec.runtime) and the choice between one round and the round
// driver exist nowhere else.
//
// Every runtime stops at the next batch boundary when ctx is canceled. The
// batch runtime materializes src first and self-checks: the input must pass
// graph.Validate and the composed solution the task's verifier. Once the
// report is built the final round's summaries go back to the free lists
// (task.Release), so the next run's machines reuse their memory.
func Run(ctx context.Context, sp Spec, src stream.EdgeSource) (*graph.RunReport, error) {
	rep, sums, _, err := run(ctx, sp, src)
	task.Release(sums...)
	return rep, err
}

// run is Run, also returning the final round's summaries and the composed
// solution, which the parity tests hold equal across runtimes. The summaries
// are not released: they are the caller's.
func run(ctx context.Context, sp Spec, src stream.EdgeSource) (*graph.RunReport, []task.Summary, task.Solution, error) {
	var sol task.Solution
	d, p, err := sp.resolve()
	if err != nil {
		return nil, nil, sol, err
	}
	var g *graph.Graph
	if sp.Runtime == Batch {
		if g, err = stream.Collect(src); err != nil {
			return nil, nil, sol, err
		}
		if err := g.Validate(); err != nil {
			return nil, nil, sol, fmt.Errorf("invalid input: %w", err)
		}
		src = stream.NewGraphSource(g)
	}
	start := time.Now()
	round, closeRuntime, err := sp.runtime(ctx, d, p, src)
	if err != nil {
		return nil, nil, sol, err
	}
	defer closeRuntime()

	var (
		sums []task.Summary
		st   *core.PipelineStats
		rst  *rounds.Stats
	)
	if sp.Rounds == 0 {
		sums, st, err = round(ctx, src, sp.K, sp.Seed)
	} else {
		// resolve admitted Rounds, so d is the rounds-capable task.
		rcfg := rounds.Config{K: sp.K, Rounds: sp.Rounds, Seed: sp.Seed, Params: p.EDCS, Metrics: sp.Metrics, Trace: sp.Trace}
		if sums, rst, err = rounds.Drive(ctx, src, rcfg, round); err == nil {
			st = &rst.PipelineStats
		}
	}
	if err != nil {
		return nil, nil, sol, err
	}
	sol = d.Compose(st.N, sums)
	st.Duration = time.Since(start)
	if g != nil && d.Verify != nil {
		if err := d.Verify(g.N, g.Edges, sol); err != nil {
			// The input was valid, so an invalid solution is a bug in this
			// program.
			return nil, nil, sol, fmt.Errorf("internal error: %w", err)
		}
	}
	rep := report(sp, p, st, sol.Size)
	if rst != nil {
		rep.Rounds, rep.RoundsRun = rst.RoundCap, rst.RoundsRun
		for _, rs := range rst.Rounds {
			rep.RoundStats = append(rep.RoundStats, roundReport(rs))
		}
	}
	return rep, sums, sol, nil
}

// runtime is the one runtime switch: it returns the round function of sp's
// runtime and the call that releases it. In process that is
// stream.Summaries; on a fleet, Session.Round on a session opened for the
// whole run, so a multi-round run dials and greets every worker once.
func (sp Spec) runtime(ctx context.Context, d *task.Descriptor, p task.Params, src stream.EdgeSource) (rounds.Round, func() error, error) {
	if sp.Runtime != Cluster {
		round := func(ctx context.Context, input stream.EdgeSource, k int, seed uint64) ([]task.Summary, *core.PipelineStats, error) {
			return stream.Summaries(ctx, input, stream.Config{K: k, Seed: seed, BatchSize: sp.BatchSize, Trace: sp.Trace}, d, p)
		}
		return round, func() error { return nil }, nil
	}
	ccfg := sp.Cluster
	ccfg.BatchSize, ccfg.Metrics = sp.BatchSize, sp.Metrics
	nHint := 0
	if src != nil && src.KnownUpfront() {
		nHint = src.NumVertices()
	}
	sess, err := cluster.Open(ctx, ccfg, d, p, sp.Rounds, nHint)
	if err != nil {
		return nil, nil, err
	}
	return sess.Round, sess.Close, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// roundReport is one round of a multi-round run in the report schema.
func roundReport(rs rounds.RoundStat) graph.RoundReport {
	return graph.RoundReport{
		Round:        rs.Round,
		K:            rs.K,
		Seed:         rs.Seed,
		InputEdges:   rs.InputEdges,
		UnionEdges:   rs.UnionEdges,
		RunCounts:    rs.RunCounts,
		DurationMS:   ms(rs.Duration),
		MachineStats: rs.MachineStats,
	}
}

// report is the one stats→report constructor: whatever the runtime observed
// lands in the report — the accounting as one RunCounts block — and what it
// could not observe stays zero and is omitted from the JSON. Multi-round runs
// add their round breakdown on top.
func report(sp Spec, p task.Params, st *core.PipelineStats, solutionSize int) *graph.RunReport {
	return &graph.RunReport{
		Task:         sp.Task,
		Mode:         sp.Runtime,
		N:            st.N,
		M:            st.EdgesTotal,
		K:            st.K,
		Seed:         sp.Seed,
		Beta:         p.EDCS.Beta, // zero unless the task uses it
		SolutionSize: solutionSize,
		RunCounts:    st.RunCounts,
		DurationMS:   ms(st.Duration),
		EdgesPerSec:  st.EdgesPerSec(),
		MachineStats: st.MachineStats,
	}
}
