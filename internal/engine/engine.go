// Package engine is the one place that knows how to run a (task, runtime,
// rounds) combination. The paper's simultaneous protocol is one thing — every
// machine summarizes its share of a random k-partitioning, the coordinator
// composes — and batch, stream and cluster, like the MPC rounds of "Coresets
// Meet EDCS" (arXiv:1711.03076), are deployment choices for it. Run holds
// that choice once: every frontend (coreset run, the service's job manager,
// coreset load) describes what it wants in a Spec, hands over an edge
// source and gets back the graph.RunReport all of them print or serve.
//
// The runtimes stay libraries (task.Descriptor.Batch, stream.Solve,
// cluster.Solve, rounds.Batch/Stream/Cluster); each returns the shared
// run-stats struct (core.PipelineStats), and report below is the single
// stats→report path.
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
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/stream"
	"repro/internal/task"
)

// Runtime names: where the k machines live. They are the report's "mode".
const (
	Batch   = "batch"   // materialized graph, internal/core pipelines
	Stream  = "stream"  // k goroutines behind a hash sharder
	Cluster = "cluster" // k worker processes over TCP
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

	BatchSize int // edges per routed batch / SHARD frame (stream, cluster; 0 = default)
	Workers   int // goroutine cap of the batch runtime (0 = GOMAXPROCS)

	// Cluster is the resolved fleet for the cluster runtime: Workers, Spares,
	// MaxRetries and RunID (plus the timeouts, when a caller sets them) are
	// taken as given; Seed, BatchSize and Obs are filled from this Spec.
	Cluster cluster.Config

	Obs   obs.Sink    // wire-level and per-round events (nil: silent)
	Trace *obs.Tracer // shard and round spans (nil: off)
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

// Run executes the run sp describes over src and reports it. The runtime ×
// rounds dispatch below exists nowhere else.
//
// Cancellation follows the runtime: stream and cluster stop at the next
// batch boundary; a batch pipeline call is uninterruptible, so ctx is
// checked around it and between rounds. The batch runtime, which has the
// materialized graph in hand, also self-checks: the input must pass
// graph.Validate and the composed solution the task's verifier.
func Run(ctx context.Context, sp Spec, src stream.EdgeSource) (*graph.RunReport, error) {
	d, p, err := sp.resolve()
	if err != nil {
		return nil, err
	}
	var g *graph.Graph
	if sp.Runtime == Batch {
		if g, err = stream.Collect(src); err != nil {
			return nil, err
		}
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("invalid input: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	ccfg := sp.Cluster
	ccfg.Seed, ccfg.BatchSize, ccfg.Obs = sp.Seed, sp.BatchSize, sp.Obs

	if sp.Rounds >= 1 {
		// resolve admitted Rounds, so d is the rounds-capable task.
		rcfg := rounds.Config{K: sp.K, Rounds: sp.Rounds, Seed: sp.Seed, Params: p.EDCS,
			BatchSize: sp.BatchSize, Workers: sp.Workers, Obs: sp.Obs, Trace: sp.Trace}
		var (
			m  *matching.Matching
			st *rounds.Stats
		)
		switch sp.Runtime {
		case Batch:
			if m, st, err = rounds.Batch(ctx, g, rcfg); err == nil {
				err = verified(matching.Verify(g.N, g.Edges, m))
			}
		case Stream:
			m, st, err = rounds.Stream(ctx, src, rcfg)
		default:
			m, st, err = rounds.Cluster(ctx, src, ccfg, rcfg)
		}
		if err != nil {
			return nil, err
		}
		rep := report(sp, p, &st.PipelineStats, m.Size())
		rep.Rounds, rep.RoundsRun = st.RoundCap, st.RoundsRun
		for _, rs := range st.Rounds {
			rep.RoundStats = append(rep.RoundStats, roundReport(rs))
		}
		return rep, nil
	}

	var (
		sol task.Solution
		st  *core.PipelineStats
	)
	switch sp.Runtime {
	case Batch:
		start := time.Now()
		sol, st = d.Batch(g, sp.K, sp.Workers, sp.Seed, p)
		st.N, st.EdgesTotal, st.Duration = g.N, g.M(), time.Since(start)
		if err = ctx.Err(); err == nil && d.Verify != nil {
			err = verified(d.Verify(g.N, g.Edges, sol))
		}
	case Stream:
		sol, st, err = stream.Solve(ctx, src, stream.Config{K: sp.K, Seed: sp.Seed, BatchSize: sp.BatchSize, Trace: sp.Trace}, d, p)
	default:
		sol, st, err = cluster.Solve(ctx, src, ccfg, d, p)
	}
	if err != nil {
		return nil, err
	}
	return report(sp, p, st, sol.Size), nil
}

// verified marks a failed self-check as what it is: the input was valid, so
// an invalid solution is a bug in this program.
func verified(err error) error {
	if err != nil {
		return fmt.Errorf("internal error: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// roundReport is one round of a multi-round run in the report schema.
func roundReport(rs rounds.RoundStat) graph.RoundReport {
	return graph.RoundReport{
		Round:              rs.Round,
		K:                  rs.K,
		Seed:               rs.Seed,
		InputEdges:         rs.InputEdges,
		UnionEdges:         rs.UnionEdges,
		TotalCommBytes:     rs.TotalCommBytes,
		MaxMachineBytes:    rs.MaxMachineBytes,
		EstCommBytes:       rs.EstCommBytes,
		EstMaxMachineBytes: rs.EstMaxMachineBytes,
		ShardBytes:         rs.ShardBytes,
		Retries:            rs.Retries,
		ReplayedMachines:   rs.ReplayedMachines,
		MachineStats:       rs.MachineStats,
		DurationMS:         ms(rs.Duration),
	}
}

// report is the one stats→report constructor: whatever the runtime observed
// lands in the report, and what it could not observe stays zero and is
// omitted from the JSON. Multi-round runs add their round breakdown on top.
func report(sp Spec, p task.Params, st *core.PipelineStats, solutionSize int) *graph.RunReport {
	return &graph.RunReport{
		Task:               sp.Task,
		Mode:               sp.Runtime,
		N:                  st.N,
		M:                  st.EdgesTotal,
		K:                  st.K,
		Seed:               sp.Seed,
		Beta:               p.EDCS.Beta, // zero unless the task uses it
		SolutionSize:       solutionSize,
		PartEdges:          st.PartEdges,
		StoredEdges:        st.StoredEdges,
		Live:               st.Live,
		CoresetEdges:       st.CoresetEdges,
		CoresetFixed:       st.CoresetFixed,
		TotalCommBytes:     st.TotalCommBytes,
		MaxMachineBytes:    st.MaxMachineBytes,
		EstCommBytes:       st.EstCommBytes,
		EstMaxMachineBytes: st.EstMaxMachineBytes,
		ShardBytes:         st.ShardBytes,
		CompositionEdges:   st.CompositionEdges,
		Batches:            st.Batches,
		Retries:            st.Retries,
		ReplayedMachines:   st.ReplayedMachines,
		DurationMS:         ms(st.Duration),
		EdgesPerSec:        st.EdgesPerSec(),
		MachineStats:       st.MachineStats,
	}
}
