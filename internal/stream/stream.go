// Package stream is the in-process coreset runtime: the deployment shape of
// the paper's simultaneous model, run as a pipeline of concurrent stages:
//
//	EdgeSource --> Route --> k machine goroutines --> coordinator
//
// An EdgeSource streams edges in batches from a file reader, a generator, a
// dataset or a slice, never holding the full graph. Route sends each edge to
// machine partition.HashAssign(e, k, seed) — a seeded, position-independent
// hash, so the induced random k-partitioning is reproducible and shardable in
// parallel, and is the one partition.HashK materializes. Pass (pass.go) is the
// one loop around it: it routes a source over the machines taking part, runs
// a serve function per machine and publishes the final vertex count. This
// runtime serves each machine with an incremental coreset builder obtained
// from the task registry (internal/task); a cluster round (internal/cluster)
// serves each with a worker connection through the same Pass. The runtime
// itself knows nothing about matchings, vertex covers, EDCSs or any other
// summary family; a task.Descriptor supplies the builder and the composer,
// and Solve drives them. Each machine emits its summary, with communication
// accounting, to the coordinator, which composes the final answer.
//
// The engine's batch runtime is this pipeline over a materialized graph
// (NewGraphSource). The pipeline reproduces the materialized reference
// (task.Descriptor.Batch: partition.HashK, then one builder per part) bit for
// bit for the same (graph, seed, k) (see the parity tests); its resource
// profile is O(batch) driver memory, per-machine state bounded by the
// machine's own partition (less, for vertex cover, once online peeling starts
// discarding covered edges), and all k machines consuming concurrently.
package stream

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/task"
)

// DefaultBatchSize is the number of edges per routed batch when Config leaves
// BatchSize zero. Batches amortize channel operations; the value is a latency
// versus overhead trade-off, not a correctness knob.
const DefaultBatchSize = 1024

// Config parameterizes a streaming run.
type Config struct {
	// K is the number of machines (required, > 0).
	K int
	// Seed seeds the hash sharder: HashAssign(e, K, Seed) decides every
	// route. It is the run's only source of randomness.
	Seed uint64
	// BatchSize is the number of edges per routed batch (default
	// DefaultBatchSize).
	BatchSize int
	// Trace receives span-style shard events (shard.start/shard.end with
	// edge and batch totals). Nil, the zero value, disables tracing.
	Trace *obs.Tracer
}

func (c Config) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatchSize
}

// Solve runs the full pipeline for any registered task: hash-shard the edges
// across cfg.K machines, build the descriptor's per-machine summaries
// incrementally, and compose the final solution from their union. It is the
// single dispatch point of the streaming runtime. Cancellation is cooperative:
// when ctx is canceled the sharder stops routing at the next batch boundary,
// the machine goroutines are torn down without emitting summaries, and the
// ctx error is returned — the hook long-running callers (the service's job
// manager) use to abandon a pipeline mid-stream without leaking goroutines.
func Solve(ctx context.Context, src EdgeSource, cfg Config, d *task.Descriptor, p task.Params) (task.Solution, *core.PipelineStats, error) {
	start := time.Now()
	sums, st, err := Summaries(ctx, src, cfg, d, p)
	if err != nil {
		return task.Solution{}, nil, err
	}
	sol := d.Compose(st.N, sums)
	st.Duration = time.Since(start)
	return sol, st, nil
}

// Summaries runs only the shard+build stages of the pipeline and returns the
// per-machine summaries (indexed by machine) without composing a solution.
// It is the in-process round function: the engine calls it once for a
// single-round run and hands it to the multi-round driver (rounds.Drive),
// which unions the per-machine coresets into the next round's input; Solve
// is exactly this plus the composition. The summaries are folded into the
// returned stats by task.Descriptor.FoldStats, the fold every runtime
// shares.
func Summaries(ctx context.Context, src EdgeSource, cfg Config, d *task.Descriptor, p task.Params) ([]task.Summary, *core.PipelineStats, error) {
	if d.Validate != nil {
		if err := d.Validate(p); err != nil {
			return nil, nil, err
		}
	}
	start := time.Now()
	sums, st, err := run(ctx, src, cfg, func(machine, nHint int) task.Builder {
		return d.NewBuilder(cfg.K, nHint, p)
	})
	if err != nil {
		return nil, nil, err
	}
	d.FoldStats(st, sums)
	st.Duration = time.Since(start)
	return sums, st, nil
}

// Shard runs only the source+sharder stages and returns the per-machine edge
// lists (each in arrival order) with the run-level stats (K, N, EdgesTotal,
// Batches). It is the runtime's routing made observable: parity tests compare
// it against the partition.ByAssignment oracle, and alternative backends can
// use it to feed machines that live elsewhere.
func Shard(src EdgeSource, cfg Config) ([][]graph.Edge, *core.PipelineStats, error) {
	sums, st, err := run(context.Background(), src, cfg, func(machine, nHint int) task.Builder {
		return &collectBuilder{}
	})
	if err != nil {
		return nil, nil, err
	}
	parts := make([][]graph.Edge, cfg.K)
	for i, s := range sums {
		parts[i] = s.Coreset
	}
	return parts, st, nil
}

// run drives one pass over every machine, each hosting the builder mk
// returns. An in-progress per-machine Finish computation is never
// interrupted, but canceled runs skip Finish entirely.
func run(ctx context.Context, src EdgeSource, cfg Config, mk func(machine, nHint int) task.Builder) ([]task.Summary, *core.PipelineStats, error) {
	if src == nil {
		return nil, nil, errors.New("stream: nil source")
	}
	if cfg.K <= 0 {
		return nil, nil, errors.New("stream: config K must be > 0")
	}
	k := cfg.K
	start := time.Now()

	nHint := 0
	if src.KnownUpfront() {
		nHint = src.NumVertices()
	}
	machines := make([]int, k)
	for i := range machines {
		machines[i] = i
	}
	sums := make([]task.Summary, k)
	res := Pass(ctx, src, cfg, machines, func(_ context.Context, f *Feed) {
		b := mk(f.Machine, nHint)
		received := 0
		for batch := range f.Batches {
			received += len(batch)
			for _, e := range batch {
				b.Add(e)
			}
			f.Recycle(batch)
		}
		n, ok := f.N()
		if !ok {
			return
		}
		sums[f.Machine] = b.Finish(n)
		sums[f.Machine].Edges = received
	})
	if res.Err != nil {
		return nil, nil, res.Err
	}
	// A machine that observed cancellation while waiting for the vertex count
	// exits without a summary; composing from a partial set would be wrong.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	st := &core.PipelineStats{K: k, N: res.N, EdgesTotal: res.Edges, RunCounts: graph.RunCounts{Batches: res.Batches}, Duration: time.Since(start)}
	return sums, st, nil
}
