// Package stream is the streaming, sharded coreset runtime: the deployment
// shape of the paper's simultaneous model. Where the batch pipeline
// (internal/core) materializes the edge list, partitions it with a single
// sequential RNG and then maps over the parts, this runtime is a pipeline of
// concurrent stages:
//
//	EdgeSource --> sharder --> k machine goroutines --> coordinator
//
// An EdgeSource streams edges in batches from a file reader, a generator or
// a slice, never holding the full graph. The sharder routes each edge with
// partition.HashAssign — a seeded, position-independent hash, so the induced
// random k-partitioning is reproducible and shardable in parallel, unlike
// partition.RandomK. Each machine goroutine runs an incremental coreset
// builder obtained from the task registry (internal/task) — the runtime
// itself knows nothing about matchings, vertex covers, EDCSs or any other
// summary family; a task.Descriptor supplies the builder and the composer,
// and Solve drives them. Each machine emits its summary, with communication
// accounting, to the coordinator, which composes the final answer exactly as
// the batch pipeline does.
//
// Given the same hash k-partitioning, the streaming runtime reproduces the
// batch pipeline bit for bit (see the parity tests); what it changes is the
// resource profile — O(batch) driver memory, per-machine state bounded by
// the machine's own partition (less, for vertex cover, once online peeling
// starts discarding covered edges), and all k machines consuming concurrently.
package stream

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
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

// Stats reports what a streaming run did and cost: the run-stats struct
// every runtime shares.
type Stats = core.PipelineStats

// Solve runs the full pipeline for any registered task: hash-shard the edges
// across cfg.K machines, build the descriptor's per-machine summaries
// incrementally, and compose the final solution from their union. It is the
// single dispatch point of the streaming runtime. Cancellation is cooperative:
// when ctx is canceled the sharder stops routing at the next batch boundary,
// the machine goroutines are torn down without emitting summaries, and the
// ctx error is returned — the hook long-running callers (the service's job
// manager) use to abandon a pipeline mid-stream without leaking goroutines.
func Solve(ctx context.Context, src EdgeSource, cfg Config, d *task.Descriptor, p task.Params) (task.Solution, *Stats, error) {
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
// It is the building block of the multi-round MPC driver (internal/rounds),
// which unions the per-machine coresets into the next round's input instead
// of composing; Solve is exactly this plus the composition. Coreset sizes
// and communication accounting are already folded into the returned stats.
func Summaries(ctx context.Context, src EdgeSource, cfg Config, d *task.Descriptor, p task.Params) ([]Summary, *Stats, error) {
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
	for _, s := range sums {
		n := d.CoresetLen(s)
		st.CoresetEdges = append(st.CoresetEdges, n)
		if d.FixedLen != nil {
			st.CoresetFixed = append(st.CoresetFixed, d.FixedLen(s))
		}
		st.CompositionEdges += n
	}
	st.Duration = time.Since(start)
	return sums, st, nil
}

// Shard runs only the source+sharder stages and returns the per-machine edge
// lists (each in arrival order). It is the runtime's routing made observable:
// parity tests compare it against the partition.ByAssignment oracle, and
// alternative backends can use it to feed machines that live elsewhere.
func Shard(src EdgeSource, cfg Config) ([][]graph.Edge, *Stats, error) {
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

// machineResult pairs a machine's summary with its index for the results
// channel; Summary itself is runtime-agnostic and carries no machine index.
type machineResult struct {
	machine int
	s       Summary
}

// run drives the pipeline: the caller's goroutine reads the source and
// shards, k goroutines consume and build, and the final vertex count is
// published to the machines only after the stream is drained (the
// close(nReady) edge is the happens-before that makes this race-free).
// Cancellation is cooperative at batch granularity: ctx is checked once per
// source batch and on every (possibly blocking) channel send; an in-progress
// per-machine Finish computation is never interrupted, but canceled runs
// skip Finish entirely.
func run(ctx context.Context, src EdgeSource, cfg Config, mk func(machine, nHint int) task.Builder) ([]Summary, *Stats, error) {
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

	var (
		nFinal  int
		nReady  = make(chan struct{})
		abort   = make(chan struct{})
		results = make(chan machineResult, k)
		wg      sync.WaitGroup
	)
	// Routing batches circulate: a machine hands each drained batch back on
	// free and the sharder refills it (Add takes edges by value, so nothing
	// downstream aliases a batch). At most chanDepth queued, one draining and
	// one filling per machine are ever live, so free never overflows and a
	// run allocates O(k) batches however long the stream.
	const chanDepth = 4
	free := make(chan []graph.Edge, k*(chanDepth+2))
	chans := make([]chan []graph.Edge, k)
	for i := 0; i < k; i++ {
		chans[i] = make(chan []graph.Edge, chanDepth)
		wg.Add(1)
		go func(machine int) {
			defer wg.Done()
			b := mk(machine, nHint)
			received := 0
			for batch := range chans[machine] {
				received += len(batch)
				for _, e := range batch {
					b.Add(e)
				}
				free <- batch[:0]
			}
			select {
			case <-nReady:
			case <-abort:
				return
			case <-ctx.Done():
				return
			}
			s := b.Finish(nFinal)
			s.Edges = received
			results <- machineResult{machine: machine, s: s}
		}(i)
	}

	closeAll := func() {
		for _, ch := range chans {
			close(ch)
		}
	}

	// Shard stage: read batches from the source, route each edge by hash,
	// flush per-machine mini-batches as they fill. send blocks on the
	// machine's channel but never past cancellation (for a background ctx,
	// Done() is nil and the select degenerates to a plain send).
	bs := cfg.batchSize()
	buf := make([]graph.Edge, bs)
	pending := make([][]graph.Edge, k)
	total, batches := 0, 0
	endShard := cfg.Trace.Span("shard", "k", k)
	var srcErr error
	send := func(i int) bool {
		select {
		case chans[i] <- pending[i]:
			pending[i] = nil
			return true
		case <-ctx.Done():
			return false
		}
	}
shard:
	for {
		if err := ctx.Err(); err != nil {
			srcErr = err
			break
		}
		c, err := src.Next(buf)
		if c > 0 {
			total += c
			batches++
			for _, e := range buf[:c] {
				i := partition.HashAssign(e, k, cfg.Seed)
				if pending[i] == nil {
					select {
					case pending[i] = <-free:
					default:
						pending[i] = make([]graph.Edge, 0, bs)
					}
				}
				pending[i] = append(pending[i], e)
				if len(pending[i]) == bs && !send(i) {
					srcErr = ctx.Err()
					break shard
				}
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				srcErr = err
			}
			break
		}
	}
	if srcErr != nil {
		endShard("err", srcErr.Error())
		close(abort)
		closeAll()
		wg.Wait()
		return nil, nil, srcErr
	}
	for i, p := range pending {
		if len(p) > 0 && !send(i) {
			endShard("err", "canceled")
			close(abort)
			closeAll()
			wg.Wait()
			return nil, nil, ctx.Err()
		}
	}
	closeAll()
	endShard("edges", total, "batches", batches)

	nFinal = src.NumVertices()
	close(nReady)
	wg.Wait()
	close(results)
	// A machine that observed cancellation in its final select exits without
	// emitting a summary; composing from a partial set would be wrong.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	sums := make([]Summary, k)
	st := &Stats{
		K:           k,
		N:           nFinal,
		EdgesTotal:  total,
		Batches:     batches,
		PartEdges:   make([]int, k),
		StoredEdges: make([]int, k),
		Live:        make([]int, k),
	}
	for r := range results {
		sums[r.machine] = r.s
		st.PartEdges[r.machine] = r.s.Edges
		st.StoredEdges[r.machine] = r.s.Stored
		st.Live[r.machine] = r.s.Live
		st.TotalCommBytes += r.s.Bytes
		if r.s.Bytes > st.MaxMachineBytes {
			st.MaxMachineBytes = r.s.Bytes
		}
	}
	st.Duration = time.Since(start)
	return sums, st, nil
}
