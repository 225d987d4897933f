// Package rounds is the multi-round MPC driver on the EDCS sketch,
// following the O(log log n)-round algorithms of
//
//	Assadi, Bateni, Bernstein, Mirrokni, Stein.
//	"Coresets Meet EDCS" (arXiv:1711.03076).
//
// The single-round pipeline (internal/edcs) shards the input over k
// machines, builds one EDCS per machine, and composes a matching from the
// union of the coresets. This package iterates that step: round r takes the
// union of round r−1's per-machine EDCSs as its input graph, reshards it
// with the same seeded hash partitioning every runtime uses
// (partition.HashAssign / partition.HashK), and rebuilds. Because the union
// of k EDCSs has at most k·n·β/2 edges — a geometric shrink for dense
// inputs — the machine count can shrink with it: the schedule here is the
// paper's recursion k_{r+1} = ⌊√k_r⌋, which reaches a single machine after
// O(log log k) rounds while per-machine load stays within the space the
// model grants (NextK). Each round draws a fresh seed from the root seed
// (SeedForRound; round 0 uses the root seed itself, which is what makes a
// Rounds=1 run reproduce today's single-round EDCS coresets bit for bit).
//
// The driver runs over all three execution runtimes:
//
//   - Batch materializes each round's input and partitions with
//     partition.HashK.
//   - Stream feeds round 0 from any stream.EdgeSource (never materializing
//     the original input) and later rounds from the in-memory union, which
//     is coordinator state the MPC model already charges for.
//   - Cluster drives a real worker fleet through one cluster.Session — the
//     same conversation a single-round cluster run speaks, opened with the
//     task's multi-round assignment: the connections are dialed once, one
//     HELLO carries the round cap, and every round's communication is
//     MEASURED off the TCP connections.
//
// All three produce deep-equal per-machine coresets for the same
// (graph, seed, k, β, rounds) — the multi-round extension of the seed
// parity the single-round runtimes already guarantee — because each round
// is itself a parity-checked single-round run and the union is concatenated
// in machine order. Rounds end at the configured cap or earlier, when the
// union stops shrinking (|union| ≥ |input| means the sketch has converged
// and further rounds would only burn communication).
package rounds

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edcs"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/stream"
	"repro/internal/task"
)

// Metric names this package reports through Config.Obs (see internal/obs):
// one event per completed round carrying the union size, the shrink ratio
// (union edges over input edges — < 1 while the sketch is still shrinking)
// and the round's communication bytes.
const (
	MetricRounds      = "rounds_completed_total"
	MetricUnionEdges  = "rounds_union_edges"
	MetricShrinkRatio = "rounds_shrink_ratio"
	MetricCommBytes   = "rounds_comm_bytes_total"
)

// MaxRounds is the sanity cap every user-facing surface (CLI flag, service
// request) applies to the round cap. The paper's schedule needs
// O(log log n) rounds — single digits for any real input — so anything near
// this cap is already nonsense. It restates the registry-wide task.MaxRounds
// so every surface shares one bound.
const MaxRounds = task.MaxRounds

// Config parameterizes a multi-round run.
type Config struct {
	// K is the round-0 machine count (required, > 0). In cluster mode it
	// must equal the worker fleet size.
	K int
	// Rounds is the round cap (required, in [1, MaxRounds]). Rounds = 1
	// reproduces the single-round EDCS pipeline exactly.
	Rounds int
	// Seed is the root seed; round r shards with SeedForRound(Seed, r).
	Seed uint64
	// Params are the EDCS degree constraints, fixed across rounds.
	Params edcs.Params
	// BatchSize is the per-shard-frame edge count for the stream and
	// cluster runtimes (0 = their default).
	BatchSize int
	// Workers caps goroutine parallelism in batch mode (0 = GOMAXPROCS).
	Workers int
	// Obs receives per-round events (the Metric* names above). Nil keeps
	// the driver silent.
	Obs obs.Sink
	// Trace receives span-style round events (round.start/round.end with
	// union size and shrink ratio, plus a compose event). Nil disables
	// tracing.
	Trace *obs.Tracer
}

// Validate rejects configurations no driver can run.
func (c Config) Validate() error {
	if c.K <= 0 {
		return errors.New("rounds: config K must be > 0")
	}
	if c.Rounds < 1 || c.Rounds > MaxRounds {
		return fmt.Errorf("rounds: round cap %d outside [1, %d]", c.Rounds, MaxRounds)
	}
	return c.Params.Validate()
}

// NextK is the paper's machine-shrink recursion: the union of k per-machine
// EDCSs is enough smaller than the round's input that ⌊√k⌋ machines can
// hold it at the same per-machine space, so k_{r+1} = ⌊√k_r⌋ (never below
// 1). Iterating reaches 1 after O(log log k) rounds — the paper's round
// complexity.
func NextK(k int) int {
	if k <= 1 {
		return 1
	}
	// Integer square root by Newton iteration; k is a machine count, so the
	// loop runs a handful of times.
	x := k
	for y := (x + k/x) / 2; y < x; y = (x + k/x) / 2 {
		x = y
	}
	return x
}

// SeedForRound derives round r's sharding seed from the root seed. Round 0
// uses the root seed verbatim — a Rounds=1 run must reproduce today's
// single-round EDCS coresets bit for bit, across every runtime — and later
// rounds mix the round index through the splitmix64 finalizer so resharding
// a round's union is a fresh random k-partitioning rather than a replay of
// the previous round's cuts.
func SeedForRound(seed uint64, round int) uint64 {
	if round == 0 {
		return seed
	}
	x := seed + uint64(round)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// RoundStat is one round's accounting: the run stats of the single-round
// run the round was, plus its place in the schedule. The byte fields follow
// the runtime's convention: measured off the wire in cluster mode (with the
// simulated estimate alongside), the simulated estimate itself in batch and
// stream mode.
type RoundStat struct {
	core.PipelineStats        // K is the machines active this round
	Round              int    // 0-based
	Seed               uint64 // sharding seed (SeedForRound)
	InputEdges         int    // edges fed into the round
	UnionEdges         int    // edges in the union of the round's coresets
}

// Stats reports a whole multi-round run: aggregates plus per-round
// breakdowns. The final round's coresets — whose union the coordinator
// composed — are retained so callers (parity tests) can inspect exactly
// what was composed.
type Stats struct {
	// PipelineStats holds the run-level figures: K, N and EdgesTotal
	// describe round 0's input; TotalCommBytes, EstCommBytes, ShardBytes and
	// Retries sum over the rounds, MaxMachineBytes and EstMaxMachineBytes
	// are the largest single message of any round, ReplayedMachines is the
	// ascending union of the machines any round replayed; CoresetEdges,
	// MachineStats and CompositionEdges describe the final round (what
	// composition saw).
	core.PipelineStats
	RoundCap  int // configured cap
	RoundsRun int
	Rounds    []RoundStat

	// Coresets are the final round's per-machine EDCS edge lists, indexed
	// by machine.
	Coresets [][]graph.Edge
}

// accumulate folds one finished round into the aggregates.
func (s *Stats) accumulate(rs RoundStat, coresets [][]graph.Edge) {
	s.Rounds = append(s.Rounds, rs)
	s.RoundsRun++
	s.Coresets = coresets
	s.TotalCommBytes += rs.TotalCommBytes
	s.MaxMachineBytes = max(s.MaxMachineBytes, rs.MaxMachineBytes)
	s.EstCommBytes += rs.EstCommBytes
	s.EstMaxMachineBytes = max(s.EstMaxMachineBytes, rs.EstMaxMachineBytes)
	s.ShardBytes += rs.ShardBytes
	s.Retries += rs.Retries
	s.ReplayedMachines = mergeMachines(s.ReplayedMachines, rs.ReplayedMachines)
	s.CoresetEdges, s.MachineStats, s.CompositionEdges = rs.CoresetEdges, rs.MachineStats, rs.UnionEdges
}

// mergeMachines folds a round's replayed machines into the run-level list,
// kept ascending and deduplicated.
func mergeMachines(acc, add []int) []int {
	for _, m := range add {
		i := sort.SearchInts(acc, m)
		if i < len(acc) && acc[i] == m {
			continue
		}
		acc = append(acc, 0)
		copy(acc[i+1:], acc[i:])
		acc[i] = m
	}
	return acc
}

// union concatenates per-machine coresets in machine order — the
// deterministic next-round input every runtime reproduces identically. Each
// coreset is already sorted and the per-round shards are disjoint edge sets
// (edge hygiene in edcs.Insert guarantees no machine stores a duplicate),
// so the union is a simple graph.
func union(coresets [][]graph.Edge) []graph.Edge {
	total := 0
	for _, cs := range coresets {
		total += len(cs)
	}
	out := make([]graph.Edge, 0, total)
	for _, cs := range coresets {
		out = append(out, cs...)
	}
	return out
}

// runRound executes one round and returns its per-machine coresets and the
// round's run stats (K, N, EdgesTotal, the coreset sizes and the
// communication fields filled). Implementations: batch HashK + edcs.Coreset,
// the streaming pipeline, one cluster.Session round.
type runRound func(ctx context.Context, input stream.EdgeSource, k int, seed uint64) (coresets [][]graph.Edge, st *core.PipelineStats, err error)

// drive is the schedule shared by the three runtimes: run rounds with
// shrinking k and per-round seeds until the cap, or until the union stops
// shrinking, then compose a maximum matching of the final union. src feeds
// round 0; later rounds stream the previous union from memory. Cancellation
// is checked at every round boundary, on top of whatever the runtime's own
// round honors.
func drive(ctx context.Context, src stream.EdgeSource, cfg Config, exec runRound) (*matching.Matching, *Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if src == nil {
		return nil, nil, errors.New("rounds: nil source")
	}
	start := time.Now()
	st := &Stats{PipelineStats: core.PipelineStats{K: cfg.K}, RoundCap: cfg.Rounds}
	k := cfg.K
	var prevUnion []graph.Edge
	for round := 0; round < cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		input := src
		if round > 0 {
			input = stream.NewSliceSource(st.N, prevUnion)
		}
		seed := SeedForRound(cfg.Seed, round)
		endRound := cfg.Trace.Span("round", "round", round, "k", k)
		coresets, rst, err := exec(ctx, input, k, seed)
		if err != nil {
			endRound("err", err.Error())
			return nil, nil, err
		}
		prevUnion = union(coresets)
		rs := RoundStat{PipelineStats: *rst, Round: round, Seed: seed, InputEdges: rst.EdgesTotal, UnionEdges: len(prevUnion)}
		if round == 0 {
			st.EdgesTotal, st.N = rs.InputEdges, rs.N
		}
		st.accumulate(rs, coresets)
		shrink := 1.0
		if rs.InputEdges > 0 {
			shrink = float64(rs.UnionEdges) / float64(rs.InputEdges)
		}
		endRound("input_edges", rs.InputEdges, "union_edges", rs.UnionEdges)
		obs.Count(cfg.Obs, MetricRounds, 1)
		obs.Count(cfg.Obs, MetricCommBytes, int64(rs.TotalCommBytes))
		obs.Observe(cfg.Obs, MetricUnionEdges, float64(rs.UnionEdges))
		obs.Observe(cfg.Obs, MetricShrinkRatio, shrink)
		if rs.UnionEdges >= rs.InputEdges {
			break // the sketch converged; further rounds only burn communication
		}
		k = NextK(k)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	cfg.Trace.Event("compose", "machines", len(st.Coresets), "union_edges", st.CompositionEdges)
	m := core.ComposeMatching(st.N, st.Coresets)
	st.Duration = time.Since(start)
	return m, st, nil
}

// Batch runs the multi-round driver over the materialized batch runtime:
// every round partitions its input with partition.HashK and builds the
// per-machine EDCSs in parallel (cfg.Workers goroutines), exactly as
// edcs.Distributed does for a single round. A round is uninterruptible;
// ctx is honored between rounds.
func Batch(ctx context.Context, g *graph.Graph, cfg Config) (*matching.Matching, *Stats, error) {
	exec := func(ctx context.Context, input stream.EdgeSource, k int, seed uint64) ([][]graph.Edge, *core.PipelineStats, error) {
		t0 := time.Now()
		in, err := stream.Collect(input)
		if err != nil {
			return nil, nil, err
		}
		parts := partition.HashK(in.Edges, k, seed)
		coresets := core.MapParts(parts, cfg.Workers, func(i int, part []graph.Edge) []graph.Edge {
			return edcs.Coreset(in.N, part, cfg.Params)
		})
		st := &core.PipelineStats{K: k, N: in.N, EdgesTotal: in.M()}
		for _, cs := range coresets {
			st.CoresetEdges = append(st.CoresetEdges, len(cs))
			b := core.CoresetSizeBytes(cs)
			st.TotalCommBytes += b
			st.MaxMachineBytes = max(st.MaxMachineBytes, b)
		}
		st.Duration = time.Since(t0)
		return coresets, st, nil
	}
	return drive(ctx, stream.NewGraphSource(g), cfg, exec)
}

// Stream runs the multi-round driver over the in-process streaming runtime:
// round 0 shards src through the concurrent pipeline without materializing
// it; later rounds stream the in-memory union. Cancellation is cooperative
// at batch granularity, as in stream.Solve.
func Stream(ctx context.Context, src stream.EdgeSource, cfg Config) (*matching.Matching, *Stats, error) {
	exec := func(ctx context.Context, input stream.EdgeSource, k int, seed uint64) ([][]graph.Edge, *core.PipelineStats, error) {
		sums, st, err := stream.Summaries(ctx, input, stream.Config{K: k, Seed: seed, BatchSize: cfg.BatchSize},
			task.RoundsCapable(), task.Params{EDCS: cfg.Params})
		return coresetsOf(sums), st, err
	}
	return drive(ctx, src, cfg, exec)
}

// Cluster runs the multi-round driver over a real worker fleet through one
// cluster.Session: the worker connections are dialed once and reused
// across rounds, one HELLO per run carries the round cap, and every round's
// communication lands in the round breakdown as MEASURED wire bytes. The
// fleet size overrides cfg.K (one machine per worker, as everywhere in the
// cluster runtime).
func Cluster(ctx context.Context, src stream.EdgeSource, ccfg cluster.Config, cfg Config) (*matching.Matching, *Stats, error) {
	cfg.K = len(ccfg.Workers)
	if cfg.BatchSize > 0 && ccfg.BatchSize == 0 {
		ccfg.BatchSize = cfg.BatchSize
	}
	if ccfg.Obs == nil {
		// One sink covers the whole run: a caller that wired the driver's
		// events gets the session's wire-level events too.
		ccfg.Obs = cfg.Obs
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	nHint := 0
	if src != nil && src.KnownUpfront() {
		nHint = src.NumVertices()
	}
	sess, err := cluster.Dial(ctx, ccfg, task.RoundsCapable(), task.Params{EDCS: cfg.Params}, cfg.Rounds, nHint)
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	exec := func(ctx context.Context, input stream.EdgeSource, k int, seed uint64) ([][]graph.Edge, *core.PipelineStats, error) {
		sums, st, err := sess.Round(ctx, input, k, seed)
		return coresetsOf(sums), st, err
	}
	return drive(ctx, src, cfg, exec)
}

// coresetsOf projects a round's summaries onto their edge-list coresets.
func coresetsOf(sums []stream.Summary) [][]graph.Edge {
	coresets := make([][]graph.Edge, len(sums))
	for i, s := range sums {
		coresets[i] = s.Coreset
	}
	return coresets
}
