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
// with the seeded hash partitioning every runtime routes with
// (stream.Route), and rebuilds. Because the union of k EDCSs has at most
// k·n·β/2 edges — a geometric shrink for dense inputs — the machine count
// can shrink with it: the schedule here is the paper's recursion
// k_{r+1} = ⌊√k_r⌋, which reaches a single machine after O(log log k)
// rounds while per-machine load stays within the space the model grants
// (NextK). Each round draws a fresh seed from the root seed
// (SeedForRound; round 0 uses the root seed itself, which is what makes a
// Rounds=1 run reproduce today's single-round EDCS coresets bit for bit).
//
// Drive is the schedule and nothing else: it does not know its runtime. It
// calls a Round function — one single-round run over k machines with a
// given seed — feeding round 0 from any stream.EdgeSource (never
// materializing the original input) and later rounds from the in-memory
// union, which is coordinator state the MPC model already charges for.
// internal/engine supplies the round function of its runtime:
// stream.Summaries in process (the batch runtime is that over the
// materialized graph), or Session.Round on one cluster.Session, whose
// connections are dialed once, whose one HELLO carries the round cap, and
// whose every round's communication is MEASURED off the TCP connections.
// Stream is the in-process driver for callers that hold only a Config.
//
// Every runtime produces deep-equal per-machine coresets for the same
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

	"repro/internal/core"
	"repro/internal/edcs"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/task"
)

// Metric names this package writes to Config.Metrics: per completed round,
// the round itself, its communication bytes, the union size and the shrink
// ratio (union edges over input edges — < 1 while the sketch is still
// shrinking). The two distributions carry bucket layouts of their own.
const (
	MetricRounds      = "rounds_completed_total"
	MetricUnionEdges  = "rounds_union_edges"
	MetricShrinkRatio = "rounds_shrink_ratio"
	MetricCommBytes   = "rounds_comm_bytes_total"
)

// unionEdgeBuckets spans a round's union size, in edges: 1-3 steps per
// decade from 100 to 10⁹.
var unionEdgeBuckets = []float64{1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8, 3e8, 1e9}

// shrinkBuckets covers the shrink ratio's range, [0, 1].
var shrinkBuckets = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}

// roundMetrics is the driver's registry wiring (Config.Metrics), resolved
// once per Drive; a nil *roundMetrics reports nothing.
type roundMetrics struct {
	completed, commBytes *obs.Counter
	unionEdges, shrink   *obs.Histogram
}

func newRoundMetrics(reg *obs.Registry) *roundMetrics {
	if reg == nil {
		return nil
	}
	return &roundMetrics{
		completed:  reg.Counter(MetricRounds, "Rounds the multi-round driver completed."),
		commBytes:  reg.Counter(MetricCommBytes, "Coreset communication bytes of completed rounds."),
		unionEdges: reg.Histogram(MetricUnionEdges, "Edges in the union of a round's coresets.", unionEdgeBuckets),
		shrink:     reg.Histogram(MetricShrinkRatio, "A round's union edges over its input edges.", shrinkBuckets),
	}
}

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
	// Metrics receives per-round counts and distributions (the Metric*
	// names above). Nil keeps the driver silent.
	Metrics *obs.Registry
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
// simulated estimate alongside), the simulated estimate itself in stream
// mode.
type RoundStat struct {
	core.PipelineStats        // K is the machines active this round
	Round              int    // 0-based
	Seed               uint64 // sharding seed (SeedForRound)
	InputEdges         int    // edges fed into the round
	UnionEdges         int    // edges in the union of the round's coresets
}

// Stats reports a whole multi-round run: aggregates plus per-round
// breakdowns.
type Stats struct {
	// PipelineStats holds the run-level figures: K, N and EdgesTotal
	// describe round 0's input; TotalCommBytes, EstCommBytes, ShardBytes,
	// Batches and Retries sum over the rounds, MaxMachineBytes and
	// EstMaxMachineBytes are the largest single message of any round,
	// ReplayedMachines is the ascending union of the machines any round
	// replayed; the per-machine slices (PartEdges, StoredEdges, Live,
	// CoresetEdges, CoresetFixed, MachineStats) and CompositionEdges describe
	// the final round (what composition saw). Duration is left to the caller,
	// which counts the compose in it.
	core.PipelineStats
	RoundCap  int // configured cap
	RoundsRun int
	Rounds    []RoundStat
}

// accumulate folds one finished round into the aggregates.
func (s *Stats) accumulate(rs RoundStat) {
	s.Rounds = append(s.Rounds, rs)
	s.RoundsRun++
	s.TotalCommBytes += rs.TotalCommBytes
	s.MaxMachineBytes = max(s.MaxMachineBytes, rs.MaxMachineBytes)
	s.EstCommBytes += rs.EstCommBytes
	s.EstMaxMachineBytes = max(s.EstMaxMachineBytes, rs.EstMaxMachineBytes)
	s.ShardBytes += rs.ShardBytes
	s.Batches += rs.Batches
	s.Retries += rs.Retries
	s.ReplayedMachines = mergeMachines(s.ReplayedMachines, rs.ReplayedMachines)
	s.PartEdges, s.StoredEdges, s.Live, s.CoresetEdges, s.CoresetFixed = rs.PartEdges, rs.StoredEdges, rs.Live, rs.CoresetEdges, rs.CoresetFixed
	s.MachineStats, s.CompositionEdges = rs.MachineStats, rs.UnionEdges
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
// so the union is a simple graph of size edges.
func union(sums []task.Summary, size int) []graph.Edge {
	out := make([]graph.Edge, 0, size)
	for _, s := range sums {
		out = append(out, s.Coreset...)
	}
	return out
}

// Round executes one single-round run over k machines with the given seed
// and returns the per-machine summaries (indexed by machine) and the round's
// run stats (K, N, EdgesTotal, the coreset sizes and the communication
// fields filled). internal/engine builds one per runtime: stream.Summaries
// in process, Session.Round on a cluster session.
type Round func(ctx context.Context, input stream.EdgeSource, k int, seed uint64) ([]task.Summary, *core.PipelineStats, error)

// Drive runs the schedule: rounds with shrinking k and per-round seeds until
// the cap, or until the union stops shrinking. src feeds round 0; later
// rounds stream the previous union from memory, which is built only when
// another round follows. It returns the final round's summaries, whose
// union the caller composes (the task's Compose), and the run's stats.
// Cancellation is checked at every round boundary, on top of whatever the
// round function itself honors.
func Drive(ctx context.Context, src stream.EdgeSource, cfg Config, round Round) ([]task.Summary, *Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if src == nil {
		return nil, nil, errors.New("rounds: nil source")
	}
	st := &Stats{PipelineStats: core.PipelineStats{K: cfg.K}, RoundCap: cfg.Rounds}
	mx := newRoundMetrics(cfg.Metrics)
	k := cfg.K
	var (
		sums      []task.Summary
		prevUnion []graph.Edge
	)
	for r := 0; r < cfg.Rounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		input := src
		if r > 0 {
			input = stream.NewSliceSource(st.N, prevUnion)
		}
		seed := SeedForRound(cfg.Seed, r)
		endRound := cfg.Trace.Span("round", "round", r, "k", k)
		out, rst, err := round(ctx, input, k, seed)
		if err != nil {
			endRound("err", err.Error())
			return nil, nil, err
		}
		sums = out
		unionEdges := 0
		for _, s := range sums {
			unionEdges += len(s.Coreset)
		}
		rs := RoundStat{PipelineStats: *rst, Round: r, Seed: seed, InputEdges: rst.EdgesTotal, UnionEdges: unionEdges}
		if r == 0 {
			st.EdgesTotal, st.N = rs.InputEdges, rs.N
		}
		st.accumulate(rs)
		shrink := 1.0
		if rs.InputEdges > 0 {
			shrink = float64(rs.UnionEdges) / float64(rs.InputEdges)
		}
		endRound("input_edges", rs.InputEdges, "union_edges", rs.UnionEdges)
		if mx != nil {
			mx.completed.Inc()
			mx.commBytes.Add(int64(rs.TotalCommBytes))
			mx.unionEdges.Observe(float64(rs.UnionEdges))
			mx.shrink.Observe(shrink)
		}
		if rs.UnionEdges >= rs.InputEdges || r+1 == cfg.Rounds {
			break // the cap, or the sketch converged: further rounds only burn communication
		}
		prevUnion = union(sums, unionEdges)
		k = NextK(k)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	cfg.Trace.Event("compose", "machines", len(sums), "union_edges", st.CompositionEdges)
	return sums, st, nil
}

// Stream runs the multi-round driver over the in-process runtime and
// composes a maximum matching of the final round's union: round 0 shards src
// through the concurrent pipeline without materializing it; later rounds
// stream the in-memory union. Cancellation is cooperative at batch
// granularity, as in stream.Solve. The run's Duration counts the compose.
func Stream(ctx context.Context, src stream.EdgeSource, cfg Config) (*matching.Matching, *Stats, error) {
	start := time.Now()
	d, p := task.MustGet("edcs"), task.Params{EDCS: cfg.Params}
	sums, st, err := Drive(ctx, src, cfg, func(ctx context.Context, input stream.EdgeSource, k int, seed uint64) ([]task.Summary, *core.PipelineStats, error) {
		return stream.Summaries(ctx, input, stream.Config{K: k, Seed: seed, Trace: cfg.Trace}, d, p)
	})
	if err != nil {
		return nil, nil, err
	}
	m := d.Compose(st.N, sums).Matching
	st.Duration = time.Since(start)
	return m, st, nil
}
