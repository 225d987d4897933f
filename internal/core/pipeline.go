package core

import (
	"time"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
)

// PipelineStats is the one run-stats struct: what a distributed run did and
// cost, in whichever runtime ran it. stream.Stats and cluster.Stats are
// aliases of it and a multi-round run (internal/rounds) carries one per round
// plus one of aggregates, so a single constructor (internal/engine) turns
// any run into a graph.RunReport. A runtime fills the fields it can observe
// and leaves the rest zero; per-machine slices are indexed by machine.
type PipelineStats struct {
	K          int // number of machines
	N          int // final vertex count
	EdgesTotal int // edges read from the input
	Batches    int // batches read from the source (stream and cluster)

	PartEdges []int // edges routed to each machine
	// StoredEdges is how many edges each machine still held at end of stream
	// (stream and cluster). For matching it equals PartEdges (the model's
	// O(m/k) budget); for vertex cover online peeling makes it smaller on
	// peel-heavy inputs.
	StoredEdges []int
	// Live is each machine's online telemetry at end of stream (stream and
	// cluster): the greedy matching size (matching) or the count of vertices
	// peeled online (vc).
	Live         []int
	CoresetEdges []int // edges in each machine's coreset message
	CoresetFixed []int // fixed vertices in each machine's message (vc only)

	// TotalCommBytes and MaxMachineBytes are the coreset messages' sizes: in
	// batch and stream mode the exact length of each message's encoded body
	// (core.CoresetSizeBytes / core.VCCoresetSizeBytes), simulated in that
	// nothing is sent; in cluster mode the MEASURED bytes of each worker's
	// CORESET frame as read off its TCP connection — the same body plus the
	// frame header and the stats varints — with the body lengths alongside
	// in EstCommBytes / EstMaxMachineBytes so the two can be compared on
	// every run.
	TotalCommBytes     int
	MaxMachineBytes    int
	EstCommBytes       int // cluster only
	EstMaxMachineBytes int // cluster only
	// ShardBytes is the measured coordinator-to-worker traffic (cluster
	// only): HELLO, SHARD and EOS frames summed over all workers — including
	// the traffic of replayed rounds, so retried runs account for every byte
	// actually sent.
	ShardBytes int

	// Retries counts replay attempts the run made after worker failures
	// (cluster only; 0 on an undisturbed run); ReplayedMachines lists the
	// machines whose round was successfully replayed, in ascending order.
	Retries          int
	ReplayedMachines []int

	// MachineStats is the per-machine telemetry breakdown (cluster only), one
	// entry per machine in index order: the worker's phase wall times and
	// build counters from its TELEM frame. A worker without the telemetry
	// capability still gets an entry with the phase fields zero; a replayed
	// machine's entry describes the replacement attempt and is marked
	// Replayed.
	MachineStats []graph.MachineStats

	CompositionEdges int // edges the coordinator processed
	// Duration spans the whole pipeline: source + sharding + machines +
	// composition (stream.Shard and Summaries, which compose nothing, span
	// through drain). The batch pipelines do not time themselves; whoever
	// calls them sets it.
	Duration time.Duration
}

// EdgesPerSec returns the end-to-end throughput of the run.
func (st *PipelineStats) EdgesPerSec() float64 {
	if st.Duration <= 0 {
		return 0
	}
	return float64(st.EdgesTotal) / st.Duration.Seconds()
}

// DistributedMatching runs the full Theorem 1 pipeline on g: random
// k-partitioning (seeded), per-machine maximum matchings computed in
// parallel (one goroutine per machine, capped at `workers`), and an exact
// composition at the coordinator. Returns the final matching and stats.
func DistributedMatching(g *graph.Graph, k, workers int, seed uint64) (*matching.Matching, *PipelineStats) {
	root := rng.New(seed)
	parts := partition.RandomK(g.Edges, k, root.Split(0))
	coresets := MapParts(parts, workers, func(i int, part []graph.Edge) []graph.Edge {
		return MatchingCoreset(g.N, part)
	})
	st := &PipelineStats{K: k}
	for i, p := range parts {
		st.PartEdges = append(st.PartEdges, len(p))
		b := CoresetSizeBytes(coresets[i])
		st.TotalCommBytes += b
		if b > st.MaxMachineBytes {
			st.MaxMachineBytes = b
		}
		st.CoresetEdges = append(st.CoresetEdges, len(coresets[i]))
		st.CompositionEdges += len(coresets[i])
	}
	return ComposeMatching(g.N, coresets), st
}

// DistributedVertexCover runs the full Theorem 2 pipeline on g and returns
// the final cover and stats.
func DistributedVertexCover(g *graph.Graph, k, workers int, seed uint64) ([]graph.ID, *PipelineStats) {
	root := rng.New(seed)
	parts := partition.RandomK(g.Edges, k, root.Split(0))
	coresets := MapParts(parts, workers, func(i int, part []graph.Edge) *VCCoreset {
		return ComputeVCCoreset(g.N, k, part)
	})
	st := &PipelineStats{K: k}
	for i, p := range parts {
		st.PartEdges = append(st.PartEdges, len(p))
		b := VCCoresetSizeBytes(coresets[i])
		st.TotalCommBytes += b
		if b > st.MaxMachineBytes {
			st.MaxMachineBytes = b
		}
		st.CoresetEdges = append(st.CoresetEdges, len(coresets[i].Residual))
		st.CoresetFixed = append(st.CoresetFixed, len(coresets[i].Fixed))
		st.CompositionEdges += len(coresets[i].Residual)
	}
	return ComposeVC(g.N, coresets), st
}
