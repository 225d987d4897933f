package core

import (
	"time"

	"repro/internal/graph"
)

// PipelineStats is the one run-stats struct: what a distributed run did and
// cost, in whichever runtime ran it. Every round function (stream.Summaries,
// cluster.Session.Round) returns one and a multi-round run (internal/rounds)
// carries one per round plus one of aggregates, so a single constructor
// (internal/engine) turns any run into a graph.RunReport. A runtime fills the fields it can observe
// and leaves the rest zero; per-machine slices are indexed by machine.
type PipelineStats struct {
	K          int // number of machines
	N          int // final vertex count
	EdgesTotal int // edges read from the input
	Batches    int // batches read from the source (stream and cluster)

	PartEdges []int // edges routed to each machine
	// StoredEdges is how many edges each machine still held at end of
	// stream. For matching it equals PartEdges (the model's O(m/k) budget);
	// for vertex cover online peeling makes it smaller on peel-heavy inputs.
	StoredEdges []int
	// Live is each machine's online telemetry at end of stream: the greedy
	// matching size (matching) or the count of vertices peeled online (vc).
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
	// build counters from the TELEM frame every worker sends with its
	// CORESET. A replayed machine's entry describes the replacement attempt
	// and is marked Replayed.
	MachineStats []graph.MachineStats

	CompositionEdges int // edges the coordinator processed
	// Duration spans the whole pipeline: source + sharding + machines +
	// composition (the Summaries steps and stream.Shard, which compose
	// nothing, span through the last summary).
	Duration time.Duration
}

// EdgesPerSec returns the end-to-end throughput of the run.
func (st *PipelineStats) EdgesPerSec() float64 {
	if st.Duration <= 0 {
		return 0
	}
	return float64(st.EdgesTotal) / st.Duration.Seconds()
}
