package core

import (
	"time"

	"repro/internal/graph"
)

// PipelineStats is the one run-stats struct: what a distributed run did and
// cost, in whichever runtime ran it. Every round function (stream.Summaries,
// cluster.Session.Round) returns one and a multi-round run (internal/rounds)
// carries one per round plus one of aggregates, so a single constructor
// (internal/engine) turns any run into a graph.RunReport. The per-machine and
// communication accounting is graph.RunCounts, declared once and embedded
// here and in the report. A runtime fills the fields it can observe and
// leaves the rest zero; per-machine slices are indexed by machine.
type PipelineStats struct {
	K          int // number of machines
	N          int // final vertex count
	EdgesTotal int // edges read from the input

	graph.RunCounts

	// MachineStats is the per-machine telemetry breakdown (cluster only), one
	// entry per machine in index order: the worker's phase wall times and
	// build counters from the TELEM frame every worker sends with its
	// CORESET. A replayed machine's entry describes the replacement attempt
	// and is marked Replayed.
	MachineStats []graph.MachineStats

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
