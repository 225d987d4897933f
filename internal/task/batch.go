package task

import (
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Batch is the batch runtime: it runs the task over the materialized graph g
// on k machines and returns the composed solution and the run stats. It is
// BatchSummaries plus d.Compose, so for a fixed (g, seed, k) it answers
// exactly what stream.Solve and cluster.Solve answer.
func (d *Descriptor) Batch(g *graph.Graph, k, workers int, seed uint64, p Params) (Solution, *core.PipelineStats) {
	start := time.Now()
	sums, st := d.BatchSummaries(g, k, workers, seed, p)
	sol := d.Compose(g.N, sums)
	st.Duration = time.Since(start)
	return sol, st
}

// BatchSummaries is the batch runtime's map stage. It splits g with
// partition.HashK — the seeded hash partitioning the stream and cluster
// sharders route with — and feeds each part, in order, to its own
// d.NewBuilder(k, g.N, p), at most workers machines at a time (0 means
// GOMAXPROCS). It returns the per-machine summaries, indexed by machine and
// deep-equal to stream.Summaries' for the same (g, seed, k), with the run
// stats folded.
func (d *Descriptor) BatchSummaries(g *graph.Graph, k, workers int, seed uint64, p Params) ([]Summary, *core.PipelineStats) {
	start := time.Now()
	parts := partition.HashK(g.Edges, k, seed)
	sums := core.MapParts(parts, workers, func(_ int, part []graph.Edge) Summary {
		b := d.NewBuilder(k, g.N, p)
		for _, e := range part {
			b.Add(e)
		}
		s := b.Finish(g.N)
		s.Edges = len(part)
		return s
	})
	st := &core.PipelineStats{N: g.N, EdgesTotal: g.M()}
	d.FoldStats(st, sums)
	st.Duration = time.Since(start)
	return sums, st
}

// FoldStats is the one summaries→stats fold every runtime shares: it sets
// st.K and the per-machine fields from sums (indexed by machine) and charges
// each summary's body length (Summary.Bytes) as its communication. The cluster
// runtime, which measures its CORESET frames off the wire, moves these byte
// figures to the estimate fields and reports the measured ones instead.
func (d *Descriptor) FoldStats(st *core.PipelineStats, sums []Summary) {
	k := len(sums)
	st.K = k
	st.PartEdges, st.StoredEdges, st.Live = make([]int, k), make([]int, k), make([]int, k)
	st.CoresetEdges = make([]int, k)
	if d.FixedLen != nil {
		st.CoresetFixed = make([]int, k)
	}
	for i, s := range sums {
		st.PartEdges[i], st.StoredEdges[i], st.Live[i] = s.Edges, s.Stored, s.Live
		n := d.CoresetLen(s)
		st.CoresetEdges[i] = n
		st.CompositionEdges += n
		if d.FixedLen != nil {
			st.CoresetFixed[i] = d.FixedLen(s)
		}
		st.TotalCommBytes += s.Bytes
		st.MaxMachineBytes = max(st.MaxMachineBytes, s.Bytes)
	}
}
