package task

import (
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Batch is the materialized reference the runtimes are checked against, not
// a runtime itself: it splits g with partition.HashK — the seeded hash
// partitioning stream.Route routes with — feeds each part, in order, to its
// own d.NewBuilder(k, g.N, p) under core.MapParts, at most workers machines at
// a time (0 means GOMAXPROCS), and composes the summaries with d.Compose. For
// a fixed (g, seed, k) it answers exactly what stream.Solve and cluster.Solve
// answer, and its stats are theirs but for the batch count.
func (d *Descriptor) Batch(g *graph.Graph, k, workers int, seed uint64, p Params) (Solution, *core.PipelineStats) {
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
	sol := d.Compose(g.N, sums)
	st.Duration = time.Since(start)
	return sol, st
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
