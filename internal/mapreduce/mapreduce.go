// Package mapreduce simulates the MapReduce computation model of Karloff,
// Suri and Vassilvitskii (the model the paper targets in Section 1.1) and
// implements both algorithms the paper compares:
//
//   - the paper's coreset algorithm: 2 rounds (1 if the input is already
//     randomly distributed) with k = sqrt(n) machines of memory O~(n*sqrt(n));
//     round 1 randomly redistributes edges, round 2 sends each machine's
//     coreset to a designated machine M which composes the final answer;
//   - the filtering algorithm of Lattanzi et al. [46]: repeatedly sample a
//     memory-sized subgraph, compute a maximal matching, and drop all edges
//     touching matched vertices; ≥ 3 rounds in theory, 6 in the
//     configuration the paper cites, yielding a 2-approximation.
//
// The simulation tracks the model's costs: number of rounds, the maximum
// number of edges resident on any machine in any round, and total shuffle
// volume. Machines within a round run concurrently.
package mapreduce

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
)

// RunStats are the MapReduce cost measures of one job.
type RunStats struct {
	Rounds         int
	MaxMachineLoad int // max edges resident on one machine in any round
	ShuffleEdges   int // total edges moved between machines across rounds
	Machines       int
}

// note records a load observation.
func (s *RunStats) observeLoad(edges int) {
	if edges > s.MaxMachineLoad {
		s.MaxMachineLoad = edges
	}
}

// DefaultK returns the paper's machine count for MapReduce: ceil(sqrt(n)).
func DefaultK(n int) int {
	k := int(math.Ceil(math.Sqrt(float64(n))))
	if k < 1 {
		k = 1
	}
	return k
}

// CoresetMatchingMR runs the paper's 2-round MapReduce algorithm for
// maximum matching. Round 1: every machine randomly re-partitions its
// (arbitrary) input chunk across the k machines, realizing a random
// k-partitioning. Round 2: every machine computes its maximum-matching
// coreset and sends it to machine M=0, which composes the answer.
//
// If alreadyRandom is true the input is assumed randomly distributed and
// round 1 is skipped (the paper's 1-round regime).
func CoresetMatchingMR(g *graph.Graph, k int, alreadyRandom bool, seed uint64, workers int) (*matching.Matching, *RunStats) {
	root := rng.New(seed)
	st := &RunStats{Machines: k}
	parts := distribute(g, k, alreadyRandom, root, st)

	// Coreset round: machines compute coresets in parallel, send to M.
	st.Rounds++
	coresets := core.MapParts(parts, workers, func(i int, part []graph.Edge) []graph.Edge {
		return core.MatchingCoreset(g.N, part)
	})
	atM := 0
	for _, cs := range coresets {
		atM += len(cs)
		st.ShuffleEdges += len(cs)
	}
	st.observeLoad(atM)
	return core.ComposeMatching(g.N, coresets), st
}

// CoresetVCMR runs the paper's 2-round MapReduce algorithm for vertex
// cover, mirroring CoresetMatchingMR with VC-Coreset summaries.
func CoresetVCMR(g *graph.Graph, k int, alreadyRandom bool, seed uint64, workers int) ([]graph.ID, *RunStats) {
	root := rng.New(seed)
	st := &RunStats{Machines: k}
	parts := distribute(g, k, alreadyRandom, root, st)

	st.Rounds++
	coresets := core.MapParts(parts, workers, func(i int, part []graph.Edge) *core.VCCoreset {
		return core.ComputeVCCoreset(g.N, k, part)
	})
	atM := 0
	for _, cs := range coresets {
		atM += len(cs.Residual) + len(cs.Fixed)
		st.ShuffleEdges += len(cs.Residual) + len(cs.Fixed)
	}
	st.observeLoad(atM)
	return core.ComposeVC(g.N, coresets), st
}

// distribute performs round 1 (random redistribution) unless the input is
// already randomly distributed, and returns the per-machine edge sets.
func distribute(g *graph.Graph, k int, alreadyRandom bool, root *rng.RNG, st *RunStats) [][]graph.Edge {
	if alreadyRandom {
		// The random k-partitioning exists by assumption; materialize it
		// without charging a round or shuffle.
		parts := partition.RandomK(g.Edges, k, root.Split(0))
		for _, p := range parts {
			st.observeLoad(len(p))
		}
		return parts
	}
	// Adversarial initial placement: contiguous chunks.
	st.Rounds++
	chunks := partition.AdversarialChunks(g.Edges, k)
	parts := make([][]graph.Edge, k)
	for i, chunk := range chunks {
		st.observeLoad(len(chunk))
		// Machine i deals its chunk uniformly across all k machines.
		r := root.Split(uint64(i) + 1)
		for _, e := range chunk {
			j := r.Intn(k)
			parts[j] = append(parts[j], e)
			st.ShuffleEdges++
		}
	}
	for _, p := range parts {
		st.observeLoad(len(p))
	}
	return parts
}

// FilteringMatching runs the Lattanzi et al. [46] filtering algorithm for
// maximal matching with per-machine memory memLimit (in edges): in each
// round the surviving edges are subsampled to fit on one machine, a maximal
// matching of the sample is computed centrally and all edges touching
// matched vertices are filtered out; when the survivors fit in memory a
// final maximal matching round finishes. Returns a maximal matching of G
// (2-approximation) and the cost stats.
func FilteringMatching(g *graph.Graph, memLimit int, seed uint64) (*matching.Matching, *RunStats) {
	if memLimit < 1 {
		panic("mapreduce: FilteringMatching with memLimit < 1")
	}
	root := rng.New(seed)
	st := &RunStats{Machines: DefaultK(g.N)}
	m := matching.NewEmpty(g.N)
	alive := g.Edges
	round := 0
	for len(alive) > memLimit {
		round++
		r := root.Split(uint64(round))
		p := float64(memLimit) / float64(2*len(alive))
		var sample []graph.Edge
		for _, e := range alive {
			if r.Bernoulli(p) {
				sample = append(sample, e)
			}
		}
		st.Rounds++
		st.ShuffleEdges += len(sample)
		st.observeLoad(len(sample))
		// Central machine: extend m maximally within the sample. Matched
		// vertices then filter the remaining edge set.
		m.AugmentGreedily(sample)
		filtered := alive[:0:0]
		for _, e := range alive {
			if !m.Covers(e.U) && !m.Covers(e.V) {
				filtered = append(filtered, e)
			}
		}
		alive = filtered
	}
	// Final round: survivors fit on one machine.
	st.Rounds++
	st.ShuffleEdges += len(alive)
	st.observeLoad(len(alive))
	m.AugmentGreedily(alive)
	return m, st
}
