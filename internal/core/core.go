// Package core implements the paper's contribution: randomized composable
// coresets for maximum matching and minimum vertex cover (Assadi & Khanna,
// SPAA 2017).
//
// In the randomized composable coreset model the edges of G are randomly
// k-partitioned across machines; each machine sends a small summary of its
// partition and the final answer is computed on the union of the summaries:
//
//   - Matching (Theorem 1): the summary is ANY maximum matching of the
//     machine's partition — O(n) edges — and the union of the k summaries
//     contains an O(1)-approximate maximum matching of G w.h.p.
//   - Vertex cover (Theorem 2): the summary is produced by iterative
//     peeling (VC-Coreset): vertices of high residual degree are peeled and
//     reported as a *fixed* part of the final cover, and the sparse residual
//     subgraph — O(n log n) edges — is reported to guide the rest. The
//     composed cover is an O(log n) approximation w.h.p.
//
// The package also implements the communication-optimal protocol variants
// (Remark 5.2: subsampled matchings; Remark 5.8: vertex grouping), the
// weighted-matching extension via Crouch-Stubbs weight classes, and the
// *negative* baselines the paper discusses (arbitrary maximal matchings and
// local minimum vertex covers), which are only Ω(k)-approximate coresets.
package core

import (
	"repro/internal/graph"
	"repro/internal/matching"
)

// MatchingCoreset computes the Theorem 1 coreset of one machine's partition:
// the edge set of a maximum matching of G(i). Any maximum matching works —
// the theorem is algorithm-agnostic and requires no coordination between
// machines — so this uses the fastest applicable exact matcher
// (Hopcroft-Karp on bipartite partitions, blossom otherwise).
func MatchingCoreset(n int, part []graph.Edge) []graph.Edge {
	return matching.Maximum(n, part).Edges()
}

// ComposeMatching computes the final solution from matching coresets: a
// maximum matching of the union of the coreset edge sets. Per Theorem 1 any
// (approximation) algorithm may be applied to the union; using an exact
// matcher isolates the coreset's own loss in experiments.
func ComposeMatching(n int, coresets [][]graph.Edge) *matching.Matching {
	return matching.Maximum(n, graph.UnionEdges(coresets...))
}

// GreedyMatchCombine implements GreedyMatch from Section 3.1: scan the
// coresets in order and maintain a maximal matching by adding every edge
// whose endpoints are still free. The paper uses this combiner only for
// analysis (it certifies a large matching inside the union), but it is also
// a practical one-pass combiner, and experiments report it alongside
// ComposeMatching.
func GreedyMatchCombine(n int, coresets [][]graph.Edge) *matching.Matching {
	m := matching.NewEmpty(n)
	for _, cs := range coresets {
		m.AugmentGreedily(cs)
	}
	return m
}

// CoresetSizeBytes returns the encoded size of an edge-set coreset message
// (a Theorem 1 matching, an EDCS), used for communication accounting. It
// charges the sorted-set codec — the same encoding the cluster runtime puts
// on the wire — so a simulated estimate and a measured CORESET body are the
// same function of the same edge set. The edges must be in (U, V) order,
// which is how every producer emits them.
func CoresetSizeBytes(coreset []graph.Edge) int {
	return graph.EdgeSetBytes(coreset)
}
