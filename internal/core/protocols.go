package core

import (
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/vcover"
)

// SubsampledMatchingCoreset implements the protocol of Remark 5.2, which
// shows the Ω(nk/α²) communication lower bound of Theorem 5 is tight: each
// machine computes a maximum matching of its partition and forwards each
// matched edge independently with probability 1/alpha. The coordinator
// composes the k subsampled matchings with ComposeMatching; the result is an
// O(alpha)-approximation using O~(nk/α²) total communication.
func SubsampledMatchingCoreset(n int, part []graph.Edge, alpha int, r *rng.RNG) []graph.Edge {
	if alpha < 1 {
		panic("core: SubsampledMatchingCoreset with alpha < 1")
	}
	full := matching.Maximum(n, part).Edges()
	if alpha == 1 {
		return full
	}
	p := 1 / float64(alpha)
	out := make([]graph.Edge, 0, len(full)/alpha+1)
	for _, e := range full {
		if r.Bernoulli(p) {
			out = append(out, e)
		}
	}
	return out
}

// GroupedVC implements the protocol of Remark 5.8, which shows the Ω(nk/α)
// bound of Theorem 6 is tight: vertices are grouped into consecutive groups
// of size groupSize (deterministically, hence consistently across machines),
// the graph is contracted to a multigraph on the groups, and VC-Coreset runs
// on the contracted graph. A cover of the contracted graph expands to a
// cover of G by taking all members of each selected group, losing a factor
// groupSize; with groupSize = Θ(α/log n) the protocol is an
// α-approximation with O~(nk/α) communication.

// GroupedVCCoreset computes one machine's coreset on the contracted graph.
// Edges inside a single group become self-loops; they cannot be expressed in
// the simple-graph residual structure, so their group is added to Fixed
// directly (the group must be in any cover of the contracted multigraph).
func GroupedVCCoreset(n, k, groupSize int, part []graph.Edge) *VCCoreset {
	if groupSize < 1 {
		panic("core: GroupedVCCoreset with groupSize < 1")
	}
	ng := (n + groupSize - 1) / groupSize
	contracted := make([]graph.Edge, 0, len(part))
	selfLoop := make(map[graph.ID]bool)
	for _, e := range part {
		gu := e.U / graph.ID(groupSize)
		gv := e.V / graph.ID(groupSize)
		if gu == gv {
			selfLoop[gu] = true
			continue
		}
		contracted = append(contracted, graph.Edge{U: gu, V: gv}.Canon())
	}
	cs := ComputeVCCoreset(ng, k, contracted)
	for g := range selfLoop {
		cs.Fixed = append(cs.Fixed, g)
	}
	cs.Fixed = vcover.Dedup(cs.Fixed)
	return cs
}

// ComposeGroupedVC combines contracted coresets and expands group ids back
// to original vertices. n is the original vertex count.
func ComposeGroupedVC(n, groupSize int, coresets []*VCCoreset) []graph.ID {
	ng := (n + groupSize - 1) / groupSize
	groupCover := ComposeVC(ng, coresets)
	out := make([]graph.ID, 0, len(groupCover)*groupSize)
	for _, g := range groupCover {
		lo := int(g) * groupSize
		hi := lo + groupSize
		if hi > n {
			hi = n
		}
		for v := lo; v < hi; v++ {
			out = append(out, graph.ID(v))
		}
	}
	return out // ascending groups expand to ascending, disjoint ranges
}

// GroupSizeFor returns the Remark 5.8 group size Θ(α/log₂ n), at least 1.
func GroupSizeFor(n, alpha int) int {
	if n < 2 {
		return 1
	}
	lg := 1
	for 1<<uint(lg) < n {
		lg++
	}
	g := alpha / lg
	if g < 1 {
		g = 1
	}
	return g
}
