package core

import (
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/vcover"
)

// Negative baselines: the coresets the paper explains do NOT work, kept so
// the experiments can reproduce the Ω(k) separations of Sections 1.2/3.2.

// AdversarialMaximalCoreset returns the *worst-case* maximal matching of the
// partition with respect to a known set of critical ("hidden") edges: it
// first computes a maximum matching on the blocker edges — non-hidden edges
// that touch an endpoint of a local hidden edge — to knock out as many
// hidden edges as possible, then extends to maximality with the remaining
// edges (hidden edges last).
//
// The result IS a maximal matching of the partition, so it witnesses the
// existential claim "there are simple instances in which choosing an
// arbitrary maximal matching in G(i) results in an Ω(k)-approximation"
// (Section 1.2). The hidden-set oracle is available to the experiment
// because the generator planted the instance; a machine could not compute
// this ordering, but a lower bound only needs one bad maximal matching to
// exist.
func AdversarialMaximalCoreset(n int, part []graph.Edge, isHidden func(graph.Edge) bool) []graph.Edge {
	touched := make(map[graph.ID]bool)
	var hidden, rest []graph.Edge
	for _, e := range part {
		if isHidden(e) {
			hidden = append(hidden, e)
			touched[e.U] = true
			touched[e.V] = true
		}
	}
	var blockers []graph.Edge
	for _, e := range part {
		if isHidden(e) {
			continue
		}
		if touched[e.U] || touched[e.V] {
			blockers = append(blockers, e)
		} else {
			rest = append(rest, e)
		}
	}
	// Maximum matching on blockers kills the most hidden edges.
	m := matching.Maximum(n, blockers)
	// Extend to a maximal matching of the whole partition: remaining
	// non-hidden edges first, hidden edges last.
	m.AugmentGreedily(rest)
	m.AugmentGreedily(hidden)
	return m.Edges()
}

// MinVCCoreset is the "minimum vertex cover as coreset" baseline of Section
// 3.2: each machine reports (an approximation of) the minimum vertex cover
// of its own partition as fixed vertices, with no residual edges. On a star
// with Θ(k) leaves this composes to an Ω(k)-approximation: each machine sees
// roughly one edge, for which *either* endpoint is a legitimate minimum
// cover; an adversarial (but still minimum-size) local choice picks the
// leaf, so the union accumulates Θ(k) distinct leaves instead of the single
// center.
//
// The local cover is exact on bipartite partitions (Konig) and 2-approximate
// otherwise. The adversarial-yet-minimum tie-break is realized by a
// leaf-swap post-pass: any cover vertex of local degree 1 is swapped for its
// unique neighbor when that neighbor is not already in the cover. The swap
// preserves feasibility and size, so the reported set remains a minimum
// (resp. 2-approximate) cover of the partition.
func MinVCCoreset(n int, part []graph.Edge) *VCCoreset {
	adj := graph.BuildAdj(n, part)
	var cover []graph.ID
	if side, ok := adj.IsBipartiteWithSides(nil); ok {
		b, left, right := graph.FromGraphSides(n, part, side)
		for _, v := range vcover.KonigCover(b) {
			if int(v) < b.NL {
				cover = append(cover, left[v])
			} else {
				cover = append(cover, right[int(v)-b.NL])
			}
		}
	} else {
		cover = vcover.FromMatching(n, part)
	}
	cover = vcover.Dedup(cover)
	inCover := make(map[graph.ID]bool, len(cover))
	for _, v := range cover {
		inCover[v] = true
	}
	for i, v := range cover {
		if adj.Degree(v) != 1 {
			continue
		}
		w := adj.Neighbors(v)[0]
		if !inCover[w] {
			delete(inCover, v)
			inCover[w] = true
			cover[i] = w
		}
	}
	return &VCCoreset{Fixed: vcover.Dedup(cover)}
}
