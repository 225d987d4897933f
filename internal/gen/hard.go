package gen

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// HardMatchingInstance is a sample from the paper's distribution D_Matching
// (Sections 4.1 and 5.1), the hard input for matching lower bounds.
//
// The bipartite graph G(L, R, E) with |L| = |R| = n consists of:
//   - E_AB ("confuser"): random subsets A ⊆ L, B ⊆ R of size n/alpha, with
//     each pair in A x B an edge independently with probability k*alpha/n;
//   - E_ĀB̄ ("hidden"): a random perfect matching between L\A and R\B.
//
// MM(G) >= n - n/alpha, but any matching larger than 2n/alpha must use
// hidden edges, and after random k-partitioning the hidden edges are
// locally indistinguishable from degree-1 confuser edges (Lemma 4.1).
type HardMatchingInstance struct {
	B      *graph.Bipartite // the full graph, |L| = |R| = n
	InA    []bool           // InA[l]: left vertex l is in A
	InB    []bool           // InB[r]: right vertex r is in B
	Hidden []graph.Edge     // the perfect matching on (L\A) x (R\B)
	// HiddenSet maps canonical (left, right) hidden edges for O(1) lookup.
	HiddenSet map[graph.Edge]bool
}

// HardMatching samples D_Matching with parameters (n, alpha, k).
// Requires 1 <= n/alpha <= n.
func HardMatching(n, alpha, k int, r *rng.RNG) *HardMatchingInstance {
	if n < 1 || alpha < 1 || k < 1 {
		panic("gen: HardMatching with invalid parameters")
	}
	a := n / alpha
	if a < 1 {
		a = 1
	}
	inst := &HardMatchingInstance{
		InA:       make([]bool, n),
		InB:       make([]bool, n),
		HiddenSet: make(map[graph.Edge]bool, n-a),
	}
	for _, v := range r.SampleK(n, a) {
		inst.InA[v] = true
	}
	for _, v := range r.SampleK(n, a) {
		inst.InB[v] = true
	}
	// Materialize A and B index lists plus the complements.
	var aIdx, bIdx, aBar, bBar []graph.ID
	for v := 0; v < n; v++ {
		if inst.InA[v] {
			aIdx = append(aIdx, graph.ID(v))
		} else {
			aBar = append(aBar, graph.ID(v))
		}
		if inst.InB[v] {
			bIdx = append(bIdx, graph.ID(v))
		} else {
			bBar = append(bBar, graph.ID(v))
		}
	}
	// E_AB: skip-sample over the a x a pair space.
	p := float64(k) * float64(alpha) / float64(n)
	if p > 1 {
		p = 1
	}
	var edges []graph.Edge
	sub := BipartiteGNP(len(aIdx), len(bIdx), p, r)
	for _, e := range sub.Edges {
		edges = append(edges, graph.Edge{U: aIdx[e.U], V: bIdx[e.V]})
	}
	// E_ĀB̄: random perfect matching between the complements.
	perm := r.Perm32(len(bBar))
	for i, l := range aBar {
		e := graph.Edge{U: l, V: bBar[perm[i]]}
		inst.Hidden = append(inst.Hidden, e)
		inst.HiddenSet[e] = true
		edges = append(edges, e)
	}
	inst.B = graph.NewBipartite(n, n, edges)
	return inst
}

// InducedMatching returns the induced matching M(i) of a machine's edge set:
// the edges both of whose endpoints have degree exactly one within the set
// (degree-1 with respect to the whole local graph, as in Lemma 4.1).
// Edges are in bipartite (left, right) coordinates.
func InducedMatching(n int, edges []graph.Edge) []graph.Edge {
	degL := make([]int32, n)
	degR := make([]int32, n)
	for _, e := range edges {
		degL[e.U]++
		degR[e.V]++
	}
	var out []graph.Edge
	for _, e := range edges {
		if degL[e.U] == 1 && degR[e.V] == 1 {
			out = append(out, e)
		}
	}
	return out
}

// HardVCInstance is a sample from the paper's distribution D_VC
// (Sections 4.2 and 5.3), the hard input for vertex-cover lower bounds.
//
// The bipartite graph G(L, R, E) with |L| = |R| = n consists of:
//   - E_A: a random subset A ⊆ L of size n/alpha, with each pair in A x R an
//     edge independently with probability k/2n;
//   - e*: one extra edge from a uniformly random vertex v* of A to a
//     uniformly random right vertex.
//
// G has a vertex cover of size ~n/alpha (the set A), but a protocol that
// loses track of e* must cover it blindly, which forces Ω(n) vertices.
type HardVCInstance struct {
	B     *graph.Bipartite // the full graph, |L| = |R| = n
	InA   []bool           // InA[l]: left vertex l is in A
	VStar graph.ID         // v* in A
	EStar graph.Edge       // e* = (v*, r*) in bipartite coordinates
	// EStarIndex is the position of e* within B.Edges.
	EStarIndex int
}

// HardVC samples D_VC with parameters (n, alpha, k).
func HardVC(n, alpha, k int, r *rng.RNG) *HardVCInstance {
	if n < 1 || alpha < 1 || k < 1 {
		panic("gen: HardVC with invalid parameters")
	}
	a := n / alpha
	if a < 1 {
		a = 1
	}
	inst := &HardVCInstance{InA: make([]bool, n)}
	aIdx := r.SampleK(n, a)
	for _, v := range aIdx {
		inst.InA[v] = true
	}
	p := float64(k) / (2 * float64(n))
	if p > 1 {
		p = 1
	}
	var edges []graph.Edge
	sub := BipartiteGNP(a, n, p, r)
	for _, e := range sub.Edges {
		edges = append(edges, graph.Edge{U: aIdx[e.U], V: e.V})
	}
	inst.VStar = aIdx[r.Intn(len(aIdx))]
	inst.EStar = graph.Edge{U: inst.VStar, V: graph.ID(r.Intn(n))}
	inst.EStarIndex = len(edges)
	edges = append(edges, inst.EStar)
	inst.B = graph.NewBipartite(n, n, edges)
	return inst
}

// DegreeOneLeft returns L¹ — the left vertices with degree exactly one in
// the edge set — and R¹, the set of their neighbors (Lemma 4.2's sets).
func DegreeOneLeft(n int, edges []graph.Edge) (l1 []graph.ID, r1 []graph.ID) {
	degL := make([]int32, n)
	for _, e := range edges {
		degL[e.U]++
	}
	inR1 := make([]bool, n)
	for _, e := range edges {
		if degL[e.U] == 1 {
			if !inR1[e.V] {
				inR1[e.V] = true
				r1 = append(r1, e.V)
			}
		}
	}
	for v := 0; v < n; v++ {
		if degL[v] == 1 {
			l1 = append(l1, graph.ID(v))
		}
	}
	return l1, r1
}

// GreedyTrapInstance is the instance family on which an arbitrary maximal
// matching per machine is only an Ω(k)-approximate coreset (Section 1.2):
// a perfect matching between P and Q (|P| = |Q| = n) plus a "confuser"
// complete bipartite graph between a small set P' (|P'| = n/k) and all of Q.
//
// In each machine an adversarial maximal matching can match P' to exactly
// the right endpoints of the machine's perfect-matching edges, blocking
// them; the union of such coresets then only contains O(n/k) matchable
// edges, while MM(G) = n. A *maximum* matching per machine (Theorem 1)
// avoids the trap.
type GreedyTrapInstance struct {
	B        *graph.Bipartite // left = P' ∪ P (P' first), right = Q
	NPrime   int              // |P'|; left ids [0, NPrime) are P'
	N        int              // |P| = |Q|
	IsHidden []bool           // per edge of B: true if a perfect-matching edge
}

// GreedyTrap builds the instance with |P| = |Q| = n and |P'| = ceil(n/k).
func GreedyTrap(n, k int, r *rng.RNG) *GreedyTrapInstance {
	if n < 1 || k < 1 {
		panic("gen: GreedyTrap with invalid parameters")
	}
	np := (n + k - 1) / k
	inst := &GreedyTrapInstance{NPrime: np, N: n}
	var edges []graph.Edge
	var hidden []bool
	// Confuser: complete bipartite P' x Q.
	for u := 0; u < np; u++ {
		for q := 0; q < n; q++ {
			edges = append(edges, graph.Edge{U: graph.ID(u), V: graph.ID(q)})
			hidden = append(hidden, false)
		}
	}
	// Perfect matching: P_i (left id np+i) to a random permutation of Q.
	perm := r.Perm32(n)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: graph.ID(np + i), V: perm[i]})
		hidden = append(hidden, true)
	}
	inst.B = graph.NewBipartite(np+n, n, edges)
	inst.IsHidden = hidden
	return inst
}

// AdversarialMaximalOrder orders a machine's edges so that a greedy maximal
// matching falls into the trap: for every local hidden edge (p, q), some
// confuser edge (p', q) with the same right endpoint is processed first,
// consuming q. Remaining confuser edges come next and hidden edges last.
// isHidden classifies edges of the local part (in bipartite coordinates).
func AdversarialMaximalOrder(part []graph.Edge, isHidden func(graph.Edge) bool) []graph.Edge {
	hiddenRight := make(map[graph.ID]bool)
	for _, e := range part {
		if isHidden(e) {
			hiddenRight[e.V] = true
		}
	}
	blockers := make([]graph.Edge, 0, len(part))
	confusers := make([]graph.Edge, 0, len(part))
	hiddens := make([]graph.Edge, 0, len(part))
	for _, e := range part {
		switch {
		case isHidden(e):
			hiddens = append(hiddens, e)
		case hiddenRight[e.V]:
			blockers = append(blockers, e)
		default:
			confusers = append(confusers, e)
		}
	}
	out := make([]graph.Edge, 0, len(part))
	out = append(out, blockers...)
	out = append(out, confusers...)
	out = append(out, hiddens...)
	return out
}

// HubNoise is the hard arrival order for a vertex-cover machine with online
// peeling: a multigraph on n vertices in which vertices 0..hubs-1 each get
// hubDeg edges to uniform endpoints, over noise uniform edges, plus noise/16
// repeats of edges already drawn and as many self-loops, all shuffled. With
// hubDeg above a machine's level-1 threshold a hub crosses it mid-stream, so
// the machine holds edges it stored before their endpoint was fixed — the
// case G(n,p) inputs never produce — and the repeats and loops exercise the
// multigraph degree convention. The result is not a valid graph.Graph
// (Validate rejects the loops); it is an edge sequence for the machines.
func HubNoise(n, hubs, hubDeg, noise int, r *rng.RNG) []graph.Edge {
	var edges []graph.Edge
	for h := 0; h < hubs; h++ {
		for i := 0; i < hubDeg; i++ {
			edges = append(edges, graph.Edge{U: graph.ID(h), V: graph.ID(r.Intn(n))}.Canon())
		}
	}
	for i := 0; i < noise; i++ {
		edges = append(edges, graph.Edge{U: graph.ID(r.Intn(n)), V: graph.ID(r.Intn(n))}.Canon())
	}
	for i := 0; i < noise/16; i++ {
		v := graph.ID(r.Intn(n))
		edges = append(edges, edges[r.Intn(len(edges))], graph.Edge{U: v, V: v})
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}
