// Package vcover implements the vertex-cover substrate: the classic
// 2-approximation via maximal matching, a bucket-queue greedy (H_n
// approximation), an exact branch-and-bound reference for small instances,
// and Konig's-theorem exact minimum vertex cover for bipartite graphs (the
// test suite's ground truth).
package vcover

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/matching"
)

// Verify checks that cover is a feasible vertex cover of (n, edges):
// ids in range and every edge has at least one covered endpoint.
func Verify(n int, edges []graph.Edge, cover []graph.ID) error {
	in := make([]bool, n)
	for _, v := range cover {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("vcover: vertex %d out of range [0,%d)", v, n)
		}
		in[v] = true
	}
	for _, e := range edges {
		if !in[e.U] && !in[e.V] {
			return fmt.Errorf("vcover: edge %v uncovered", e)
		}
	}
	return nil
}

// Dedup sorts and deduplicates a cover in place, returning the result:
// ascending and duplicate-free, in O(c log c) for a cover of c entries.
func Dedup(cover []graph.ID) []graph.ID {
	slices.Sort(cover)
	return slices.Compact(cover)
}

// FromMatching returns the endpoints of a maximal matching of the edge set,
// the classic 2-approximation: any vertex cover must contain at least one
// endpoint of each matched edge. The matching is greedy in edge order; the
// cover is ascending and duplicate-free, read in one pass over the mate
// array, so the whole is linear in n plus the edge count.
func FromMatching(n int, edges []graph.Edge) []graph.ID {
	m := matching.MaximalGreedy(n, edges)
	out := make([]graph.ID, 0, 2*m.Size())
	for v, w := range m.Mate {
		if w != -1 {
			out = append(out, graph.ID(v))
		}
	}
	return out
}

// GreedyDegree repeatedly adds a maximum-residual-degree vertex to the cover
// until no edges remain — the H_n-approximation. Implemented with a lazy
// bucket queue for O(n + m) total time.
func GreedyDegree(n int, edges []graph.Edge) []graph.ID {
	res := graph.NewResidual(n, edges)
	maxDeg := res.MaxDegree()
	buckets := make([][]graph.ID, maxDeg+1)
	for v := 0; v < n; v++ {
		if d := res.Degree(graph.ID(v)); d > 0 {
			buckets[d] = append(buckets[d], graph.ID(v))
		}
	}
	var cover []graph.ID
	for d := maxDeg; d > 0; {
		if len(buckets[d]) == 0 {
			d--
			continue
		}
		v := buckets[d][len(buckets[d])-1]
		buckets[d] = buckets[d][:len(buckets[d])-1]
		cur := res.Degree(v)
		if cur == 0 {
			continue // stale entry: already isolated or removed
		}
		if cur != d {
			// Degree decayed since enqueue; requeue at the true bucket.
			buckets[cur] = append(buckets[cur], v)
			continue
		}
		cover = append(cover, v)
		res.Remove(v)
	}
	return Dedup(cover)
}

// ExactSmall computes a minimum vertex cover by branch and bound. Intended
// as a test oracle; panics if n > 64 to prevent accidental use on large
// inputs (worst-case exponential time).
func ExactSmall(n int, edges []graph.Edge) []graph.ID {
	if n > 64 {
		panic("vcover: ExactSmall limited to n <= 64")
	}
	edges = graph.DedupEdges(append([]graph.Edge(nil), edges...))
	// Upper bound from greedy seeds the pruning.
	best := GreedyDegree(n, edges)
	inCover := make([]bool, n)
	cur := make([]graph.ID, 0, n)

	adj := graph.BuildAdj(n, edges)
	var rec func()
	rec = func() {
		if len(cur) >= len(best) {
			return
		}
		// Find the first uncovered edge.
		var pick graph.Edge
		found := false
		for _, e := range edges {
			if !inCover[e.U] && !inCover[e.V] {
				pick = e
				found = true
				break
			}
		}
		if !found {
			best = append(best[:0:0], cur...)
			return
		}
		// Degree-aware branching: try the higher-degree endpoint first.
		u, v := pick.U, pick.V
		if adj.Degree(v) > adj.Degree(u) {
			u, v = v, u
		}
		for _, w := range []graph.ID{u, v} {
			inCover[w] = true
			cur = append(cur, w)
			rec()
			cur = cur[:len(cur)-1]
			inCover[w] = false
		}
	}
	rec()
	return Dedup(best)
}

// KonigCover computes an exact minimum vertex cover of a bipartite graph via
// Konig's theorem: compute a maximum matching, take Z = vertices reachable
// from unmatched left vertices by alternating paths; the cover is
// (L \ Z) ∪ (R ∩ Z) and its size equals the maximum matching size.
// It returns cover vertex ids in the combined space of b.ToGraph()
// (left ids [0,NL), right ids NL+r).
func KonigCover(b *graph.Bipartite) []graph.ID {
	matchL, matchR, _ := matching.HopcroftKarp(b)
	nl := b.NL
	// Right adjacency of each left vertex.
	adjL := make([][]graph.ID, nl)
	for _, e := range b.Edges {
		adjL[e.U] = append(adjL[e.U], e.V)
	}
	visitedL := make([]bool, nl)
	visitedR := make([]bool, b.NR)
	var queue []graph.ID
	for u := 0; u < nl; u++ {
		if matchL[u] == -1 {
			visitedL[u] = true
			queue = append(queue, graph.ID(u))
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, v := range adjL[u] {
			if visitedR[v] {
				continue
			}
			// Traverse a non-matching edge L->R ...
			visitedR[v] = true
			// ... then the matching edge R->L, if any.
			if w := matchR[v]; w != -1 && !visitedL[w] {
				visitedL[w] = true
				queue = append(queue, w)
			}
		}
	}
	var cover []graph.ID
	for u := 0; u < nl; u++ {
		if !visitedL[u] {
			cover = append(cover, graph.ID(u))
		}
	}
	for v := 0; v < b.NR; v++ {
		if visitedR[v] {
			cover = append(cover, graph.ID(nl+v))
		}
	}
	return cover
}
