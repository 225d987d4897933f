package matching

import "repro/internal/graph"

// HopcroftKarp computes a maximum matching of a bipartite graph in
// O(m * sqrt(n)) time. It returns matchL (for each left vertex, its right
// partner or -1), matchR (the reverse), and the matching size. It runs the
// loop Maximum runs on a bipartite graph, on the embedding b.ToGraph().
func HopcroftKarp(b *graph.Bipartite) (matchL, matchR []graph.ID, size int) {
	m := MaximumBipartite(b)
	matchL, matchR = m.Mate[:b.NL:b.NL], m.Mate[b.NL:]
	for l, r := range matchL {
		if r != -1 {
			matchL[l] = r - graph.ID(b.NL)
		}
	}
	return matchL, matchR, m.size
}

// MaximumBipartite returns a maximum matching of b over the combined vertex
// space of b.ToGraph() (left ids first).
func MaximumBipartite(b *graph.Bipartite) *Matching {
	side := make([]int8, b.N())
	for v := b.NL; v < len(side); v++ {
		side[v] = 1
	}
	return hopcroftKarp(graph.BuildAdj(b.N(), b.ToGraph().Edges), side, make([]graph.ID, 0, b.N()))
}

// hopcroftKarp runs Hopcroft-Karp in place on a general graph's adjacency
// whose vertices of side 0 form the left side; every edge must cross sides.
// Left vertices are taken in ascending ID order and each one's neighbors in
// adjacency order, the order a left-side CSR of the same edges would give,
// and the returned Matching's mate array is the one the search filled.
// queue is scratch; a capacity of n keeps the BFS from allocating.
//
// This is the fast path for the coreset pipeline: the paper's hard
// distributions and most evaluation workloads are bipartite, and each of the
// k machines runs a maximum matching on its partition.
func hopcroftKarp(adj *graph.Adj, side []int8, queue []graph.ID) *Matching {
	n, off, nbr := adj.N, adj.Off, adj.Nbr
	mate := make([]graph.ID, n)
	for i := range mate {
		mate[i] = -1
	}
	size := 0

	// Greedy initialization typically matches most vertices and saves
	// several BFS/DFS phases.
	for u := 0; u < n; u++ {
		if side[u] != 0 {
			continue
		}
		for _, v := range nbr[off[u]:off[u+1]] {
			if mate[v] == -1 {
				mate[u] = v
				mate[v] = graph.ID(u)
				size++
				break
			}
		}
	}

	const inf = int32(1) << 30
	dist := make([]int32, n) // left vertices only
	// iter[u] is the scan position of u's adjacency during the DFS phase,
	// giving the standard "current-arc" optimization.
	iter := make([]int32, n)

	bfs := func() bool {
		queue = queue[:0]
		for u := 0; u < n; u++ {
			if side[u] != 0 {
				continue
			}
			if mate[u] == -1 {
				dist[u] = 0
				queue = append(queue, graph.ID(u))
			} else {
				dist[u] = inf
			}
		}
		found := false
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for i := off[u]; i < off[u+1]; i++ {
				w := mate[nbr[i]]
				if w == -1 {
					found = true
				} else if dist[w] == inf {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		return found
	}

	var dfs func(u graph.ID) bool
	dfs = func(u graph.ID) bool {
		for ; iter[u] < off[u+1]; iter[u]++ {
			v := nbr[iter[u]]
			w := mate[v]
			if w == -1 || (dist[w] == dist[u]+1 && dfs(w)) {
				mate[u] = v
				mate[v] = u
				return true
			}
		}
		dist[u] = inf
		return false
	}

	for bfs() {
		copy(iter, off[:n])
		for u := 0; u < n; u++ {
			if side[u] == 0 && mate[u] == -1 && dfs(graph.ID(u)) {
				size++
			}
		}
	}
	return &Matching{Mate: mate, size: size}
}
