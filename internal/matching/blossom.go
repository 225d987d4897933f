package matching

import "repro/internal/graph"

// Blossom computes a maximum matching of a general graph using Edmonds'
// blossom-shrinking algorithm (O(V^3) worst case, with greedy
// initialization). It exists because the paper's coreset theorem applies to
// arbitrary graphs, not just bipartite ones; partitions of non-bipartite
// workloads (power-law, grid-with-chords) take this path.
func Blossom(n int, edges []graph.Edge) *Matching {
	return blossom(graph.BuildAdj(n, edges), edges)
}

// blossom is Blossom over a caller-built adjacency of edges. Maximum already
// holds one from its 2-colouring attempt, and the CSR is two 2m-entry tables
// not worth building twice.
func blossom(adj *graph.Adj, edges []graph.Edge) *Matching {
	n := adj.N
	match := make([]graph.ID, n) // partner or -1
	p := make([]graph.ID, n)     // BFS tree parent (on even vertices)
	base := make([]graph.ID, n)  // blossom base of each vertex
	used := make([]bool, n)
	inBlossom := make([]bool, n)
	usedLCA := make([]bool, n)
	queue := make([]graph.ID, 0, n)

	for i := range match {
		match[i] = -1
	}

	// Greedy initialization: cheap and removes most augmentation phases.
	for _, e := range edges {
		if e.U != e.V && match[e.U] == -1 && match[e.V] == -1 {
			match[e.U] = e.V
			match[e.V] = e.U
		}
	}

	lca := func(a, b graph.ID) graph.ID {
		for i := range usedLCA {
			usedLCA[i] = false
		}
		// Climb from a to the root, marking bases.
		cur := a
		for {
			cur = base[cur]
			usedLCA[cur] = true
			if match[cur] == -1 {
				break
			}
			cur = p[match[cur]]
		}
		// Climb from b until a marked base is met.
		cur = b
		for !usedLCA[base[cur]] {
			cur = p[match[cur]]
		}
		return base[cur]
	}

	markPath := func(v, b, child graph.ID) {
		for base[v] != b {
			inBlossom[base[v]] = true
			inBlossom[base[match[v]]] = true
			p[v] = child
			child = match[v]
			v = p[match[v]]
		}
	}

	// findPath grows an alternating BFS tree from root; returns an exposed
	// vertex ending an augmenting path, or -1.
	findPath := func(root graph.ID) graph.ID {
		for i := 0; i < n; i++ {
			used[i] = false
			p[i] = -1
			base[i] = graph.ID(i)
		}
		used[root] = true
		queue = append(queue[:0], root)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, to := range adj.Neighbors(v) {
				if base[v] == base[to] || match[v] == to {
					continue
				}
				if to == root || (match[to] != -1 && p[match[to]] != -1) {
					// Odd cycle: contract the blossom.
					curBase := lca(v, to)
					for i := range inBlossom {
						inBlossom[i] = false
					}
					markPath(v, curBase, to)
					markPath(to, curBase, v)
					for i := 0; i < n; i++ {
						if inBlossom[base[i]] {
							base[i] = curBase
							if !used[i] {
								used[i] = true
								queue = append(queue, graph.ID(i))
							}
						}
					}
				} else if p[to] == -1 {
					p[to] = v
					if match[to] == -1 {
						return to
					}
					used[match[to]] = true
					queue = append(queue, match[to])
				}
			}
		}
		return -1
	}

	for v := graph.ID(0); int(v) < n; v++ {
		if match[v] != -1 {
			continue
		}
		u := findPath(v)
		if u == -1 {
			continue
		}
		// Augment along parent pointers from the exposed endpoint.
		for u != -1 {
			pv := p[u]
			ppv := match[pv]
			match[u] = pv
			match[pv] = u
			u = ppv
		}
	}

	m := NewEmpty(n)
	for v := 0; v < n; v++ {
		if match[v] != -1 && graph.ID(v) < match[v] {
			m.Add(graph.Edge{U: graph.ID(v), V: match[v]})
		}
	}
	return m
}
