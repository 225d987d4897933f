package matching

import "repro/internal/graph"

// blossomReference is the textbook Edmonds matcher that blossom's
// union–find bases replaced, kept verbatim as a test-only oracle: every
// contraction rewrites base[] over all n vertices and re-enqueues the newly
// even ones in ascending ID order, and lca and the contraction clear their
// marks over all n entries. TestBlossomMatchesReference and
// FuzzBlossomMatchesReference demand that blossom return the same Mate
// array, bit for bit, not merely a matching of the same size.
func blossomReference(adj *graph.Adj, edges []graph.Edge) *Matching {
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

// maximumReference is the composition Maximum replaced, kept as a test-only
// oracle: the CSR built through a cursor table, the 2-colouring, and on a
// bipartite graph a relabelling into a graph.Bipartite (FromGraphSides), a
// second, left-side CSR inside the Hopcroft–Karp loop and a copy of its
// matchL into a fresh NewEmpty; otherwise blossomReference, which copies its
// answer the same way. TestMaximumMatchesReference and
// FuzzMaximumMatchesReference demand that Maximum return the same Mate
// array, bit for bit.
func maximumReference(n int, edges []graph.Edge) *Matching {
	adj := buildAdjReference(n, edges)
	if side, ok := adj.IsBipartiteWithSides(nil); ok {
		b, left, right := graph.FromGraphSides(n, edges, side)
		matchL, _, _ := hopcroftKarpReference(b)
		m := NewEmpty(n)
		for l, r := range matchL {
			if r != -1 {
				m.Add(graph.Edge{U: left[l], V: right[r]}.Canon())
			}
		}
		return m
	}
	return blossomReference(adj, edges)
}

// buildAdjReference is the two-pass CSR construction with a cursor table
// that graph.BuildAdj replaced.
func buildAdjReference(n int, edges []graph.Edge) *graph.Adj {
	off := make([]int32, n+1)
	for _, e := range edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	nbr := make([]graph.ID, 2*len(edges))
	cur := make([]int32, n)
	copy(cur, off[:n])
	for _, e := range edges {
		nbr[cur[e.U]] = e.V
		cur[e.U]++
		nbr[cur[e.V]] = e.U
		cur[e.V]++
	}
	return &graph.Adj{N: n, Off: off, Nbr: nbr}
}

// hopcroftKarpReference is the Hopcroft–Karp loop over a left-side CSR of
// its own that hopcroftKarp replaced, with separate matchL and matchR.
func hopcroftKarpReference(b *graph.Bipartite) (matchL, matchR []graph.ID, size int) {
	nl, nr := b.NL, b.NR
	// Build left-side CSR adjacency.
	off := make([]int32, nl+1)
	for _, e := range b.Edges {
		off[e.U+1]++
	}
	for i := 0; i < nl; i++ {
		off[i+1] += off[i]
	}
	nbr := make([]graph.ID, len(b.Edges))
	cur := make([]int32, nl)
	copy(cur, off[:nl])
	for _, e := range b.Edges {
		nbr[cur[e.U]] = e.V
		cur[e.U]++
	}

	matchL = make([]graph.ID, nl)
	matchR = make([]graph.ID, nr)
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}

	// Greedy initialization typically matches most vertices and saves
	// several BFS/DFS phases.
	for u := 0; u < nl; u++ {
		for i := off[u]; i < off[u+1]; i++ {
			v := nbr[i]
			if matchR[v] == -1 {
				matchL[u] = v
				matchR[v] = graph.ID(u)
				size++
				break
			}
		}
	}

	const inf = int32(1) << 30
	dist := make([]int32, nl)
	queue := make([]graph.ID, 0, nl)
	// iter[u] is the scan position of u's adjacency during the DFS phase,
	// giving the standard "current-arc" optimization.
	iter := make([]int32, nl)

	bfs := func() bool {
		queue = queue[:0]
		for u := 0; u < nl; u++ {
			if matchL[u] == -1 {
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
				w := matchR[nbr[i]]
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
			w := matchR[v]
			if w == -1 || (dist[w] == dist[u]+1 && dfs(w)) {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		dist[u] = inf
		return false
	}

	for bfs() {
		copy(iter, off[:nl])
		for u := 0; u < nl; u++ {
			if matchL[u] == -1 && dfs(graph.ID(u)) {
				size++
			}
		}
	}
	return matchL, matchR, size
}
