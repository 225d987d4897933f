package graph

// Adj is an immutable CSR (compressed sparse row) adjacency structure built
// from an edge list. Each undirected edge contributes one half-edge in each
// direction, so Nbr has length 2m. CSR gives cache-friendly sequential
// neighbor scans, which dominate the running time of the matching and
// vertex-cover kernels.
type Adj struct {
	N   int
	Off []int32 // len N+1; neighbors of v are Nbr[Off[v]:Off[v+1]]
	Nbr []ID    // len 2m
}

// BuildAdj constructs the CSR structure in two counting passes (O(n + m),
// no per-vertex allocation).
func BuildAdj(n int, edges []Edge) *Adj {
	off := make([]int32, n+1)
	for _, e := range edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	nbr := make([]ID, 2*len(edges))
	cur := make([]int32, n)
	copy(cur, off[:n])
	for _, e := range edges {
		nbr[cur[e.U]] = e.V
		cur[e.U]++
		nbr[cur[e.V]] = e.U
		cur[e.V]++
	}
	return &Adj{N: n, Off: off, Nbr: nbr}
}

// Degree returns the degree of v (counting parallel edges).
func (a *Adj) Degree(v ID) int {
	return int(a.Off[v+1] - a.Off[v])
}

// Neighbors returns the neighbor slice of v. The slice aliases internal
// storage and must not be modified.
func (a *Adj) Neighbors(v ID) []ID {
	return a.Nbr[a.Off[v]:a.Off[v+1]]
}

// M returns the number of (undirected) edges.
func (a *Adj) M() int { return len(a.Nbr) / 2 }

// IsBipartiteWithSides 2-colors the graph by BFS. If the graph is bipartite
// it returns (side, true) where side[v] is 0 or 1 and every edge crosses
// sides; isolated vertices get side 0. Otherwise it returns (nil, false).
//
// The coreset code uses this to route bipartite partitions to Hopcroft-Karp
// (much faster than the general blossom algorithm) without requiring callers
// to declare bipartiteness.
func (a *Adj) IsBipartiteWithSides() ([]int8, bool) {
	side := make([]int8, a.N)
	for i := range side {
		side[i] = -1
	}
	queue := make([]ID, 0, a.N)
	for s := 0; s < a.N; s++ {
		if side[s] != -1 {
			continue
		}
		side[s] = 0
		queue = append(queue[:0], ID(s))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range a.Neighbors(v) {
				if side[w] == -1 {
					side[w] = 1 - side[v]
					queue = append(queue, w)
				} else if side[w] == side[v] {
					return nil, false
				}
			}
		}
	}
	return side, true
}
