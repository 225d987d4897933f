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

// BuildAdj constructs the CSR structure of the multigraph whose edges are
// the concatenation of parts, read in place: a caller holding its edges in
// pieces (a chunked store, k coresets) passes them as they are. One pass
// counts the degrees into Off and one fills Nbr, walking the edges backwards
// with Off itself as the cursor, so each list comes out in edge order and
// nothing but Off and Nbr is allocated.
func BuildAdj(n int, parts ...[]Edge) *Adj {
	off := make([]int32, n+1)
	m := 0
	for _, p := range parts {
		m += len(p)
		for _, e := range p {
			off[e.U]++
			off[e.V]++
		}
	}
	// off[v] ends v's list; each edge the fill places moves it back by one.
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	nbr := make([]ID, 2*m)
	for i := len(parts) - 1; i >= 0; i-- {
		p := parts[i]
		for j := len(p) - 1; j >= 0; j-- {
			e := p[j]
			off[e.V]--
			nbr[off[e.V]] = e.U
			off[e.U]--
			nbr[off[e.U]] = e.V
		}
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

// IsBipartiteWithSides 2-colors the graph by depth-first search. If the
// graph is bipartite it returns (side, true) where side[v] is 0 or 1 and
// every edge crosses sides; isolated vertices get side 0. Otherwise it
// returns (nil, false). stack is the search's scratch: each vertex is pushed
// once, so with capacity N it never grows, and the caller may reuse its
// array afterwards.
//
// The coreset code uses this to route bipartite partitions to Hopcroft-Karp
// (much faster than the general blossom algorithm) without requiring callers
// to declare bipartiteness.
func (a *Adj) IsBipartiteWithSides(stack []ID) ([]int8, bool) {
	side := make([]int8, a.N)
	for i := range side {
		side[i] = -1
	}
	for s := 0; s < a.N; s++ {
		if side[s] != -1 {
			continue
		}
		side[s] = 0
		stack = append(stack[:0], ID(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range a.Neighbors(v) {
				if side[w] == -1 {
					side[w] = 1 - side[v]
					stack = append(stack, w)
				} else if side[w] == side[v] {
					return nil, false
				}
			}
		}
	}
	return side, true
}
