package graph

// Residual is a mutable view of a graph supporting vertex removal with O(1)
// amortized degree maintenance, over a CSR adjacency. It serves the peeling
// algorithms that remove vertices one at a time or interleave removals with
// degree queries: Parnas-Ron peeling and the greedy covers (internal/vcover),
// the Buss kernel (internal/kernel) and the Lemma 3.6 analysis. The
// Theorem 2 machine does not use it — VC-Coreset removes whole levels and
// asks for degrees only between them, which EdgeStore.Prune answers from the
// edge list alone, without the 2m-entry adjacency.
//
// Removal is lazy on the adjacency side: neighbors are not unlinked, but
// degrees are decremented eagerly and dead vertices are skipped on scans. An
// edge is live exactly while both its endpoints are alive.
type Residual struct {
	adj   *Adj
	alive []bool
	deg   []int32 // residual degree (edges to alive neighbors)
	edges []Edge  // originating edge list (shared, not owned)
}

// NewResidual builds a residual view over (n, edges). The edge slice is
// retained (not copied) and must not be mutated while the Residual is live.
func NewResidual(n int, edges []Edge) *Residual {
	r := &Residual{
		adj:   BuildAdj(n, edges),
		alive: make([]bool, n),
		deg:   make([]int32, n),
		edges: edges,
	}
	for i := range r.alive {
		r.alive[i] = true
		r.deg[i] = int32(r.adj.Degree(ID(i)))
	}
	return r
}

// N returns the vertex-universe size (including removed vertices).
func (r *Residual) N() int { return r.adj.N }

// Alive reports whether v is still present.
func (r *Residual) Alive(v ID) bool { return r.alive[v] }

// Degree returns the residual degree of v (0 if removed).
func (r *Residual) Degree(v ID) int {
	if !r.alive[v] {
		return 0
	}
	return int(r.deg[v])
}

// Remove deletes v and decrements the residual degree of its alive
// neighbors. Removing an already-dead vertex is a no-op.
func (r *Residual) Remove(v ID) {
	if !r.alive[v] {
		return
	}
	r.alive[v] = false
	r.deg[v] = 0
	off := r.adj.Off
	for i := off[v]; i < off[v+1]; i++ {
		w := r.adj.Nbr[i]
		if r.alive[w] {
			r.deg[w]--
		}
	}
}

// RemoveAtLeast removes every alive vertex with residual degree >= threshold
// and returns them. This implements one peeling iteration. The scan is a
// single pass: because removals only decrease degrees, a vertex below the
// threshold now stays below it, so the set selected up front is exactly the
// set the paper's per-iteration definition peels.
func (r *Residual) RemoveAtLeast(threshold int) []ID {
	var peeled []ID
	for v := 0; v < r.adj.N; v++ {
		if r.alive[v] && int(r.deg[v]) >= threshold {
			peeled = append(peeled, ID(v))
		}
	}
	for _, v := range peeled {
		r.Remove(v)
	}
	return peeled
}

// LiveEdges returns the edges with both endpoints alive, preserving input
// order, in a slice of exactly their number (non-nil when empty).
func (r *Residual) LiveEdges() []Edge {
	out := make([]Edge, 0, r.LiveEdgeCount())
	for _, e := range r.edges {
		if r.alive[e.U] && r.alive[e.V] {
			out = append(out, e)
		}
	}
	return out
}

// LiveEdgeCount returns the number of edges with both endpoints alive.
func (r *Residual) LiveEdgeCount() int {
	c := 0
	for _, e := range r.edges {
		if r.alive[e.U] && r.alive[e.V] {
			c++
		}
	}
	return c
}

// MaxDegree returns the maximum residual degree.
func (r *Residual) MaxDegree() int {
	max := int32(0)
	for v := 0; v < r.adj.N; v++ {
		if r.alive[v] && r.deg[v] > max {
			max = r.deg[v]
		}
	}
	return int(max)
}
