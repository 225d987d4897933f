// Package graph provides the graph substrate shared by every algorithm in
// this repository: compact edge-list graphs, chunked per-machine edge stores,
// CSR adjacency structures, mutable residual graphs with degree tracking (for
// the vertex-at-a-time peeling algorithms), bipartite views, and the binary
// codecs that carry shards, dataset segments and coreset messages and
// measure the communication of every runtime.
//
// Vertices are dense integer identifiers 0..N-1 stored as int32 (the paper's
// regime is n up to millions of vertices; 32-bit ids halve memory traffic on
// the hot paths). Edges are undirected and stored once, in canonical (U <= V)
// order for general graphs; bipartite graphs keep (left, right) order.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// ID is a vertex identifier in [0, N).
type ID = int32

// Edge is an undirected edge. General graphs store it with U <= V.
type Edge struct {
	U, V ID
}

// Canon returns the edge with endpoints in non-decreasing order.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Other returns the endpoint of e that is not v. Panics if v is not an
// endpoint of e.
func (e Edge) Other(v ID) ID {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", v, e))
}

// Graph is an undirected graph on vertices 0..N-1 given as an edge list.
// The edge list is the natural representation for this paper: random
// k-partitioning, coreset messages and MapReduce shuffles all operate on
// edge sets.
type Graph struct {
	N     int
	Edges []Edge
}

// New returns a graph with n vertices and the given edges. The edges are
// canonicalized in place.
func New(n int, edges []Edge) *Graph {
	for i := range edges {
		edges[i] = edges[i].Canon()
	}
	return &Graph{N: n, Edges: edges}
}

// M returns the number of edges.
func (g *Graph) M() int { return len(g.Edges) }

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	e := make([]Edge, len(g.Edges))
	copy(e, g.Edges)
	return &Graph{N: g.N, Edges: e}
}

// Validate checks structural invariants: endpoints in range, no self-loops,
// and canonical edge order. It does not reject parallel edges (the grouped
// vertex-cover protocol of Remark 5.8 works on multigraphs; the paper's
// Theorem 2 explicitly supports them).
func (g *Graph) Validate() error {
	if g.N < 0 {
		return fmt.Errorf("graph: negative vertex count %d", g.N)
	}
	for i, e := range g.Edges {
		if e.U < 0 || int(e.U) >= g.N || e.V < 0 || int(e.V) >= g.N {
			return fmt.Errorf("graph: edge %d = %v out of range [0,%d)", i, e, g.N)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d = %v is a self-loop", i, e)
		}
		if e.U > e.V {
			return fmt.Errorf("graph: edge %d = %v not canonical", i, e)
		}
	}
	return nil
}

// DedupEdges canonicalizes, sorts and removes duplicate edges. The input
// slice is modified and the (possibly shorter) deduplicated slice returned.
func DedupEdges(edges []Edge) []Edge {
	for i := range edges {
		edges[i] = edges[i].Canon()
	}
	SortEdges(edges)
	out := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			out = append(out, e)
		}
	}
	return out
}

// SortEdges sorts edges lexicographically by (U, V), endpoints as stored.
func SortEdges(edges []Edge) {
	slices.SortFunc(edges, func(a, b Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
}

// EdgesSorted reports whether edges are in the order SortEdges leaves them
// in. It is a plain scan, a nanosecond an edge: what a caller that usually
// holds sorted edges pays to find that out.
func EdgesSorted(edges []Edge) bool {
	for i := 1; i < len(edges); i++ {
		if a, b := edges[i-1], edges[i]; a.U > b.U || a.U == b.U && a.V > b.V {
			return false
		}
	}
	return true
}

// UnionEdges concatenates several edge sets into a fresh slice. It does NOT
// deduplicate: composing coresets is a multiset union in the paper's model
// (and dedup would distort communication accounting).
func UnionEdges(sets ...[]Edge) []Edge {
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	out := make([]Edge, 0, total)
	for _, s := range sets {
		out = append(out, s...)
	}
	return out
}

// Degrees returns the degree of every vertex under the given edge multiset.
func Degrees(n int, edges []Edge) []int32 {
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	return deg
}

// MaxDegree returns the maximum degree (0 for an empty graph).
func MaxDegree(n int, edges []Edge) int {
	max := int32(0)
	for _, d := range Degrees(n, edges) {
		if d > max {
			max = d
		}
	}
	return int(max)
}
