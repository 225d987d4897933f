// Package matching implements the matching substrate: greedy maximal
// matching, Hopcroft-Karp maximum bipartite matching, Edmonds' blossom
// algorithm for maximum matching in general graphs, a brute-force reference
// for small instances, and verification helpers.
//
// The paper's matching coreset (Theorem 1) is "any maximum matching of
// G(i)"; it is algorithm-agnostic, so the package exposes Maximum, which
// dispatches to Hopcroft-Karp when the input is 2-colorable and to the
// blossom algorithm otherwise.
package matching

import (
	"fmt"

	"repro/internal/graph"
)

// Matching is a set of vertex-disjoint edges over vertices 0..n-1,
// represented by the mate array: Mate[v] is v's partner or -1.
type Matching struct {
	Mate []graph.ID
	size int
}

// NewEmpty returns an empty matching over n vertices.
func NewEmpty(n int) *Matching {
	m := &Matching{Mate: make([]graph.ID, n)}
	for i := range m.Mate {
		m.Mate[i] = -1
	}
	return m
}

// FromEdges builds a matching from vertex-disjoint edges. Panics if the
// edges are not vertex-disjoint or out of range.
func FromEdges(n int, edges []graph.Edge) *Matching {
	m := NewEmpty(n)
	for _, e := range edges {
		if !m.Add(e) {
			panic(fmt.Sprintf("matching: edges not vertex-disjoint at %v", e))
		}
	}
	return m
}

// Size returns the number of matched edges.
func (m *Matching) Size() int { return m.size }

// Covers reports whether v is matched.
func (m *Matching) Covers(v graph.ID) bool { return m.Mate[v] != -1 }

// Add inserts edge e if both endpoints are free; reports whether it did.
func (m *Matching) Add(e graph.Edge) bool {
	if e.U == e.V || m.Mate[e.U] != -1 || m.Mate[e.V] != -1 {
		return false
	}
	m.Mate[e.U] = e.V
	m.Mate[e.V] = e.U
	m.size++
	return true
}

// Edges returns the matched edges in canonical order of their lower
// endpoint.
func (m *Matching) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, m.size)
	for v, w := range m.Mate {
		if w != -1 && graph.ID(v) < w {
			out = append(out, graph.Edge{U: graph.ID(v), V: w})
		}
	}
	return out
}

// Clone returns an independent copy.
func (m *Matching) Clone() *Matching {
	c := &Matching{Mate: append([]graph.ID(nil), m.Mate...), size: m.size}
	return c
}

// AugmentGreedily adds to m every edge from the list whose endpoints are
// both currently free, in the given order, and returns the number added.
// This is the inner step of the paper's GreedyMatch combiner (Section 3.1).
func (m *Matching) AugmentGreedily(edges []graph.Edge) int {
	added := 0
	for _, e := range edges {
		if m.Add(e) {
			added++
		}
	}
	return added
}

// MaximalGreedy computes a maximal matching by scanning the edges in input
// order. A maximal matching is a 2-approximation to the maximum matching;
// the paper shows (and experiment E3 reproduces) that despite this global
// guarantee it is only an Ω(k)-approximate *coreset*.
func MaximalGreedy(n int, edges []graph.Edge) *Matching {
	m := NewEmpty(n)
	for _, e := range edges {
		m.Add(e)
	}
	return m
}

// Verify checks that m is a valid matching over (n, edges): the mate
// relation is symmetric, every matched pair is an edge of the graph, and
// the size field agrees. Returns nil on success.
func Verify(n int, edges []graph.Edge, m *Matching) error {
	if len(m.Mate) != n {
		return fmt.Errorf("matching: mate array has length %d, want %d", len(m.Mate), n)
	}
	have := make(map[graph.Edge]bool, len(edges))
	for _, e := range edges {
		have[e.Canon()] = true
	}
	count := 0
	for v := 0; v < n; v++ {
		w := m.Mate[v]
		if w == -1 {
			continue
		}
		if w < 0 || int(w) >= n {
			return fmt.Errorf("matching: mate[%d] = %d out of range", v, w)
		}
		if m.Mate[w] != graph.ID(v) {
			return fmt.Errorf("matching: mate relation not symmetric at %d<->%d", v, w)
		}
		if graph.ID(v) < w {
			if !have[(graph.Edge{U: graph.ID(v), V: w}).Canon()] {
				return fmt.Errorf("matching: pair (%d,%d) is not a graph edge", v, w)
			}
			count++
		}
	}
	if count != m.size {
		return fmt.Errorf("matching: size field %d, actual %d", m.size, count)
	}
	return nil
}

// IsMaximal reports whether no edge can be added to m.
func IsMaximal(edges []graph.Edge, m *Matching) bool {
	for _, e := range edges {
		if e.U != e.V && m.Mate[e.U] == -1 && m.Mate[e.V] == -1 {
			return false
		}
	}
	return true
}

// Maximum computes a maximum matching of the graph. If the graph is
// bipartite (checked by 2-coloring) it runs Hopcroft-Karp in
// O(m*sqrt(n)); otherwise it runs Edmonds' blossom algorithm.
func Maximum(n int, edges []graph.Edge) *Matching {
	adj := graph.BuildAdj(n, edges)
	if side, ok := adj.IsBipartiteWithSides(); ok {
		b, left, right := graph.FromGraphSides(n, edges, side)
		matchL, _, _ := HopcroftKarp(b)
		m := NewEmpty(n)
		for l, r := range matchL {
			if r != -1 {
				m.Add(graph.Edge{U: left[l], V: right[r]}.Canon())
			}
		}
		return m
	}
	return blossom(adj, edges)
}
