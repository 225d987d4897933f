// Package gen generates the synthetic workloads used throughout the
// experiment suite: Erdos-Renyi and bipartite random graphs (via geometric
// skip-sampling, O(n + m) time), random regular-ish bipartite graphs,
// power-law (Chung-Lu) graphs, structured families (stars, grids, paths),
// and the paper's hard distributions D_Matching (Section 4.1/5.1) and D_VC
// (Section 4.2/5.3) together with the greedy-trap instance showing that an
// arbitrary maximal matching is an Omega(k)-approximate coreset.
package gen

import (
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// GNP samples an Erdos-Renyi graph G(n, p): each of the n(n-1)/2 possible
// edges appears independently with probability p. It collects GNPIter, so
// the cost is O(n + m), not O(n^2). Panics on invalid parameters.
func GNP(n int, p float64, r *rng.RNG) *graph.Graph {
	return &graph.Graph{N: n, Edges: Collect(GNPIter(n, p, r))}
}

// BipartiteGNP samples a random bipartite graph: each of the nl*nr pairs is
// an edge independently with probability p, via skip-sampling.
func BipartiteGNP(nl, nr int, p float64, r *rng.RNG) *graph.Bipartite {
	if nl < 0 || nr < 0 || p < 0 || p > 1 {
		panic("gen: BipartiteGNP with invalid parameters")
	}
	b := graph.NewBipartite(nl, nr, nil)
	if nl == 0 || nr == 0 || p == 0 {
		return b
	}
	total := int64(nl) * int64(nr)
	logq := math.Log1p(-p)
	cur := int64(-1)
	for {
		if p >= 1 {
			cur++
		} else {
			cur += int64(r.GeometricLog(logq)) + 1
		}
		if cur >= total {
			break
		}
		b.Edges = append(b.Edges, graph.Edge{
			U: graph.ID(cur / int64(nr)),
			V: graph.ID(cur % int64(nr)),
		})
	}
	return b
}

// RandomBipartiteRegular returns an (approximately) d-regular bipartite
// graph on n+n vertices built as the union of d uniformly random perfect
// matchings with duplicate edges removed. Every vertex has degree <= d and
// degree d in the absence of collisions (collisions are rare for d << n).
func RandomBipartiteRegular(n, d int, r *rng.RNG) *graph.Bipartite {
	if d < 0 || d > n {
		panic("gen: RandomBipartiteRegular with invalid degree")
	}
	seen := make(map[graph.Edge]struct{}, n*d)
	edges := make([]graph.Edge, 0, n*d)
	for j := 0; j < d; j++ {
		perm := r.Perm32(n)
		for i := 0; i < n; i++ {
			e := graph.Edge{U: graph.ID(i), V: perm[i]}
			if _, dup := seen[e]; !dup {
				seen[e] = struct{}{}
				edges = append(edges, e)
			}
		}
	}
	return graph.NewBipartite(n, n, edges)
}

// Star returns a star K_{1,n-1} with center 0, collected from StarIter. The
// paper uses the star to show that a minimum vertex cover is NOT a
// composable coreset (Section 3.2). Panics if n < 1.
func Star(n int) *graph.Graph {
	return &graph.Graph{N: n, Edges: Collect(StarIter(n))}
}

// StarForest returns a disjoint union of `count` stars with `leaves` leaves
// each. Centers are vertices 0..count-1; vertex count is count*(leaves+1).
func StarForest(count, leaves int) *graph.Graph {
	if count < 0 || leaves < 0 {
		panic("gen: StarForest with negative parameters")
	}
	n := count * (leaves + 1)
	edges := make([]graph.Edge, 0, count*leaves)
	for c := 0; c < count; c++ {
		center := graph.ID(c)
		for j := 0; j < leaves; j++ {
			leaf := graph.ID(count + c*leaves + j)
			edges = append(edges, graph.Edge{U: center, V: leaf}.Canon())
		}
	}
	return &graph.Graph{N: n, Edges: edges}
}

// Path returns the path graph on n vertices.
func Path(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, graph.Edge{U: graph.ID(v), V: graph.ID(v + 1)})
	}
	return &graph.Graph{N: n, Edges: edges}
}

// Cycle returns the cycle graph on n >= 3 vertices.
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic("gen: Cycle with n < 3")
	}
	g := Path(n)
	g.Edges = append(g.Edges, graph.Edge{U: 0, V: graph.ID(n - 1)})
	return g
}

// Grid returns the rows x cols grid graph (4-neighborhood). Grids are
// bipartite with perfect or near-perfect matchings and serve as a structured
// sanity workload.
func Grid(rows, cols int) *graph.Graph {
	if rows < 0 || cols < 0 {
		panic("gen: Grid with negative dimensions")
	}
	n := rows * cols
	id := func(r, c int) graph.ID { return graph.ID(r*cols + c) }
	var edges []graph.Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c)})
			}
		}
	}
	return &graph.Graph{N: n, Edges: edges}
}

// ChungLu samples a power-law graph: vertex v gets weight w_v drawn from a
// bounded Zipf with the given exponent and cap, and each pair (u, v) is an
// edge with probability min(1, w_u*w_v/W) where W is the total weight. It
// collects PowerlawIter, in O(n + m) expected time. Panics on invalid
// parameters.
func ChungLu(n int, exponent float64, maxWeight int, r *rng.RNG) *graph.Graph {
	return &graph.Graph{N: n, Edges: Collect(PowerlawIter(n, exponent, maxWeight, r))}
}

// WeightedGNP samples G(n, p) and assigns each edge an independent weight
// uniform on [1, maxW).
func WeightedGNP(n int, p float64, maxW float64, r *rng.RNG) *graph.WGraph {
	g := GNP(n, p, r)
	out := &graph.WGraph{N: n, Edges: make([]graph.WEdge, len(g.Edges))}
	for i, e := range g.Edges {
		out.Edges[i] = graph.WEdge{U: e.U, V: e.V, W: 1 + r.Float64()*(maxW-1)}
	}
	return out
}

// WeightedChungLu samples a power-law graph with exponential edge weights
// (mean meanW), a heavy-tailed workload shaped like the advertising /
// recommendation applications that motivate weighted matching.
func WeightedChungLu(n int, exponent float64, maxWeight int, meanW float64, r *rng.RNG) *graph.WGraph {
	g := ChungLu(n, exponent, maxWeight, r)
	out := &graph.WGraph{N: n, Edges: make([]graph.WEdge, len(g.Edges))}
	for i, e := range g.Edges {
		out.Edges[i] = graph.WEdge{U: e.U, V: e.V, W: r.Exp(1/meanW) + 1e-9}
	}
	return out
}
