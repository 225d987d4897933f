package matching

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// oddCycle is C_n on vertices off..off+n-1.
func oddCycle(off, n int) []graph.Edge {
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: graph.ID(off + i), V: graph.ID(off + (i+1)%n)})
	}
	return edges
}

// flower is a stem path 0-1-...-stem whose last vertex is shared by petals
// odd cycles of length cycle each.
func flower(stem, petals, cycle int) (int, []graph.Edge) {
	var edges []graph.Edge
	for i := 0; i < stem; i++ {
		edges = append(edges, graph.Edge{U: graph.ID(i), V: graph.ID(i + 1)})
	}
	n := stem + 1
	for k := 0; k < petals; k++ {
		prev := graph.ID(stem)
		for i := 1; i < cycle; i++ {
			edges = append(edges, graph.Edge{U: prev, V: graph.ID(n)})
			prev = graph.ID(n)
			n++
		}
		edges = append(edges, graph.Edge{U: prev, V: graph.ID(stem)})
	}
	return n, edges
}

// nestedBlossom is a 5-cycle whose vertices are triangles, triangle i
// joined to triangle i+1, with a one-edge stem on triangle 0 so that the
// outer blossom has an exposed vertex to grow from.
func nestedBlossom() (int, []graph.Edge) {
	var edges []graph.Edge
	for i := 0; i < 5; i++ {
		edges = append(edges, oddCycle(3*i, 3)...)
		edges = append(edges, graph.Edge{U: graph.ID(3*i + 1), V: graph.ID(3 * ((i + 1) % 5))})
	}
	return 16, append(edges, graph.Edge{U: 0, V: 15})
}

type namedGraph struct {
	name string
	*graph.Graph
}

// blossomFamilies are the named graphs whose odd cycles make Edmonds
// contract: odd cycles, odd cliques, flowers and nested blossoms.
func blossomFamilies() []namedGraph {
	var fams []namedGraph
	for r := 1; r <= 5; r++ {
		fams = append(fams,
			namedGraph{fmt.Sprintf("C%d", 2*r+1), &graph.Graph{N: 2*r + 1, Edges: oddCycle(0, 2*r+1)}},
			namedGraph{fmt.Sprintf("K%d", 2*r+1), gen.GNP(2*r+1, 1, rng.New(1))})
	}
	for _, f := range [][3]int{{1, 2, 3}, {2, 3, 3}, {3, 2, 5}, {0, 3, 5}} {
		n, edges := flower(f[0], f[1], f[2])
		fams = append(fams, namedGraph{fmt.Sprintf("flower-stem%d-%dxC%d", f[0], f[1], f[2]), &graph.Graph{N: n, Edges: edges}})
	}
	n, edges := nestedBlossom()
	return append(fams, namedGraph{"nested-C5-of-C3", &graph.Graph{N: n, Edges: edges}})
}

// relabel maps g through a random vertex permutation and shuffles its edge
// order, which changes both the greedy start and the root order.
func relabel(g *graph.Graph, r *rng.RNG) []graph.Edge {
	perm := make([]graph.ID, g.N)
	for i := range perm {
		perm[i] = graph.ID(i)
	}
	r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	edges := make([]graph.Edge, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = graph.Edge{U: perm[e.U], V: perm[e.V]}
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

func checkAgainstReference(t testing.TB, name string, n int, edges []graph.Edge) {
	t.Helper()
	adj := graph.BuildAdj(n, edges)
	got, want := blossom(adj, nil, edges), blossomReference(adj, edges)
	if !slices.Equal(got.Mate, want.Mate) || got.Size() != want.Size() {
		t.Fatalf("%s (n=%d m=%d): Mate differs from the reference: size %d, want %d",
			name, n, len(edges), got.Size(), want.Size())
	}
}

// TestBlossomMatchesReference: blossom returns the reference's Mate array
// bit for bit on random graphs, on the named blossom families under random
// relabelings, and on the shapes the benchmark's matchers see.
func TestBlossomMatchesReference(t *testing.T) {
	r := rng.New(33)
	for trial := 0; trial < 3000; trial++ {
		n := r.Intn(297) + 4
		deg := 0.5 + r.Float64()*39.5
		g := gen.GNP(n, min(1, deg/float64(n-1)), r)
		checkAgainstReference(t, fmt.Sprintf("trial %d", trial), n, g.Edges)
	}
	for _, g := range blossomFamilies() {
		checkAgainstReference(t, g.name, g.N, g.Edges)
		for i := 0; i < 20; i++ {
			checkAgainstReference(t, fmt.Sprintf("%s relabel %d", g.name, i), g.N, relabel(g.Graph, r))
		}
	}
	// The per-shard and composed unions of gnp_matching_stream, and a
	// stand-in for the EDCS union dataset_edcs_stream composes.
	for _, shape := range []struct {
		n   int
		deg float64
	}{{16384, 1}, {16384, 2}, {32768, 30}} {
		g := gen.GNP(shape.n, shape.deg/float64(shape.n-1), r)
		checkAgainstReference(t, fmt.Sprintf("bench shape n=%d deg=%g", shape.n, shape.deg), shape.n, g.Edges)
	}
}

// FuzzBlossomMatchesReference decodes bytes into a graph on at most 20
// vertices (first byte: n; then one byte pair per edge, self-loops and
// repeats allowed) and checks blossom against the reference, Verify and
// the brute-force maximum.
func FuzzBlossomMatchesReference(f *testing.F) {
	for _, g := range blossomFamilies() {
		if g.N > 20 {
			continue
		}
		seed := []byte{byte(g.N - 1)}
		for _, e := range g.Edges {
			seed = append(seed, byte(e.U), byte(e.V))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%20 + 1
		var edges []graph.Edge
		for i := 1; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{U: graph.ID(int(data[i]) % n), V: graph.ID(int(data[i+1]) % n)})
		}
		checkAgainstReference(t, "fuzz", n, edges)
		m := Blossom(n, edges)
		if err := Verify(n, edges, m); err != nil {
			t.Fatal(err)
		}
		if want := BruteForceSize(n, edges); m.Size() != want {
			t.Fatalf("Blossom = %d, brute = %d (n=%d edges=%v)", m.Size(), want, n, edges)
		}
	})
}
