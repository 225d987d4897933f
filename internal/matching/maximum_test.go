package matching

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// splitParts cuts edges into consecutive pieces of random lengths, empty
// ones included, the way a chunked store or k coresets hand them over.
func splitParts(edges []graph.Edge, r *rng.RNG) [][]graph.Edge {
	parts := [][]graph.Edge{}
	for len(edges) > 0 {
		k := r.Intn(len(edges) + 1)
		parts = append(parts, edges[:k])
		edges = edges[k:]
	}
	return parts
}

// checkMaximum demands that Maximum over parts return maximumReference's
// Mate array bit for bit on the concatenated edges, and that BuildAdj over
// the parts equal the cursor-table CSR of the concatenation. It reports
// whether the graph was bipartite, so a test can show it covered both
// matchers.
func checkMaximum(t testing.TB, name string, n int, parts [][]graph.Edge) bool {
	t.Helper()
	edges := slices.Concat(parts...)
	adj, ref := graph.BuildAdj(n, parts...), buildAdjReference(n, edges)
	if !slices.Equal(adj.Off, ref.Off) || !slices.Equal(adj.Nbr, ref.Nbr) {
		t.Fatalf("%s (n=%d m=%d): BuildAdj differs from the reference CSR", name, n, len(edges))
	}
	got, want := Maximum(n, parts...), maximumReference(n, edges)
	if !slices.Equal(got.Mate, want.Mate) || got.Size() != want.Size() {
		t.Fatalf("%s (n=%d m=%d, %d parts): Mate differs from the reference: size %d, want %d",
			name, n, len(edges), len(parts), got.Size(), want.Size())
	}
	_, bip := ref.IsBipartiteWithSides(nil)
	return bip
}

// withMultiEdges appends copies of some edges (parallel edges) and, when
// loops is set, a few self-loops.
func withMultiEdges(edges []graph.Edge, n int, loops bool, r *rng.RNG) []graph.Edge {
	out := slices.Clone(edges)
	for i := 0; i < len(edges)/4; i++ {
		out = append(out, edges[r.Intn(len(edges))])
	}
	for i := 0; loops && i < 3; i++ {
		v := graph.ID(r.Intn(n))
		out = append(out, graph.Edge{U: v, V: v})
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestMaximumMatchesReference: Maximum, reading its edges in pieces, returns
// maximumReference's Mate array bit for bit on general, bipartite and empty
// graphs, with isolated vertices, parallel edges and self-loops, and
// HopcroftKarp returns hopcroftKarpReference's matchL, matchR and size.
func TestMaximumMatchesReference(t *testing.T) {
	r := rng.New(46)
	bipartite, general := 0, 0
	count := func(bip bool) {
		if bip {
			bipartite++
		} else {
			general++
		}
	}
	for trial := 0; trial < 1500; trial++ {
		// General: G(n,p) plus isolated vertices past its largest ID.
		n := r.Intn(200) + 2
		g := gen.GNP(n, min(1, (0.3+r.Float64()*8)/float64(n-1)), r)
		edges := g.Edges
		if len(edges) > 0 && trial%2 == 0 {
			edges = withMultiEdges(edges, n, trial%4 == 0, r)
		}
		count(checkMaximum(t, fmt.Sprintf("general trial %d", trial), n+r.Intn(4), splitParts(edges, r)))

		// Bipartite: a random bipartite graph, its sides interleaved by a
		// random relabelling, parallel edges on every other trial.
		b := randBipartite(r, r.Intn(60)+1, r.Intn(60)+1, r.Float64()*0.15)
		wantL, wantR, wantSize := hopcroftKarpReference(b)
		gotL, gotR, gotSize := HopcroftKarp(b)
		if !slices.Equal(gotL, wantL) || !slices.Equal(gotR, wantR) || gotSize != wantSize {
			t.Fatalf("bipartite trial %d: HopcroftKarp differs from the reference: size %d, want %d", trial, gotSize, wantSize)
		}
		edges = relabel(b.ToGraph(), r)
		if len(edges) > 0 && trial%2 == 1 {
			edges = withMultiEdges(edges, b.N(), false, r)
		}
		count(checkMaximum(t, fmt.Sprintf("bipartite trial %d", trial), b.N(), splitParts(edges, r)))
	}
	for _, g := range blossomFamilies() {
		count(checkMaximum(t, g.name, g.N, splitParts(relabel(g.Graph, r), r)))
	}
	// Empty graphs: no vertices, no edges, only self-loops.
	count(checkMaximum(t, "no vertices", 0, nil))
	count(checkMaximum(t, "no edges", 7, [][]graph.Edge{{}, nil}))
	count(checkMaximum(t, "self-loops only", 3, [][]graph.Edge{{{U: 1, V: 1}}, {{U: 2, V: 2}, {U: 1, V: 1}}}))
	// A gnp_matching_stream machine's shard and its composed union.
	for _, deg := range []float64{1, 4.4} {
		g := gen.GNP(16384, deg/16383, r)
		count(checkMaximum(t, fmt.Sprintf("bench shape deg=%g", deg), g.N, splitParts(g.Edges, r)))
	}
	if bipartite < 1000 || general < 1000 {
		t.Fatalf("covered %d bipartite and %d general graphs, want 1000 of each", bipartite, general)
	}
}

// FuzzMaximumMatchesReference decodes bytes into a graph on at most 20
// vertices (first byte: n; second: the part length in its low three bits,
// and in bit 3 whether every edge runs from an even to an odd vertex, which
// makes the graph bipartite; then one byte pair per edge, self-loops and
// repeats allowed), cuts it into parts of that length, and checks Maximum
// against the reference, Verify and the brute-force maximum.
func FuzzMaximumMatchesReference(f *testing.F) {
	for _, g := range blossomFamilies() {
		if g.N > 20 {
			continue
		}
		seed := []byte{byte(g.N - 1), 3}
		for _, e := range g.Edges {
			seed = append(seed, byte(e.U), byte(e.V))
		}
		f.Add(seed)
		seed[1] |= 8
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0])%20 + 1
		size, bip := int(data[1]&7)+1, data[1]&8 != 0
		var edges []graph.Edge
		for i := 2; i+1 < len(data); i += 2 {
			u, v := graph.ID(int(data[i])%n), graph.ID(int(data[i+1])%n)
			if bip {
				if u, v = u&^1, v|1; int(v) >= n {
					continue
				}
			}
			edges = append(edges, graph.Edge{U: u, V: v})
		}
		var parts [][]graph.Edge
		for rest := edges; len(rest) > 0; rest = rest[min(size, len(rest)):] {
			parts = append(parts, rest[:min(size, len(rest))])
		}
		if gotBip := checkMaximum(t, "fuzz", n, parts); bip && !gotBip {
			t.Fatalf("even-odd graph not found bipartite: n=%d edges=%v", n, edges)
		}
		m := Maximum(n, parts...)
		if err := Verify(n, edges, m); err != nil {
			t.Fatal(err)
		}
		if want := BruteForceSize(n, edges); m.Size() != want {
			t.Fatalf("Maximum = %d, brute = %d (n=%d edges=%v)", m.Size(), want, n, edges)
		}
	})
}

// shardShapes are the graphs one gnp_matching_stream machine matches: about
// 8 200 G(n,p) edges over 16 384 vertices. About a third of such shards are
// bipartite and go to Hopcroft-Karp; the seeds pick one of each kind.
func shardShapes(tb testing.TB) []namedGraph {
	var shapes []namedGraph
	for _, s := range []struct {
		name string
		seed uint64
		bip  bool
	}{{"bipartite shard", 1, true}, {"general shard", 7, false}} {
		g := gen.GNP(16384, 1.0/16383, rng.New(s.seed))
		if _, ok := graph.BuildAdj(g.N, g.Edges).IsBipartiteWithSides(nil); ok != s.bip {
			tb.Fatalf("%s: bipartite = %v", s.name, ok)
		}
		shapes = append(shapes, namedGraph{s.name, g})
	}
	return shapes
}

// TestMaximumAllocationBudget pins what one Maximum call allocates on a
// machine's shard: the adjacency, the coloring and its stack, the returned
// mate array and the matcher's own n-sized tables, each rounded up to whole
// 8 KiB pages as the allocator rounds an object over 32 KiB (the n-byte
// tables are a size class of their own at n = 16 384). The slack covers a
// few small objects and is far below one more table, so a copy of the
// edges, of the answer or of any table fails here.
func TestMaximumAllocationBudget(t *testing.T) {
	page := func(bytes int) uint64 { return uint64(bytes+8191) &^ 8191 }
	const slack = 4 << 10
	for _, g := range shardShapes(t) {
		n, m := g.N, len(g.Edges)
		_, bip := graph.BuildAdj(n, g.Edges).IsBipartiteWithSides(nil)
		budget := page(4*(n+1)) + page(8*m) + // Off, Nbr
			uint64(n) + page(4*n) + // side, the coloring's stack and matcher's queue
			page(4*n) + // the returned mate array
			2*page(4*n) // dist and iter, or blossom's p and up
		if !bip {
			budget += 2 * uint64(n) // blossom's used and usedLCA
		}
		parts := splitParts(g.Edges, rng.New(3))
		got := uint64(1 << 62)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			Maximum(n, parts...)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if got > budget+slack {
			t.Errorf("%s (n=%d m=%d): Maximum allocates %d B, budget %d + %d B", g.name, n, m, got, budget, slack)
		}
	}
}

func BenchmarkMaximum(b *testing.B) {
	for _, g := range shardShapes(b) {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Maximum(g.N, g.Edges)
			}
		})
	}
}
