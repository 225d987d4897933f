package task

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// refPeel is VC-Coreset read off its definition, sharing no code with the
// peeler: for each threshold in turn, every vertex's degree in the surviving
// multigraph is recounted from scratch into a map (a parallel edge once per
// copy, a self-loop twice), every vertex at or above the threshold is fixed
// in ascending order, and the edges a fixed vertex covers leave. What is left
// at the end is the residual, each edge canonical (U <= V) and sorted by
// (U, V).
func refPeel(thresholds []int, edges []graph.Edge) *core.VCCoreset {
	left := append([]graph.Edge{}, edges...)
	out := &core.VCCoreset{}
	for _, thr := range thresholds {
		deg := make(map[graph.ID]int)
		for _, e := range left {
			deg[e.U]++
			deg[e.V]++
		}
		var level []graph.ID
		for v, d := range deg {
			if d >= thr {
				level = append(level, v)
			}
		}
		sort.Slice(level, func(i, j int) bool { return level[i] < level[j] })
		fixed := make(map[graph.ID]bool)
		for _, v := range level {
			fixed[v] = true
		}
		rest := []graph.Edge{}
		for _, e := range left {
			if !fixed[e.U] && !fixed[e.V] {
				rest = append(rest, e)
			}
		}
		left = rest
		out.Levels = append(out.Levels, level)
		out.Fixed = append(out.Fixed, level...)
	}
	for i, e := range left {
		left[i] = e.Canon()
	}
	sort.SliceStable(left, func(i, j int) bool {
		return left[i].U < left[j].U || left[i].U == left[j].U && left[i].V < left[j].V
	})
	out.Residual = left
	return out
}

// refThresholds lists the level thresholds ceil(n/(k*2^(j+1))), j = 1 ..
// Delta-1, with Delta the least integer such that n/(k*2^Delta) <= 4*log2(n).
func refThresholds(n, k int) []int {
	if n < 2 {
		return nil
	}
	var out []int
	for j := 1; float64(n)/float64(k*(1<<j)) > 4*math.Log2(float64(n)); j++ {
		out = append(out, (n+k*(2<<j)-1)/(k*(2<<j)))
	}
	return out
}

// shape summarizes a coreset for a failure message.
func shape(cs *core.VCCoreset) string {
	sizes := make([]int, len(cs.Levels))
	for i, level := range cs.Levels {
		sizes[i] = len(level)
	}
	return fmt.Sprintf("level sizes %v, %d fixed, %d residual", sizes, len(cs.Fixed), len(cs.Residual))
}

// feed runs edges through a fresh vc builder declared nHint vertices.
func feed(k, nHint, n int, edges []graph.Edge) (*vcBuilder, Summary) {
	b := newVCBuilder(k, nHint)
	for _, e := range edges {
		b.Add(e)
	}
	return b, b.Finish(n)
}

// checkAgainstOracle holds every entry point of the peel to the definition
// on one shard: the batch ComputeVCCoreset (which must also leave its input
// untouched), the builder with n declared, and the builder without.
func checkAgainstOracle(t *testing.T, name string, n, k int, edges []graph.Edge) {
	t.Helper()
	want := refPeel(refThresholds(n, k), edges)
	before := slices.Clone(edges)
	if got := core.ComputeVCCoreset(n, k, edges); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ComputeVCCoreset diverges from the definition:\n got %s\nwant %s", name, shape(got), shape(want))
	}
	if !slices.Equal(edges, before) {
		t.Fatalf("%s: ComputeVCCoreset wrote to its input", name)
	}
	for _, nHint := range []int{n, 0} {
		if _, s := feed(k, nHint, n, edges); !reflect.DeepEqual(s.VC, want) {
			t.Fatalf("%s: builder (nHint %d) diverges from the definition:\n got %s\nwant %s", name, nHint, shape(s.VC), shape(want))
		}
	}
}

func TestVCPeelMatchesDefinition(t *testing.T) {
	hub := func(n, hubs, hubDeg, noise int, seed uint64) []graph.Edge {
		return gen.HubNoise(n, hubs, hubDeg, noise, rng.New(seed))
	}
	// Endpoint order is arrival's too: nothing may assume U <= V.
	flipped := hub(400, 3, 200, 1200, 3)
	for i := range flipped {
		if i%2 == 1 {
			flipped[i].U, flipped[i].V = flipped[i].V, flipped[i].U
		}
	}
	for _, c := range []struct {
		name  string
		n, k  int
		edges []graph.Edge
	}{
		{"empty shard", 500, 2, nil},
		{"one vertex", 1, 1, []graph.Edge{{U: 0, V: 0}}},
		{"k = 1", 300, 1, hub(300, 2, 150, 900, 1)},
		{"depth 1: no level runs", 10, 3, hub(10, 1, 10, 30, 2)},
		{"unsorted arrival, either endpoint order", 400, 2, flipped},
		{"every edge on a level-1 vertex", 600, 2, hub(600, 3, 400, 0, 4)},
		{"only loops and copies of one edge", 64, 1, []graph.Edge{{U: 7, V: 7}, {U: 1, V: 2}, {U: 1, V: 2}, {U: 7, V: 7}, {U: 1, V: 2}}},
	} {
		checkAgainstOracle(t, c.name, c.n, c.k, c.edges)
	}

	// Random small multigraphs, from edgeless to dense enough that several
	// levels fix vertices.
	r := rng.New(99)
	for i := 0; i < 300; i++ {
		n, k := 2+r.Intn(250), 1+r.Intn(5)
		edges := hub(n, r.Intn(4), r.Intn(n), r.Intn(6*n), uint64(i))
		checkAgainstOracle(t, fmt.Sprintf("random %d (n=%d k=%d m=%d)", i, n, k, len(edges)), n, k, edges)
	}
}

// The vc message sends each residual endpoint as its rank among the vertices
// the levels did not fix, which is only defined because no residual edge
// touches a fixed vertex. Hold both peels to that — the batch one, and the
// streaming builder whose level 1 is decided online as edges arrive — on
// inputs built to break it: hubs at random IDs, arrival out of order,
// endpoints either way round, self-loops and parallel copies.
func TestVCResidualAvoidsFixed(t *testing.T) {
	r := rng.New(17)
	both, online := 0, 0
	for i := 0; i < 300; i++ {
		n, k := 2+r.Intn(300), 1+r.Intn(4)
		edges := gen.HubNoise(n, r.Intn(min(n, 5)), r.Intn(2*n), r.Intn(8*n), r.Split(uint64(i)))
		perm := r.Perm(n)
		for j := range edges {
			u, v := graph.ID(perm[edges[j].U]), graph.ID(perm[edges[j].V])
			if r.Intn(2) == 0 {
				u, v = v, u
			}
			edges[j] = graph.Edge{U: u, V: v}
		}
		r.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
		check := func(who string, cs *core.VCCoreset) {
			fixed := make(map[graph.ID]bool)
			for _, v := range cs.Fixed {
				fixed[v] = true
			}
			for _, e := range cs.Residual {
				if fixed[e.U] || fixed[e.V] {
					t.Fatalf("case %d (n=%d k=%d m=%d), %s: residual edge %v touches a fixed vertex (%s)", i, n, k, len(edges), who, e, shape(cs))
				}
			}
			if len(cs.Fixed) > 0 && len(cs.Residual) > 0 {
				both++
			}
		}
		check("ComputeVCCoreset", core.ComputeVCCoreset(n, k, edges))
		// The builder's Finish sizes its message, so a residual edge on a
		// fixed vertex would already have panicked there, naming it.
		_, s := feed(k, n, n, edges)
		check("builder", s.VC)
		if s.Live > 0 && len(s.VC.Residual) > 0 {
			online++ // level 1 fired while the shard arrived, and edges survived it
		}
	}
	if both < 100 || online < 50 {
		t.Fatalf("only %d of 600 peels left both fixed vertices and a residual, %d of 300 builders with an online level 1", both, online)
	}
}

// A source that declared fewer vertices than it delivered takes the builder's
// grow path: the tables extend to the ids seen, level 1 keeps the threshold
// the declaration fixed, and the later levels use the final count.
func TestVCBuilderGrowsPastHint(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		n, nHint, k := 400, 250, 2
		edges := gen.HubNoise(n, 3, 150, 1500, rng.New(seed))
		b, s := feed(k, nHint, n, edges)
		if len(b.deg) <= nHint || b.threshold == 0 {
			t.Fatalf("seed %d: tables hold %d vertices (threshold %d); the input never left the declared %d", seed, len(b.deg), b.threshold, nHint)
		}
		thresholds := refThresholds(n, k)
		thresholds[0] = b.threshold
		if want := refPeel(thresholds, edges); !reflect.DeepEqual(s.VC, want) {
			t.Fatalf("seed %d: grown builder diverges from the definition:\n got %s\nwant %s", seed, shape(s.VC), shape(want))
		}
		if s.Live == 0 {
			t.Fatalf("seed %d: no vertex peeled online", seed)
		}
	}
}

// vcFuzzInput packs a shard for FuzzVCPeel: a byte choosing n, one for k,
// one for the short hint, then one (U, V) byte pair per edge.
func vcFuzzInput(nSel, k, hint byte, edges ...graph.Edge) []byte {
	out := []byte{nSel, k - 1, hint}
	for _, e := range edges {
		out = append(out, byte(e.U), byte(e.V))
	}
	return out
}

// star returns copies of the star from hub to its leaves, each edge
// repeated copies times.
func star(hub graph.ID, leaves []graph.ID, copies int) []graph.Edge {
	var out []graph.Edge
	for _, w := range leaves {
		for range copies {
			out = append(out, graph.Edge{U: hub, V: w})
		}
	}
	return out
}

// ids returns lo, lo+1, ..., hi-1.
func ids(lo, hi graph.ID) []graph.ID {
	var out []graph.ID
	for v := lo; v < hi; v++ {
		out = append(out, v)
	}
	return out
}

// FuzzVCPeel holds every entry point of the peel to the definition (refPeel)
// on fuzzed shards with self-loops, parallel copies and out-of-order arrival:
// the batch ComputeVCCoreset, the builder with n declared, the builder
// without n, and the builder declared fewer vertices than arrive (the grow
// path, whose level 1 keeps the declared threshold). Every vertex id is below
// 64. n is at most 64 or one of 128..1024: n <= 64 leaves at most one level,
// and the larger counts give the two to four levels that exercise the skip of
// a level whose threshold is above every degree left alive.
func FuzzVCPeel(f *testing.F) {
	// n = 64, k = 1: level 1 at 16, met exactly by vertex 0.
	f.Add(vcFuzzInput(62, 1, 10, star(0, ids(1, 17), 1)...))
	// n = 256, k = 1: levels at 64 and 32. Nobody reaches 64, vertex 5 has
	// exactly 32 (sixteen leaves, two copies each), so level 2 must scan.
	f.Add(vcFuzzInput(0xc1, 1, 100, append(star(5, ids(20, 36), 2), graph.Edge{U: 40, V: 40}, graph.Edge{U: 1, V: 2})...))
	// The same with one edge fewer: 31 < 32, both levels empty.
	f.Add(vcFuzzInput(0xc1, 1, 100, star(5, ids(20, 36), 2)[1:]...))
	// n = 512, k = 1: levels at 128, 64 and 32, arriving in reverse. Vertex 9
	// (64 copies of the edge to 10, one to 3) and vertex 10 (exactly 64) are
	// fixed at level 2; vertex 3 keeps exactly 32 edges and is fixed at
	// level 3.
	hub := append(star(9, []graph.ID{10}, 64), star(3, ids(40, 56), 2)...)
	hub = append(hub, graph.Edge{U: 3, V: 9}, graph.Edge{U: 7, V: 7}, graph.Edge{U: 2, V: 1})
	slices.Reverse(hub)
	f.Add(vcFuzzInput(0xc2, 1, 200, hub...))
	// n = 1024, k = 2: levels at 128, 64 and 32; a self-loop counts twice.
	f.Add(vcFuzzInput(0xc3, 2, 0, star(4, []graph.ID{4}, 16)...))
	f.Add(vcFuzzInput(30, 3, 7, graph.Edge{U: 3, V: 1}, graph.Edge{U: 1, V: 3}, graph.Edge{U: 1, V: 3}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0])%63 + 2
		if data[0] >= 0xc0 {
			n = 128 << (data[0] & 3)
		}
		k := int(data[1])%8 + 1
		nHint := int(data[2])%(n-1) + 1
		ids := min(n, 64)
		var edges []graph.Edge
		for i := 3; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{U: graph.ID(int(data[i]) % ids), V: graph.ID(int(data[i+1]) % ids)})
		}
		name := fmt.Sprintf("n=%d k=%d hint=%d m=%d", n, k, nHint, len(edges))
		thresholds := refThresholds(n, k)
		want := refPeel(thresholds, edges)
		checkAgainstOracle(t, name, n, k, edges)
		level1 := 0
		if len(want.Levels) > 0 {
			level1 = len(want.Levels[0])
		}
		if _, s := feed(k, n, n, edges); s.Live != level1 {
			t.Fatalf("%s: builder reports %d vertices peeled online, level 1 has %d", name, s.Live, level1)
		}
		if _, s := feed(k, 0, n, edges); s.Live != 0 {
			t.Fatalf("%s: builder without n reports %d vertices peeled online", name, s.Live)
		}
		// The grow path: level 1 at the declared count's threshold, if that
		// count leaves a level to run at all, and the later levels at n's.
		// Otherwise nothing is peeled online and the answer is n's.
		b, s := feed(k, nHint, n, edges)
		level1 = 0
		if b.threshold > 0 {
			thresholds = slices.Clone(thresholds)
			thresholds[0] = b.threshold
			want = refPeel(thresholds, edges)
			level1 = len(want.Levels[0])
		}
		if !reflect.DeepEqual(s.VC, want) {
			t.Fatalf("%s: builder declared %d vertices diverges from the definition:\n got %s\nwant %s", name, nHint, shape(s.VC), shape(want))
		}
		if s.Live != level1 {
			t.Fatalf("%s: builder declared %d vertices reports %d peeled online, level 1 has %d", name, nHint, s.Live, level1)
		}
	})
}
