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
// at the end is the residual, sorted by (U, V) with each edge oriented as it
// arrived.
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
