package partition

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

func randEdges(r *rng.RNG, n, m int) []graph.Edge {
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		u, v := graph.ID(r.Intn(n)), graph.ID(r.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v}.Canon())
	}
	return edges
}

func TestRandomKIsPartition(t *testing.T) {
	r := rng.New(1)
	f := func(kRaw uint8, mRaw uint16) bool {
		k := int(kRaw%16) + 1
		m := int(mRaw % 500)
		edges := randEdges(r, 100, m)
		parts := RandomK(edges, k, r)
		return len(parts) == k && Verify(edges, parts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomKDeterministicGivenSeed(t *testing.T) {
	edges := randEdges(rng.New(3), 50, 200)
	p1 := RandomK(edges, 4, rng.New(7))
	p2 := RandomK(edges, 4, rng.New(7))
	for i := range p1 {
		if len(p1[i]) != len(p2[i]) {
			t.Fatal("same seed produced different partitions")
		}
		for j := range p1[i] {
			if p1[i][j] != p2[i][j] {
				t.Fatal("same seed produced different partitions")
			}
		}
	}
}

func TestRandomKBalance(t *testing.T) {
	// With m = 20000 and k = 10, each part has mean 2000 and stddev ~42;
	// all parts should fall well within 6 sigma.
	r := rng.New(11)
	edges := randEdges(r, 500, 20000)
	parts := RandomK(edges, 10, r)
	min, max, mean := LoadStats(parts)
	if mean != 2000 {
		t.Fatalf("mean = %v, want 2000", mean)
	}
	sigma := math.Sqrt(20000 * 0.1 * 0.9)
	if float64(min) < mean-6*sigma || float64(max) > mean+6*sigma {
		t.Fatalf("unbalanced: min=%d max=%d mean=%v sigma=%v", min, max, mean, sigma)
	}
}

func TestRandomKUniformMachineChoice(t *testing.T) {
	// A single fixed edge must land on each of k machines equally often.
	const k, trials = 5, 20000
	counts := make([]int, k)
	r := rng.New(13)
	edge := []graph.Edge{{U: 0, V: 1}}
	for i := 0; i < trials; i++ {
		parts := RandomK(edge, k, r)
		for j, p := range parts {
			if len(p) == 1 {
				counts[j]++
			}
		}
	}
	want := float64(trials) / k
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("machine %d got the edge %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestAssignmentAndByAssignment(t *testing.T) {
	r := rng.New(17)
	edges := randEdges(r, 60, 300)
	assign := make([]int, len(edges))
	for i := range assign {
		assign[i] = r.Intn(7)
	}
	parts := ByAssignment(edges, 7, assign)
	if !Verify(edges, parts) {
		t.Fatal("ByAssignment does not partition")
	}
	// Edge i must be in part assign[i].
	idx := 0
	seen := make([]int, 7)
	for _, a := range assign {
		_ = a
		idx++
	}
	_ = idx
	for i, p := range parts {
		seen[i] = len(p)
	}
	wantCounts := make([]int, 7)
	for _, a := range assign {
		wantCounts[a]++
	}
	for i := range seen {
		if seen[i] != wantCounts[i] {
			t.Fatalf("part %d has %d edges, want %d", i, seen[i], wantCounts[i])
		}
	}
}

func TestAdversarialChunksPartition(t *testing.T) {
	r := rng.New(19)
	edges := randEdges(r, 40, 113)
	parts := AdversarialChunks(edges, 8)
	if !Verify(edges, parts) {
		t.Fatal("chunks is not a partition")
	}
}

func TestAdversarialByVertexGroupsNeighborhoods(t *testing.T) {
	// Star around vertex 0: all edges must land on the same machine.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}}
	parts := AdversarialByVertex(edges, 4)
	if !Verify(edges, parts) {
		t.Fatal("by-vertex is not a partition")
	}
	nonEmpty := 0
	for _, p := range parts {
		if len(p) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("star neighborhood split across %d machines, want 1", nonEmpty)
	}
}

func TestVerifyRejectsBadPartitions(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	// Missing edge.
	if Verify(edges, [][]graph.Edge{{{U: 0, V: 1}}}) {
		t.Fatal("accepted partition missing an edge")
	}
	// Duplicated edge.
	if Verify(edges, [][]graph.Edge{{{U: 0, V: 1}}, {{U: 0, V: 1}}}) {
		t.Fatal("accepted partition with duplicate")
	}
	// Foreign edge.
	if Verify(edges, [][]graph.Edge{{{U: 0, V: 1}}, {{U: 2, V: 3}}}) {
		t.Fatal("accepted partition with foreign edge")
	}
}

func TestByNameAndStrategies(t *testing.T) {
	r := rng.New(23)
	edges := randEdges(r, 30, 90)
	for _, s := range []string{StrategyRandom, StrategyChunks, StrategyByVertex} {
		parts := ByName(s, edges, 3, r)
		if !Verify(edges, parts) {
			t.Errorf("strategy %q does not partition", s)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown strategy did not panic")
		}
	}()
	ByName("nope", edges, 3, r)
}

func TestPanicsOnBadK(t *testing.T) {
	for _, f := range []func(){
		func() { RandomK(nil, 0, rng.New(1)) },
		func() { AdversarialChunks(nil, 0) },
		func() { AdversarialByVertex(nil, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on k <= 0")
				}
			}()
			f()
		}()
	}
}

func TestClaim33Concentration(t *testing.T) {
	// Claim 3.3: |M*_{<i}| <= ((i-1+o(i))/k) * |M*| w.h.p. Check that the
	// number of matching edges in the first i-1 parts concentrates around
	// (i-1)/k of the matching.
	r := rng.New(29)
	const k, mm = 10, 5000
	matching := make([]graph.Edge, mm)
	for i := range matching {
		matching[i] = graph.Edge{U: graph.ID(2 * i), V: graph.ID(2*i + 1)}
	}
	parts := RandomK(matching, k, r) // every part holds matching edges only
	prefix := 0
	for i := 1; i <= k; i++ {
		want := float64(i-1) / k * mm
		sigma := math.Sqrt(mm * float64(i-1) / k * (1 - float64(i-1)/k))
		if sigma > 0 && math.Abs(float64(prefix)-want) > 6*sigma {
			t.Errorf("|M*_<%d| = %d, want ~%.0f (sigma %.1f)", i, prefix, want, sigma)
		}
		prefix += len(parts[i-1])
	}
}
