package core

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/vcover"
)

// Edge-case and property tests: the coresets and combiners must stay
// correct (valid matchings, feasible covers) under degenerate inputs —
// empty partitions, single vertices, duplicate edges — and under random
// parameters drawn by testing/quick. The whole pipelines' degenerate inputs
// are in pipeline_test.go.

func TestComposeWithDuplicateCoresetEdges(t *testing.T) {
	// The same edge may appear in several coresets (it exists in only one
	// partition, but compose must tolerate duplicates in general input).
	coresets := [][]graph.Edge{
		{{U: 0, V: 1}, {U: 2, V: 3}},
		{{U: 0, V: 1}},
	}
	m := ComposeMatching(4, coresets)
	if m.Size() != 2 {
		t.Fatalf("size = %d", m.Size())
	}
	g := GreedyMatchCombine(4, coresets)
	if g.Size() != 2 {
		t.Fatalf("greedy size = %d", g.Size())
	}
}

func TestVCCoresetFeasibilityProperty(t *testing.T) {
	// Property: for random (n, p, k), the composed cover is feasible and
	// the union of residuals plus fixed sets covers G.
	r := rng.New(5)
	f := func(nRaw, kRaw, pRaw uint8) bool {
		n := int(nRaw%100) + 10
		k := int(kRaw%8) + 1
		p := float64(pRaw%64) / 255
		g := gen.GNP(n, p, r)
		parts := partition.RandomK(g.Edges, k, r)
		coresets := make([]*VCCoreset, k)
		for i, part := range parts {
			coresets[i] = ComputeVCCoreset(n, k, part)
		}
		cover := ComposeVC(n, coresets)
		return vcover.Verify(n, g.Edges, cover) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchingCoresetComposeProperty(t *testing.T) {
	// Property: composition always yields a valid matching no smaller than
	// any single machine's coreset matching.
	r := rng.New(7)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%120) + 10
		k := int(kRaw%6) + 1
		g := gen.GNP(n, 6/float64(n), r)
		parts := partition.RandomK(g.Edges, k, r)
		coresets := make([][]graph.Edge, k)
		best := 0
		for i, part := range parts {
			coresets[i] = MatchingCoreset(n, part)
			if len(coresets[i]) > best {
				best = len(coresets[i])
			}
		}
		m := ComposeMatching(n, coresets)
		if matching.Verify(n, g.Edges, m) != nil {
			return false
		}
		return m.Size() >= best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupedVCWholeGraphOneGroup(t *testing.T) {
	// Degenerate grouping: one group containing everything. Every edge is
	// a self-loop; the cover is the whole vertex set but still feasible.
	g := graph.New(6, []graph.Edge{{U: 0, V: 1}, {U: 4, V: 5}})
	cs := GroupedVCCoreset(g.N, 1, 6, g.Edges)
	cover := ComposeGroupedVC(g.N, 6, []*VCCoreset{cs})
	if err := vcover.Verify(g.N, g.Edges, cover); err != nil {
		t.Fatal(err)
	}
}

func TestSubsampledCoresetNeverInvalid(t *testing.T) {
	r := rng.New(9)
	f := func(alphaRaw uint8) bool {
		alpha := int(alphaRaw%16) + 1
		g := gen.GNP(80, 0.1, r)
		cs := SubsampledMatchingCoreset(g.N, g.Edges, alpha, r)
		// Must be a sub-matching: FromEdges panics on conflicts.
		defer func() { recover() }()
		matching.FromEdges(g.N, cs)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedCoresetEmptyPartition(t *testing.T) {
	cs := ComputeWeightedCoreset(10, nil, 1.0)
	if WeightedCoresetEdges(cs) != 0 {
		t.Fatal("empty partition should give empty weighted coreset")
	}
	out := ComposeWeightedMatching(10, []*WeightedCoreset{cs})
	if len(out) != 0 {
		t.Fatal("composition of empty coresets should be empty")
	}
}

func TestAdversarialMaximalCoresetNoHidden(t *testing.T) {
	// With no hidden edges the adversary degenerates to a maximal matching.
	r := rng.New(11)
	g := gen.GNP(60, 0.1, r)
	cs := AdversarialMaximalCoreset(g.N, g.Edges, func(graph.Edge) bool { return false })
	m := matching.FromEdges(g.N, cs)
	if !matching.IsMaximal(g.Edges, m) {
		t.Fatal("not maximal")
	}
}

func TestMinVCCoresetEmptyPartition(t *testing.T) {
	cs := MinVCCoreset(5, nil)
	if len(cs.Fixed) != 0 || len(cs.Residual) != 0 {
		t.Fatal("empty partition should give empty min-VC coreset")
	}
}

func TestVCCoresetParallelEdgesMultigraph(t *testing.T) {
	// Theorem 2 explicitly supports multigraphs (Remark 5.8 relies on it):
	// parallel edges must not break peeling or composition.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 2}}
	cs := ComputeVCCoreset(3, 1, edges)
	cover := ComposeVC(3, []*VCCoreset{cs})
	if err := vcover.Verify(3, edges, cover); err != nil {
		t.Fatal(err)
	}
}

func TestPeelingLevelsAreDisjoint(t *testing.T) {
	r := rng.New(13)
	g := gen.GNP(512, 0.2, r) // dense, forces several levels
	cs := ComputeVCCoreset(g.N, 2, g.Edges)
	seen := map[graph.ID]bool{}
	for _, level := range cs.Levels {
		for _, v := range level {
			if seen[v] {
				t.Fatalf("vertex %d peeled twice", v)
			}
			seen[v] = true
		}
	}
	// Fixed = union of levels.
	if len(seen) != len(cs.Fixed) {
		t.Fatalf("fixed %d != union of levels %d", len(cs.Fixed), len(seen))
	}
}

func TestResidualDisjointFromFixed(t *testing.T) {
	r := rng.New(17)
	g := gen.GNP(512, 0.15, r)
	cs := ComputeVCCoreset(g.N, 2, g.Edges)
	fixed := map[graph.ID]bool{}
	for _, v := range cs.Fixed {
		fixed[v] = true
	}
	for _, e := range cs.Residual {
		if fixed[e.U] || fixed[e.V] {
			t.Fatalf("residual edge %v touches a peeled vertex", e)
		}
	}
}
