package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/vcover"
)

func TestAdversarialMaximalCoresetIsMaximalMatching(t *testing.T) {
	// Whatever the adversary does, the output must still be a maximal
	// matching of the partition — that is what makes the Ω(k) result fair.
	r := rng.New(3)
	inst := gen.GreedyTrap(60, 6, r)
	g := inst.B.ToGraph()
	hidden := make(map[graph.Edge]bool)
	for i, h := range inst.IsHidden {
		if h {
			hidden[g.Edges[i].Canon()] = true
		}
	}
	parts := partition.RandomK(g.Edges, 6, r)
	for i, p := range parts {
		cs := AdversarialMaximalCoreset(g.N, p, func(e graph.Edge) bool { return hidden[e.Canon()] })
		m := matching.FromEdges(g.N, cs)
		if err := matching.Verify(g.N, p, m); err != nil {
			t.Fatalf("machine %d: invalid: %v", i, err)
		}
		if !matching.IsMaximal(p, m) {
			t.Fatalf("machine %d: adversarial matching not maximal", i)
		}
	}
}

// TestGreedyTrapSeparation reproduces the Section 1.2 separation: on the
// greedy-trap instance, the union of adversarial maximal matchings loses a
// factor that grows with k, while maximum-matching coresets (Theorem 1)
// stay constant-factor on the same partition.
func TestGreedyTrapSeparation(t *testing.T) {
	r := rng.New(5)
	const n, k = 4000, 8
	inst := gen.GreedyTrap(n, k, r)
	g := inst.B.ToGraph()
	hidden := make(map[graph.Edge]bool)
	for i, h := range inst.IsHidden {
		if h {
			hidden[g.Edges[i].Canon()] = true
		}
	}
	isHidden := func(e graph.Edge) bool { return hidden[e.Canon()] }
	parts := partition.RandomK(g.Edges, k, r.Split(1))

	badCoresets := make([][]graph.Edge, k)
	goodCoresets := make([][]graph.Edge, k)
	for i, p := range parts {
		badCoresets[i] = AdversarialMaximalCoreset(g.N, p, isHidden)
		goodCoresets[i] = MatchingCoreset(g.N, p)
	}
	opt := n // the planted perfect matching on P x Q has size n
	bad := ComposeMatching(g.N, badCoresets).Size()
	good := ComposeMatching(g.N, goodCoresets).Size()
	badRatio := float64(opt) / float64(bad)
	goodRatio := float64(opt) / float64(good)
	t.Logf("k=%d: adversarial-maximal ratio %.2f, maximum-matching ratio %.2f", k, badRatio, goodRatio)
	if badRatio < float64(k)/3 {
		t.Errorf("adversarial maximal coreset ratio %.2f, want >= k/3 = %.2f", badRatio, float64(k)/3)
	}
	if goodRatio > 3 {
		t.Errorf("maximum matching coreset ratio %.2f, want <= 3", goodRatio)
	}
}

func TestMinVCCoresetLocallyMinimumOnSingleEdge(t *testing.T) {
	// One edge: the reported cover must have size 1, and the adversarial
	// tie-break must pick the non-center (higher-degree-in-G is unknown to
	// the machine; our rule swaps to the neighbor).
	cs := MinVCCoreset(5, []graph.Edge{{U: 0, V: 3}})
	if len(cs.Fixed) != 1 {
		t.Fatalf("local cover size %d, want 1", len(cs.Fixed))
	}
	if len(cs.Residual) != 0 {
		t.Fatal("min-VC baseline should send no edges")
	}
}

// TestStarSeparation reproduces the Section 3.2 counterexample: on a star
// with Θ(k) leaves, min-VC-as-coreset composes to Ω(k) vertices while the
// paper's VC-Coreset composes to O(log n)-competitive size.
func TestStarSeparation(t *testing.T) {
	r := rng.New(7)
	const k = 16
	star := gen.Star(2*k + 1) // 2k edges over k machines: ~2 edges each
	parts := partition.RandomK(star.Edges, k, r)

	var badCoresets, goodCoresets []*VCCoreset
	for _, p := range parts {
		badCoresets = append(badCoresets, MinVCCoreset(star.N, p))
		goodCoresets = append(goodCoresets, ComputeVCCoreset(star.N, k, p))
	}
	bad := ComposeVC(star.N, badCoresets)
	good := ComposeVC(star.N, goodCoresets)
	if err := vcover.Verify(star.N, star.Edges, bad); err != nil {
		t.Fatalf("bad cover infeasible: %v", err)
	}
	if err := vcover.Verify(star.N, star.Edges, good); err != nil {
		t.Fatalf("good cover infeasible: %v", err)
	}
	t.Logf("star: min-VC coreset size %d, VC-Coreset size %d, opt 1", len(bad), len(good))
	// The bad baseline accumulates leaves: expect Ω(k). Machines seeing a
	// single edge (a constant fraction, ~2e^-2 of them here) pick a leaf,
	// so assert a conservative k/4.
	if len(bad) < k/4 {
		t.Errorf("min-VC coreset produced %d vertices; expected >= k/4 = %d", len(bad), k/4)
	}
	// The paper's coreset sends residual edges, so the coordinator can fix
	// the star with a small cover.
	if len(good) > 4 {
		t.Errorf("VC-Coreset cover %d on star, want small", len(good))
	}
}

func TestWeightClassOf(t *testing.T) {
	if c := WeightClassOf(1.0, 1.0); c != 0 {
		t.Fatalf("class of 1.0 = %d", c)
	}
	if c := WeightClassOf(2.0, 1.0); c != 1 {
		t.Fatalf("class of 2.0 = %d", c)
	}
	if c := WeightClassOf(7.9, 1.0); c != 2 {
		t.Fatalf("class of 7.9 = %d", c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive weight accepted")
		}
	}()
	WeightClassOf(0, 1.0)
}

func TestSplitWeightClasses(t *testing.T) {
	edges := []graph.WEdge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 3}, {U: 2, V: 3, W: 3.5}}
	classes := SplitWeightClasses(edges, 1.0)
	if len(classes[0]) != 1 || len(classes[1]) != 2 {
		t.Fatalf("classes = %v", classes)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("eps <= 0 accepted")
		}
	}()
	SplitWeightClasses(edges, 0)
}

func TestWeightedPipelineValidity(t *testing.T) {
	r := rng.New(11)
	wg := gen.WeightedGNP(200, 0.05, 64, r)
	// Partition weighted edges by index.
	const k = 4
	assign := make([]int, len(wg.Edges))
	for i := range assign {
		assign[i] = r.Intn(k)
	}
	parts := make([][]graph.WEdge, k)
	for i, e := range wg.Edges {
		parts[assign[i]] = append(parts[assign[i]], e)
	}
	coresets := make([]*WeightedCoreset, k)
	for i, p := range parts {
		coresets[i] = ComputeWeightedCoreset(wg.N, p, 1.0)
		if WeightedCoresetEdges(coresets[i]) == 0 && len(p) > 0 {
			t.Fatalf("machine %d produced empty coreset from %d edges", i, len(p))
		}
	}
	result := ComposeWeightedMatching(wg.N, coresets)
	// Result must be a matching made of original edges.
	seen := matching.NewEmpty(wg.N)
	valid := make(map[graph.Edge]bool, len(wg.Edges))
	for _, e := range wg.Edges {
		valid[e.Unweighted().Canon()] = true
	}
	for _, we := range result {
		if !valid[we.Unweighted().Canon()] {
			t.Fatalf("edge %v not in graph", we)
		}
		if !seen.Add(we.Unweighted().Canon()) {
			t.Fatalf("edge %v conflicts", we)
		}
	}
}

// TestWeightedApproximation checks the Crouch-Stubbs composition stays
// within a constant factor of the centralized greedy (1/2-approx) weight.
func TestWeightedApproximation(t *testing.T) {
	r := rng.New(13)
	wg := gen.WeightedChungLu(800, 2.0, 60, 5.0, r)
	const k = 4
	parts := make([][]graph.WEdge, k)
	for _, e := range wg.Edges {
		i := r.Intn(k)
		parts[i] = append(parts[i], e)
	}
	coresets := make([]*WeightedCoreset, k)
	for i, p := range parts {
		coresets[i] = ComputeWeightedCoreset(wg.N, p, 0.5)
	}
	distributed := graph.TotalWeight(ComposeWeightedMatching(wg.N, coresets))
	central := graph.TotalWeight(GreedyWeightedMatching(wg.N, wg.Edges))
	if central <= 0 {
		t.Skip("degenerate weights")
	}
	ratio := central / distributed
	t.Logf("weighted: central greedy %.1f, distributed %.1f, ratio %.2f", central, distributed, ratio)
	// Paper: factor 2 loss on top of the O(1) unweighted loss. Assert a
	// loose constant.
	if ratio > 6 {
		t.Errorf("weighted ratio %.2f too large", ratio)
	}
}

func TestGreedyWeightedMatchingIsMatching(t *testing.T) {
	r := rng.New(17)
	wg := gen.WeightedGNP(100, 0.1, 16, r)
	out := GreedyWeightedMatching(wg.N, wg.Edges)
	seen := matching.NewEmpty(wg.N)
	for _, we := range out {
		if !seen.Add(we.Unweighted().Canon()) {
			t.Fatalf("greedy weighted output not a matching at %v", we)
		}
	}
	// Greedy by weight must take the single heaviest edge.
	heaviest := wg.Edges[0]
	for _, e := range wg.Edges {
		if e.W > heaviest.W {
			heaviest = e
		}
	}
	found := false
	for _, e := range out {
		if e.Unweighted().Canon() == heaviest.Unweighted().Canon() {
			found = true
		}
	}
	if !found {
		t.Fatal("greedy weighted matching missed the heaviest edge")
	}
}
