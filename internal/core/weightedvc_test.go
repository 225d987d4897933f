package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/vcover"
)

func randVertexWeights(r *rng.RNG, n int, maxW float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 + r.Float64()*(maxW-1)
	}
	return w
}

func TestWeightedVCCoresetFeasibility(t *testing.T) {
	r := rng.New(1)
	g := gen.GNP(400, 0.04, r)
	vw := randVertexWeights(r, g.N, 64)
	const k = 4
	parts := partition.RandomK(g.Edges, k, r)
	coresets := make([]*WeightedVCCoreset, k)
	for i, p := range parts {
		coresets[i] = ComputeWeightedVCCoreset(g.N, k, 1.0, p, vw)
	}
	cover := ComposeWeightedVC(g.N, coresets)
	if err := vcover.Verify(g.N, g.Edges, cover); err != nil {
		t.Fatalf("weighted cover infeasible: %v", err)
	}
}

func TestWeightedVCCoresetQuality(t *testing.T) {
	// End-to-end weight must stay within a modest factor of the
	// centralized local-ratio 2-approximation.
	r := rng.New(3)
	g := gen.GNP(600, 0.03, r)
	vw := randVertexWeights(r, g.N, 32)
	const k = 4
	parts := partition.RandomK(g.Edges, k, r)
	coresets := make([]*WeightedVCCoreset, k)
	for i, p := range parts {
		coresets[i] = ComputeWeightedVCCoreset(g.N, k, 0.5, p, vw)
	}
	cover := ComposeWeightedVC(g.N, coresets)
	if err := vcover.Verify(g.N, g.Edges, cover); err != nil {
		t.Fatal(err)
	}
	distributed := vcover.CoverWeight(cover, vw)
	central := vcover.CoverWeight(vcover.WeightedLocalRatio(g.N, g.Edges, vw), vw)
	if central <= 0 {
		t.Skip("degenerate instance")
	}
	loss := distributed / central
	t.Logf("weighted VC: distributed %.1f, central 2-approx %.1f, loss %.2f", distributed, central, loss)
	// Paper: O(log n) loss; assert a loose constant well below log2(600)^2.
	if loss > 12 {
		t.Fatalf("weighted VC loss %.2f too large", loss)
	}
}

func TestWeightedVCClassAssignment(t *testing.T) {
	// Edge goes to the class of its heavier endpoint.
	vw := []float64{1, 10, 1}
	part := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}}
	cs := ComputeWeightedVCCoreset(3, 1, 1.0, part, vw)
	// Class of 10 under base 2: floor(log2 10) = 3; class of 1: 0.
	if _, ok := cs.Classes[3]; !ok {
		t.Fatalf("heavy edge class missing: %v", cs.Classes)
	}
	if _, ok := cs.Classes[0]; !ok {
		t.Fatalf("light edge class missing: %v", cs.Classes)
	}
}

func TestWeightedVCCoresetPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"eps":     func() { ComputeWeightedVCCoreset(2, 1, 0, nil, []float64{1, 1}) },
		"weights": func() { ComputeWeightedVCCoreset(2, 1, 1, nil, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestWeightedVCCheapHubHeavyLeaves(t *testing.T) {
	// A cheap hub with expensive leaves: the distributed weighted cover
	// should strongly prefer the hub. All hub edges share one class (the
	// leaf weights dominate), where peeling/2-approx finds the hub.
	n := 101
	edges := make([]graph.Edge, 0, 100)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: graph.ID(v)})
	}
	vw := make([]float64, n)
	vw[0] = 1
	for v := 1; v < n; v++ {
		vw[v] = 100
	}
	r := rng.New(7)
	const k = 4
	parts := partition.RandomK(edges, k, r)
	coresets := make([]*WeightedVCCoreset, k)
	for i, p := range parts {
		coresets[i] = ComputeWeightedVCCoreset(n, k, 1.0, p, vw)
	}
	cover := ComposeWeightedVC(n, coresets)
	if err := vcover.Verify(n, edges, cover); err != nil {
		t.Fatal(err)
	}
	w := vcover.CoverWeight(cover, vw)
	// OPT = 1 (hub). The unweighted per-class machinery may still pick a
	// few leaves from the 2-approx step, but must not collapse to
	// hundreds of heavy leaves.
	if w > 1000 {
		t.Fatalf("weighted cover cost %v on hub instance (opt 1)", w)
	}
}
