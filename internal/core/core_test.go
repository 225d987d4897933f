package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/vcover"
)

func TestMatchingCoresetIsMaximumMatching(t *testing.T) {
	r := rng.New(1)
	g := gen.GNP(200, 0.05, r)
	cs := MatchingCoreset(g.N, g.Edges)
	m := matching.FromEdges(g.N, cs) // must be vertex-disjoint
	want := matching.Maximum(g.N, g.Edges).Size()
	if m.Size() != want {
		t.Fatalf("coreset size %d, maximum matching %d", m.Size(), want)
	}
}

func TestComposeMatchingValidAndAtLeastGreedy(t *testing.T) {
	r := rng.New(3)
	g := gen.GNP(300, 0.03, r)
	parts := partition.RandomK(g.Edges, 5, r)
	coresets := make([][]graph.Edge, len(parts))
	for i, p := range parts {
		coresets[i] = MatchingCoreset(g.N, p)
	}
	composed := ComposeMatching(g.N, coresets)
	if err := matching.Verify(g.N, g.Edges, composed); err != nil {
		t.Fatalf("composed matching invalid: %v", err)
	}
	greedy := GreedyMatchCombine(g.N, coresets)
	if err := matching.Verify(g.N, g.Edges, greedy); err != nil {
		t.Fatalf("greedy combined matching invalid: %v", err)
	}
	if composed.Size() < greedy.Size() {
		t.Fatalf("exact composition %d smaller than greedy %d", composed.Size(), greedy.Size())
	}
}

// TestTheorem1ApproximationGNP checks the paper's headline guarantee: the
// composed matching is a constant-factor approximation (the paper proves
// ratio <= 9; in practice it is far better — we assert a conservative 3).
func TestTheorem1ApproximationGNP(t *testing.T) {
	for _, k := range []int{2, 4, 8, 16} {
		r := rng.New(uint64(100 + k))
		g := gen.GNP(600, 0.02, r)
		opt := matching.Maximum(g.N, g.Edges).Size()
		got, _ := DistributedMatching(g, k, 0, uint64(k))
		if err := matching.Verify(g.N, g.Edges, got); err != nil {
			t.Fatal(err)
		}
		ratio := float64(opt) / float64(got.Size())
		if ratio > 3.0 {
			t.Errorf("k=%d: ratio %.2f exceeds 3 (opt=%d got=%d)", k, ratio, opt, got.Size())
		}
	}
}

func TestTheorem1OnHardDistribution(t *testing.T) {
	// Even on D_Matching (the lower-bound instance for SMALL coresets),
	// full maximum-matching coresets stay O(1)-approximate.
	r := rng.New(7)
	const n, alpha, k = 1000, 5, 8
	inst := gen.HardMatching(n, alpha, k, r)
	g := inst.B.ToGraph()
	opt := matching.Maximum(g.N, g.Edges).Size()
	got, _ := DistributedMatching(g, k, 0, 11)
	ratio := float64(opt) / float64(got.Size())
	if ratio > 3.0 {
		t.Errorf("ratio %.2f on D_Matching (opt=%d got=%d)", ratio, opt, got.Size())
	}
}

func TestGreedyMatchCombineLowerBound(t *testing.T) {
	// Lemma 3.1's engine: GreedyMatch yields a constant fraction of OPT.
	r := rng.New(9)
	g := gen.GNP(500, 0.02, r)
	parts := partition.RandomK(g.Edges, 6, r)
	coresets := make([][]graph.Edge, len(parts))
	for i, p := range parts {
		coresets[i] = MatchingCoreset(g.N, p)
	}
	greedy := GreedyMatchCombine(g.N, coresets)
	opt := matching.Maximum(g.N, g.Edges).Size()
	if float64(greedy.Size()) < float64(opt)/9 {
		t.Fatalf("GreedyMatch %d below opt/9 (opt=%d)", greedy.Size(), opt)
	}
}

func TestPeelingDepth(t *testing.T) {
	// Delta must be the SMALLEST integer with n/(k*2^Delta) <= 4*log2(n);
	// verify both the bound and minimality for a spread of (n, k).
	check := func(n, k int) {
		d := PeelingDepth(n, k)
		if n < 2 || k < 1 {
			if d != 1 {
				t.Errorf("PeelingDepth(%d,%d) = %d, want 1", n, k, d)
			}
			return
		}
		limit := 4 * math.Log2(float64(n))
		if float64(n)/(float64(k)*math.Pow(2, float64(d))) > limit {
			t.Errorf("PeelingDepth(%d,%d) = %d does not satisfy the bound", n, k, d)
		}
		if d > 1 && float64(n)/(float64(k)*math.Pow(2, float64(d-1))) <= limit {
			t.Errorf("PeelingDepth(%d,%d) = %d is not minimal", n, k, d)
		}
	}
	for _, tc := range []struct{ n, k int }{
		{1 << 16, 4}, {1 << 10, 1}, {100, 50}, {1, 1}, {1 << 20, 32}, {7, 7},
	} {
		check(tc.n, tc.k)
	}
}

func TestVCCoresetFeasibility(t *testing.T) {
	// The composed cover must cover EVERY edge of G.
	r := rng.New(11)
	g := gen.GNP(400, 0.05, r)
	const k = 4
	parts := partition.RandomK(g.Edges, k, r)
	coresets := make([]*VCCoreset, k)
	for i, p := range parts {
		coresets[i] = ComputeVCCoreset(g.N, k, p)
	}
	cover := ComposeVC(g.N, coresets)
	if err := vcover.Verify(g.N, g.Edges, cover); err != nil {
		t.Fatalf("composed cover infeasible: %v", err)
	}
	coverG := ComposeVCGreedy(g.N, coresets)
	if err := vcover.Verify(g.N, g.Edges, coverG); err != nil {
		t.Fatalf("greedy-composed cover infeasible: %v", err)
	}
}

func TestVCCoresetResidualSparse(t *testing.T) {
	// Theorem 2: the residual graph has O(n log n) edges. After peeling,
	// max degree is < ceil(n/(k*2^Delta)) <= 4 log2 n + 1, so edges <=
	// n * (4 log2 n + 1) / 1 — we assert the max-degree bound directly.
	r := rng.New(13)
	const n, k = 2048, 4
	g := gen.GNP(n, 0.1, r) // dense: forces real peeling
	parts := partition.RandomK(g.Edges, k, r)
	for i, p := range parts {
		cs := ComputeVCCoreset(n, k, p)
		maxDeg := graph.MaxDegree(n, cs.Residual)
		bound := int(float64(n)/(float64(k)*math.Pow(2, float64(PeelingDepth(n, k))))) + 1
		if maxDeg > bound {
			t.Errorf("machine %d: residual max degree %d > bound %d", i, maxDeg, bound)
		}
		if len(cs.Residual) > 8*n*int(1+math.Log2(float64(n))) {
			t.Errorf("machine %d: residual has %d edges, too many", i, len(cs.Residual))
		}
	}
}

// TestTheorem2ApproximationStars reproduces the O(log n) guarantee on a
// workload where VC(G) is known exactly: a star forest with `count` centers
// has VC = count.
func TestTheorem2ApproximationStars(t *testing.T) {
	r := rng.New(17)
	const count, leaves, k = 50, 40, 4
	g := gen.StarForest(count, leaves)
	// Shuffle edges so partitioning isn't structured.
	r.Shuffle(len(g.Edges), func(i, j int) { g.Edges[i], g.Edges[j] = g.Edges[j], g.Edges[i] })
	cover, _ := DistributedVertexCover(g, k, 0, 23)
	if err := vcover.Verify(g.N, g.Edges, cover); err != nil {
		t.Fatal(err)
	}
	opt := count // one center per star
	ratio := float64(len(cover)) / float64(opt)
	// O(log n) bound; for this instance log2(n) ~ 11, assert generously.
	if ratio > 4*math.Log2(float64(g.N)) {
		t.Errorf("cover ratio %.1f too large (cover=%d opt=%d)", ratio, len(cover), opt)
	}
}

func TestVCCoresetOnBipartiteAgainstKonig(t *testing.T) {
	// Exact OPT via Konig on a bipartite random graph; composed cover must
	// be within O(log n) of it.
	r := rng.New(19)
	b := gen.BipartiteGNP(300, 300, 0.02, r)
	opt := len(vcover.KonigCover(b))
	if opt == 0 {
		t.Skip("degenerate instance")
	}
	g := b.ToGraph()
	cover, _ := DistributedVertexCover(g, 4, 0, 29)
	if err := vcover.Verify(g.N, g.Edges, cover); err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(cover)) / float64(opt)
	if ratio > 3*math.Log2(float64(g.N)) {
		t.Errorf("ratio %.2f vs O(log n) (cover=%d opt=%d)", ratio, len(cover), opt)
	}
}

func TestVCCoresetEmptyAndTinyPartitions(t *testing.T) {
	cs := ComputeVCCoreset(100, 4, nil)
	if len(cs.Fixed) != 0 || len(cs.Residual) != 0 {
		t.Fatal("empty partition should give empty coreset")
	}
	cs2 := ComputeVCCoreset(100, 4, []graph.Edge{{U: 0, V: 1}})
	cover := ComposeVC(100, []*VCCoreset{cs2})
	if err := vcover.Verify(100, []graph.Edge{{U: 0, V: 1}}, cover); err != nil {
		t.Fatal(err)
	}
}

func TestVCCoresetSizeAccessors(t *testing.T) {
	cs := &VCCoreset{Fixed: []graph.ID{1, 2}, Residual: []graph.Edge{{U: 0, V: 1}}}
	if VCCoresetSize(cs) != 3 {
		t.Fatal("VCCoresetSize wrong")
	}
	if VCCoresetSizeBytes(cs) <= 0 {
		t.Fatal("VCCoresetSizeBytes wrong")
	}
}

// The VC coreset message round-trips what the peel produces, its size
// function is its length, and — since a receiver charges what it consumed —
// the decoder refuses a level count padded to a longer varint.
func TestVCCoresetMessage(t *testing.T) {
	g := gen.GNP(600, 40.0/600, rng.New(7))
	cs := ComputeVCCoreset(g.N, 2, g.Edges)
	if len(cs.Fixed) == 0 || len(cs.Residual) == 0 {
		t.Fatalf("the peel left %d fixed, %d residual; want both", len(cs.Fixed), len(cs.Residual))
	}
	wire := AppendVCCoreset(nil, cs)
	if VCCoresetSizeBytes(cs) != len(wire) {
		t.Fatalf("VCCoresetSizeBytes %d, message is %d bytes", VCCoresetSizeBytes(cs), len(wire))
	}
	got, rest, err := DecodeVCCoreset(append(wire[:len(wire):len(wire)], 0xEE))
	if err != nil || len(rest) != 1 || !reflect.DeepEqual(got, cs) {
		t.Fatalf("round trip: err %v, %d bytes left", err, len(rest))
	}
	padded := append([]byte{wire[0] | 0x80, 0x00}, wire[1:]...)
	if _, _, err := DecodeVCCoreset(padded); err == nil {
		t.Fatal("a padded level count was accepted")
	}
}

func TestSubsampledMatchingCoreset(t *testing.T) {
	r := rng.New(23)
	g := gen.GNP(400, 0.05, r)
	full := MatchingCoreset(g.N, g.Edges)
	sub := SubsampledMatchingCoreset(g.N, g.Edges, 4, r)
	// Subsampled coreset is a subset of a maximum matching: vertex-disjoint.
	matching.FromEdges(g.N, sub)
	if len(sub) >= len(full) {
		t.Fatalf("subsampling did not shrink: %d vs %d", len(sub), len(full))
	}
	// alpha=1 returns the full matching.
	whole := SubsampledMatchingCoreset(g.N, g.Edges, 1, r)
	if len(whole) != len(full) {
		t.Fatalf("alpha=1 size %d, want %d", len(whole), len(full))
	}
}

func TestSubsampledPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on alpha < 1")
		}
	}()
	SubsampledMatchingCoreset(10, nil, 0, rng.New(1))
}

func TestGroupedVCFeasibleAndBounded(t *testing.T) {
	r := rng.New(29)
	g := gen.GNP(512, 0.03, r)
	const k = 4
	for _, alpha := range []int{8, 16, 32} {
		gs := GroupSizeFor(g.N, alpha)
		parts := partition.RandomK(g.Edges, k, r)
		coresets := make([]*VCCoreset, k)
		for i, p := range parts {
			coresets[i] = GroupedVCCoreset(g.N, k, gs, p)
		}
		cover := ComposeGroupedVC(g.N, gs, coresets)
		if err := vcover.Verify(g.N, g.Edges, cover); err != nil {
			t.Fatalf("alpha=%d: grouped cover infeasible: %v", alpha, err)
		}
	}
}

func TestGroupedVCSelfLoopHandling(t *testing.T) {
	// Edge inside one group must force that group into the cover.
	edges := []graph.Edge{{U: 0, V: 1}} // group size 2 -> group 0 self-loop
	cs := GroupedVCCoreset(4, 1, 2, edges)
	found := false
	for _, v := range cs.Fixed {
		if v == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("self-loop group not fixed")
	}
	cover := ComposeGroupedVC(4, 2, []*VCCoreset{cs})
	if err := vcover.Verify(4, edges, cover); err != nil {
		t.Fatal(err)
	}
}

func TestGroupSizeFor(t *testing.T) {
	if GroupSizeFor(1, 100) != 1 {
		t.Fatal("tiny n should give group size 1")
	}
	if GroupSizeFor(1<<16, 4) != 1 {
		t.Fatal("alpha < log n should give group size 1")
	}
	if gs := GroupSizeFor(1<<16, 160); gs != 10 {
		t.Fatalf("GroupSizeFor(2^16, 160) = %d, want 10", gs)
	}
}

func TestMapPartsOrderAndParallel(t *testing.T) {
	parts := make([][]graph.Edge, 37)
	for i := range parts {
		parts[i] = []graph.Edge{{U: graph.ID(i), V: graph.ID(i + 1)}}
	}
	got := MapParts(parts, 8, func(i int, part []graph.Edge) int {
		return int(part[0].U)
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("result %d out of order: %d", i, v)
		}
	}
	// Serial path.
	got1 := MapParts(parts, 1, func(i int, part []graph.Edge) int { return i * 2 })
	for i, v := range got1 {
		if v != i*2 {
			t.Fatal("serial MapParts wrong")
		}
	}
	// Zero workers -> GOMAXPROCS default.
	got0 := MapParts(parts, 0, func(i int, part []graph.Edge) int { return i })
	if len(got0) != len(parts) {
		t.Fatal("MapParts(0) wrong length")
	}
}

func TestPipelineStatsAccounting(t *testing.T) {
	r := rng.New(31)
	g := gen.GNP(300, 0.05, r)
	m, st := DistributedMatching(g, 4, 2, 77)
	if m.Size() == 0 {
		t.Fatal("empty matching on non-trivial graph")
	}
	if st.K != 4 || len(st.PartEdges) != 4 || len(st.CoresetEdges) != 4 {
		t.Fatal("stats shape wrong")
	}
	sum := 0
	for _, e := range st.PartEdges {
		sum += e
	}
	if sum != g.M() {
		t.Fatalf("partition lost edges: %d != %d", sum, g.M())
	}
	if st.TotalCommBytes <= 0 || st.MaxMachineBytes <= 0 {
		t.Fatal("communication accounting missing")
	}
	if st.MaxMachineBytes > st.TotalCommBytes {
		t.Fatal("max > total")
	}

	cover, st2 := DistributedVertexCover(g, 4, 2, 78)
	if err := vcover.Verify(g.N, g.Edges, cover); err != nil {
		t.Fatal(err)
	}
	if len(st2.CoresetFixed) != 4 {
		t.Fatal("VC stats missing fixed counts")
	}
}

func TestDistributedMatchingDeterministicSeed(t *testing.T) {
	r := rng.New(37)
	g := gen.GNP(200, 0.05, r)
	m1, _ := DistributedMatching(g, 4, 3, 99)
	m2, _ := DistributedMatching(g, 4, 1, 99) // workers must not affect result
	if m1.Size() != m2.Size() {
		t.Fatalf("parallelism changed result: %d vs %d", m1.Size(), m2.Size())
	}
}
