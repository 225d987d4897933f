package gen

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestGNPBasics(t *testing.T) {
	r := rng.New(1)
	g := GNP(100, 0.1, r)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Skip-sampling never produces duplicates.
	seen := map[graph.Edge]bool{}
	for _, e := range g.Edges {
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestGNPEdgeCountConcentration(t *testing.T) {
	r := rng.New(3)
	const n, p = 300, 0.05
	total := float64(n*(n-1)) / 2
	want := total * p
	sigma := math.Sqrt(total * p * (1 - p))
	sum := 0.0
	const reps = 20
	for i := 0; i < reps; i++ {
		sum += float64(GNP(n, p, r).M())
	}
	mean := sum / reps
	if math.Abs(mean-want) > 4*sigma/math.Sqrt(reps) {
		t.Fatalf("GNP mean edges = %v, want ~%v", mean, want)
	}
}

// TestGNPIterTinyP: once 1/p exceeds 2^31 pairs a geometric skip must not
// be clamped to 2^31, or the sampler over-draws. At n = 2^24 and p =
// 0.001/2^24 a draw holds about 8389 edges; a clamp at 2^31 gave 69 813.
func TestGNPIterTinyP(t *testing.T) {
	const n = 1 << 24
	p := 0.001 / n
	total := float64(n) * float64(n-1) / 2
	want, sigma := total*p, math.Sqrt(total*p*(1-p))
	got := 0
	for it := GNPIter(n, p, rng.New(1)); ; got++ {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if math.Abs(float64(got)-want) > 5*sigma {
		t.Fatalf("GNPIter(2^24, 0.001/2^24) drew %d edges, want %.0f ± %.0f (5 sigma)", got, want, 5*sigma)
	}
}

func TestGNPExtremes(t *testing.T) {
	r := rng.New(5)
	if g := GNP(0, 0.5, r); g.M() != 0 {
		t.Fatal("GNP(0) has edges")
	}
	if g := GNP(1, 0.5, r); g.M() != 0 {
		t.Fatal("GNP(1) has edges")
	}
	if g := GNP(50, 0, r); g.M() != 0 {
		t.Fatal("GNP(p=0) has edges")
	}
	if g := GNP(20, 1, r); g.M() != 20*19/2 {
		t.Fatalf("GNP(p=1) has %d edges, want %d", g.M(), 20*19/2)
	}
}

func TestGNPDeterministic(t *testing.T) {
	g1 := GNP(100, 0.08, rng.New(42))
	g2 := GNP(100, 0.08, rng.New(42))
	if g1.M() != g2.M() {
		t.Fatal("GNP not deterministic under fixed seed")
	}
	for i := range g1.Edges {
		if g1.Edges[i] != g2.Edges[i] {
			t.Fatal("GNP not deterministic under fixed seed")
		}
	}
}

func TestBipartiteGNP(t *testing.T) {
	r := rng.New(7)
	b := BipartiteGNP(50, 80, 0.1, r)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	want := 50 * 80 * 0.1
	if math.Abs(float64(b.M())-want) > 6*math.Sqrt(want) {
		t.Fatalf("BipartiteGNP edges = %d, want ~%v", b.M(), want)
	}
	if BipartiteGNP(0, 10, 0.5, r).M() != 0 {
		t.Fatal("empty left side should have no edges")
	}
	if BipartiteGNP(3, 4, 1, r).M() != 12 {
		t.Fatal("p=1 should give complete bipartite graph")
	}
}

func TestRandomBipartiteRegular(t *testing.T) {
	r := rng.New(11)
	const n, d = 100, 5
	b := RandomBipartiteRegular(n, d, r)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	degL := make([]int, n)
	for _, e := range b.Edges {
		degL[e.U]++
	}
	for i, dd := range degL {
		if dd > d || dd < 1 {
			t.Fatalf("left vertex %d degree %d, want in [1,%d]", i, dd, d)
		}
	}
	// Collisions are rare: expect near n*d edges.
	if b.M() < n*d*9/10 {
		t.Fatalf("too many collisions: %d edges", b.M())
	}
}

func TestStructuredFamilies(t *testing.T) {
	if g := Star(5); g.M() != 4 || g.N != 5 {
		t.Fatal("Star wrong")
	}
	sf := StarForest(3, 4)
	if sf.N != 15 || sf.M() != 12 {
		t.Fatalf("StarForest N=%d M=%d", sf.N, sf.M())
	}
	if err := sf.Validate(); err != nil {
		t.Fatal(err)
	}
	if g := Path(5); g.M() != 4 {
		t.Fatal("Path wrong")
	}
}

func TestChungLuShape(t *testing.T) {
	r := rng.New(13)
	g := ChungLu(2000, 2.0, 100, r)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() == 0 {
		t.Fatal("ChungLu produced empty graph")
	}
	// Power-law: max degree should be several times the mean degree.
	deg := graph.Degrees(g.N, g.Edges)
	maxd, sum := 0, 0
	for _, d := range deg {
		if int(d) > maxd {
			maxd = int(d)
		}
		sum += int(d)
	}
	mean := float64(sum) / float64(g.N)
	if float64(maxd) < 4*mean {
		t.Fatalf("ChungLu not skewed: max=%d mean=%.2f", maxd, mean)
	}
}

func TestHardMatchingStructure(t *testing.T) {
	r := rng.New(17)
	const n, alpha, k = 400, 4, 8
	inst := HardMatching(n, alpha, k, r)
	if err := inst.B.Validate(); err != nil {
		t.Fatal(err)
	}
	a := n / alpha
	countA, countB := 0, 0
	for v := 0; v < n; v++ {
		if inst.InA[v] {
			countA++
		}
		if inst.InB[v] {
			countB++
		}
	}
	if countA != a || countB != a {
		t.Fatalf("|A|=%d |B|=%d, want %d", countA, countB, a)
	}
	if len(inst.Hidden) != n-a {
		t.Fatalf("|hidden| = %d, want %d", len(inst.Hidden), n-a)
	}
	// Hidden edges form a perfect matching on the complements.
	seenL := map[graph.ID]bool{}
	seenR := map[graph.ID]bool{}
	for _, e := range inst.Hidden {
		if inst.InA[e.U] || inst.InB[e.V] {
			t.Fatalf("hidden edge %v touches A or B", e)
		}
		if seenL[e.U] || seenR[e.V] {
			t.Fatalf("hidden edges share endpoint at %v", e)
		}
		seenL[e.U] = true
		seenR[e.V] = true
		if !inst.HiddenSet[e] {
			t.Fatalf("HiddenSet missing %v", e)
		}
	}
	// Confuser edges live inside A x B.
	for _, e := range inst.B.Edges {
		if inst.HiddenSet[e] {
			continue
		}
		if !inst.InA[e.U] || !inst.InB[e.V] {
			t.Fatalf("confuser edge %v outside A x B", e)
		}
	}
}

func TestHardMatchingHiddenEdgesAreInduced(t *testing.T) {
	// Hidden edges touch vertices of global degree 1, so any subset of the
	// graph's edges containing a hidden edge has it in the induced matching.
	r := rng.New(19)
	inst := HardMatching(300, 3, 4, r)
	im := InducedMatching(inst.B.NL, inst.B.Edges)
	inIM := map[graph.Edge]bool{}
	for _, e := range im {
		inIM[e] = true
	}
	for _, h := range inst.Hidden {
		if !inIM[h] {
			t.Fatalf("hidden edge %v not in induced matching of full graph", h)
		}
	}
}

func TestInducedMatchingHandInstance(t *testing.T) {
	// L0-R0 isolated pair (induced), L1-R1 and L1-R2 (L1 degree 2: not
	// induced), L2-R1 (R1 degree 2: not induced).
	edges := []graph.Edge{{U: 0, V: 0}, {U: 1, V: 1}, {U: 1, V: 2}, {U: 2, V: 1}}
	im := InducedMatching(3, edges)
	if len(im) != 1 || im[0] != (graph.Edge{U: 0, V: 0}) {
		t.Fatalf("InducedMatching = %v, want [{0 0}]", im)
	}
}

func TestHardVCStructure(t *testing.T) {
	r := rng.New(23)
	const n, alpha, k = 500, 5, 10
	inst := HardVC(n, alpha, k, r)
	if err := inst.B.Validate(); err != nil {
		t.Fatal(err)
	}
	if !inst.InA[inst.VStar] {
		t.Fatal("v* not in A")
	}
	if inst.B.Edges[inst.EStarIndex] != inst.EStar {
		t.Fatal("EStarIndex wrong")
	}
	if inst.EStar.U != inst.VStar {
		t.Fatal("e* not incident on v*")
	}
	countA := 0
	for v := 0; v < n; v++ {
		if inst.InA[v] {
			countA++
		}
	}
	if countA != n/alpha {
		t.Fatalf("|A| = %d, want %d", countA, n/alpha)
	}
	// All edges originate in A.
	for _, e := range inst.B.Edges {
		if !inst.InA[e.U] {
			t.Fatalf("edge %v has left endpoint outside A", e)
		}
	}
	// Edge count concentrates around |A| * n * k/2n = |A|*k/2 (+1 for e*).
	want := float64(countA) * float64(k) / 2
	if math.Abs(float64(inst.B.M()-1)-want) > 6*math.Sqrt(want) {
		t.Fatalf("edges = %d, want ~%v", inst.B.M()-1, want)
	}
}

func TestDegreeOneLeft(t *testing.T) {
	// L0: degree 1 -> in L1; L1: degree 2; L2: degree 1 sharing R0.
	edges := []graph.Edge{{U: 0, V: 0}, {U: 1, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}
	l1, r1 := DegreeOneLeft(3, edges)
	if len(l1) != 2 {
		t.Fatalf("L1 = %v, want [0 2]", l1)
	}
	if len(r1) != 1 || r1[0] != 0 {
		t.Fatalf("R1 = %v, want [0]", r1)
	}
}

func TestGreedyTrapStructure(t *testing.T) {
	r := rng.New(29)
	const n, k = 60, 6
	inst := GreedyTrap(n, k, r)
	if err := inst.B.Validate(); err != nil {
		t.Fatal(err)
	}
	np := (n + k - 1) / k
	if inst.NPrime != np {
		t.Fatalf("NPrime = %d, want %d", inst.NPrime, np)
	}
	if inst.B.M() != np*n+n {
		t.Fatalf("M = %d, want %d", inst.B.M(), np*n+n)
	}
	hiddenCount := 0
	for i, h := range inst.IsHidden {
		e := inst.B.Edges[i]
		if h {
			hiddenCount++
			if int(e.U) < np {
				t.Fatalf("hidden edge %v starts in P'", e)
			}
		} else if int(e.U) >= np {
			t.Fatalf("confuser edge %v starts outside P'", e)
		}
	}
	if hiddenCount != n {
		t.Fatalf("hidden count = %d, want %d", hiddenCount, n)
	}
}

func TestWeightedGenerators(t *testing.T) {
	r := rng.New(31)
	wg := WeightedGNP(100, 0.1, 10, r)
	if len(wg.Edges) == 0 {
		t.Fatal("WeightedGNP empty")
	}
	for _, e := range wg.Edges {
		if e.W < 1 || e.W >= 10 {
			t.Fatalf("weight %v out of [1,10)", e.W)
		}
	}
	wc := WeightedChungLu(500, 2.0, 50, 3.0, r)
	if len(wc.Edges) == 0 {
		t.Fatal("WeightedChungLu empty")
	}
	for _, e := range wc.Edges {
		if e.W <= 0 {
			t.Fatalf("non-positive weight %v", e.W)
		}
	}
	if graph.TotalWeight(wc.Edges) <= 0 {
		t.Fatal("total weight non-positive")
	}
	un := graph.StripWeights(wc.Edges)
	if len(un) != len(wc.Edges) {
		t.Fatal("StripWeights length mismatch")
	}
}

func TestGeneratorPanics(t *testing.T) {
	r := rng.New(37)
	for name, f := range map[string]func(){
		"GNP":     func() { GNP(-1, 0.5, r) },
		"GNPp":    func() { GNP(5, 1.5, r) },
		"BipGNP":  func() { BipartiteGNP(3, -1, 0.5, r) },
		"Regular": func() { RandomBipartiteRegular(5, 9, r) },
		"Star":    func() { Star(0) },
		"HardM":   func() { HardMatching(0, 1, 1, r) },
		"HardVC":  func() { HardVC(10, 0, 1, r) },
		"Trap":    func() { GreedyTrap(0, 1, r) },
		"ChungLu": func() { ChungLu(10, 2, 0, r) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkGNP(b *testing.B) {
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GNP(10000, 0.001, r)
	}
}

func BenchmarkChungLu(b *testing.B) {
	r := rng.New(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ChungLu(10000, 2.0, 200, r)
	}
}

func BenchmarkHardMatching(b *testing.B) {
	r := rng.New(3)
	for i := 0; i < b.N; i++ {
		HardMatching(10000, 10, 10, r)
	}
}
