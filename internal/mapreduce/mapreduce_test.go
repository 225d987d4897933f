package mapreduce

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/vcover"
)

func TestDefaultK(t *testing.T) {
	if DefaultK(100) != 10 {
		t.Fatalf("DefaultK(100) = %d", DefaultK(100))
	}
	if DefaultK(0) != 1 {
		t.Fatal("DefaultK(0) != 1")
	}
	if DefaultK(101) != 11 {
		t.Fatalf("DefaultK(101) = %d", DefaultK(101))
	}
}

func TestCoresetMatchingMRTwoRounds(t *testing.T) {
	r := rng.New(1)
	g := gen.GNP(900, 0.01, r)
	k := DefaultK(g.N)
	m, st := CoresetMatchingMR(g, k, false, 7, 0)
	if err := matching.Verify(g.N, g.Edges, m); err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", st.Rounds)
	}
	opt := matching.Maximum(g.N, g.Edges).Size()
	if float64(opt)/float64(m.Size()) > 3 {
		t.Fatalf("MR matching ratio too large: opt=%d got=%d", opt, m.Size())
	}
	if st.MaxMachineLoad <= 0 || st.ShuffleEdges <= 0 {
		t.Fatal("cost accounting missing")
	}
}

func TestCoresetMatchingMROneRound(t *testing.T) {
	r := rng.New(3)
	g := gen.GNP(900, 0.01, r)
	m, st := CoresetMatchingMR(g, 30, true, 11, 0)
	if err := matching.Verify(g.N, g.Edges, m); err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 when input already random", st.Rounds)
	}
}

func TestCoresetVCMR(t *testing.T) {
	r := rng.New(5)
	g := gen.GNP(800, 0.02, r)
	cover, st := CoresetVCMR(g, DefaultK(g.N), false, 13, 0)
	if err := vcover.Verify(g.N, g.Edges, cover); err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", st.Rounds)
	}
}

func TestCoresetMRMemoryWithinPaperBound(t *testing.T) {
	// Paper: memory O~(n*sqrt(n)) per machine with k = sqrt(n). Machine M
	// receives k coresets of <= n/2 edges each: <= n*sqrt(n)/2.
	r := rng.New(7)
	g := gen.GNP(1600, 0.01, r)
	k := DefaultK(g.N)
	_, st := CoresetMatchingMR(g, k, false, 17, 0)
	bound := g.N * k // very generous O~(n*sqrt(n))
	if st.MaxMachineLoad > bound {
		t.Fatalf("machine load %d exceeds n*sqrt(n) = %d", st.MaxMachineLoad, bound)
	}
}

func TestFilteringMatchingIsMaximal(t *testing.T) {
	r := rng.New(9)
	g := gen.GNP(500, 0.05, r)
	m, st := FilteringMatching(g, 600, 19)
	if err := matching.Verify(g.N, g.Edges, m); err != nil {
		t.Fatal(err)
	}
	if !matching.IsMaximal(g.Edges, m) {
		t.Fatal("filtering result not maximal")
	}
	if st.Rounds < 2 {
		t.Fatalf("filtering used %d rounds on an out-of-memory instance", st.Rounds)
	}
	// Maximal matching is a 2-approximation.
	opt := matching.Maximum(g.N, g.Edges).Size()
	if m.Size()*2 < opt {
		t.Fatalf("filtering below 1/2 of optimum: %d vs %d", m.Size(), opt)
	}
}

func TestFilteringSingleRoundWhenFits(t *testing.T) {
	r := rng.New(11)
	g := gen.GNP(100, 0.05, r)
	_, st := FilteringMatching(g, g.M()+1, 23)
	if st.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 when everything fits", st.Rounds)
	}
}

func TestFilteringRespectsMemory(t *testing.T) {
	r := rng.New(17)
	g := gen.GNP(600, 0.05, r)
	const mem = 400
	_, st := FilteringMatching(g, mem, 31)
	// Sampled loads concentrate around mem/2; assert they never blow past
	// the cap by more than 2x (Chernoff slack).
	if st.MaxMachineLoad > 2*mem {
		t.Fatalf("central machine load %d far exceeds memory %d", st.MaxMachineLoad, mem)
	}
}

// TestRoundComparison reproduces the paper's MapReduce claim: the coreset
// algorithm needs 2 rounds where filtering needs at least 3 under the same
// memory budget.
func TestRoundComparison(t *testing.T) {
	r := rng.New(19)
	g := gen.GNP(2000, 0.05, r) // ~100k edges
	k := DefaultK(g.N)
	_, coresetStats := CoresetMatchingMR(g, k, false, 37, 0)
	mem := g.N // tight memory: forces filtering to iterate
	_, filterStats := FilteringMatching(g, mem, 37)
	t.Logf("coreset rounds=%d, filtering rounds=%d (mem=%d)", coresetStats.Rounds, filterStats.Rounds, mem)
	if coresetStats.Rounds != 2 {
		t.Fatalf("coreset rounds = %d", coresetStats.Rounds)
	}
	if filterStats.Rounds < 3 {
		t.Fatalf("filtering rounds = %d, expected >= 3 in low-memory regime", filterStats.Rounds)
	}
}

func TestFilteringPanicsOnBadMemory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on memLimit < 1")
		}
	}()
	FilteringMatching(gen.GNP(10, 0.5, rng.New(1)), 0, 1)
}
