package core_test

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/vcover"
)

// The full Theorem 1 and Theorem 2 pipelines — hash k-partitioning, one
// coreset per machine, composition at the coordinator — run through the
// registry's batch runtime, the one every frontend and runtime shares. The
// quality bounds are checked against exact optima computed here.

var (
	matchingTask = task.MustGet("matching")
	vcTask       = task.MustGet("vc")
)

// TestTheorem1ApproximationGNP checks the paper's headline guarantee: the
// composed matching is a constant-factor approximation (the paper proves
// ratio <= 9; in practice it is far better — we assert a conservative 3).
func TestTheorem1ApproximationGNP(t *testing.T) {
	for _, k := range []int{2, 4, 8, 16} {
		r := rng.New(uint64(100 + k))
		g := gen.GNP(600, 0.02, r)
		opt := matching.Maximum(g.N, g.Edges).Size()
		got, _ := matchingTask.Batch(g, k, 0, uint64(k), task.Params{})
		if err := matching.Verify(g.N, g.Edges, got.Matching); err != nil {
			t.Fatal(err)
		}
		ratio := float64(opt) / float64(got.Size)
		if ratio > 3.0 {
			t.Errorf("k=%d: ratio %.2f exceeds 3 (opt=%d got=%d)", k, ratio, opt, got.Size)
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
	got, _ := matchingTask.Batch(g, k, 0, 11, task.Params{})
	ratio := float64(opt) / float64(got.Size)
	if ratio > 3.0 {
		t.Errorf("ratio %.2f on D_Matching (opt=%d got=%d)", ratio, opt, got.Size)
	}
}

// TestTheorem2ApproximationStars reproduces the O(log n) guarantee on a
// workload where VC(G) is known exactly: a star forest with `count` centers
// has VC = count.
func TestTheorem2ApproximationStars(t *testing.T) {
	r := rng.New(17)
	const count, leaves, k = 50, 40, 4
	g := gen.StarForest(count, leaves)
	// Shuffle edges so the input order carries no structure.
	r.Shuffle(len(g.Edges), func(i, j int) { g.Edges[i], g.Edges[j] = g.Edges[j], g.Edges[i] })
	sol, _ := vcTask.Batch(g, k, 0, 23, task.Params{})
	if err := vcover.Verify(g.N, g.Edges, sol.Cover); err != nil {
		t.Fatal(err)
	}
	opt := count // one center per star
	ratio := float64(len(sol.Cover)) / float64(opt)
	// O(log n) bound; for this instance log2(n) ~ 11, assert generously.
	if ratio > 4*math.Log2(float64(g.N)) {
		t.Errorf("cover ratio %.1f too large (cover=%d opt=%d)", ratio, len(sol.Cover), opt)
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
	sol, _ := vcTask.Batch(g, 4, 0, 29, task.Params{})
	if err := vcover.Verify(g.N, g.Edges, sol.Cover); err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(sol.Cover)) / float64(opt)
	if ratio > 3*math.Log2(float64(g.N)) {
		t.Errorf("ratio %.2f vs O(log n) (cover=%d opt=%d)", ratio, len(sol.Cover), opt)
	}
}

func TestPipelineStatsAccounting(t *testing.T) {
	r := rng.New(31)
	g := gen.GNP(300, 0.05, r)
	sol, st := matchingTask.Batch(g, 4, 2, 77, task.Params{})
	if sol.Size == 0 {
		t.Fatal("empty matching on non-trivial graph")
	}
	if st.K != 4 || len(st.PartEdges) != 4 || len(st.CoresetEdges) != 4 {
		t.Fatal("stats shape wrong")
	}
	sum := 0
	for _, e := range st.PartEdges {
		sum += e
	}
	if sum != g.M() || st.EdgesTotal != g.M() || st.N != g.N {
		t.Fatalf("partition lost edges: %d (EdgesTotal %d) != %d", sum, st.EdgesTotal, g.M())
	}
	if st.TotalCommBytes <= 0 || st.MaxMachineBytes <= 0 {
		t.Fatal("communication accounting missing")
	}
	if st.MaxMachineBytes > st.TotalCommBytes {
		t.Fatal("max > total")
	}

	vsol, st2 := vcTask.Batch(g, 4, 2, 78, task.Params{})
	if err := vcover.Verify(g.N, g.Edges, vsol.Cover); err != nil {
		t.Fatal(err)
	}
	if len(st2.CoresetFixed) != 4 {
		t.Fatal("VC stats missing fixed counts")
	}
}

// TestDistributedMatchingDeterministicSeed: the goroutine cap never changes
// the answer of a seeded run.
func TestDistributedMatchingDeterministicSeed(t *testing.T) {
	r := rng.New(37)
	g := gen.GNP(200, 0.05, r)
	m1, _ := matchingTask.Batch(g, 4, 3, 99, task.Params{})
	m2, _ := matchingTask.Batch(g, 4, 1, 99, task.Params{}) // workers must not affect result
	if m1.Size != m2.Size {
		t.Fatalf("parallelism changed result: %d vs %d", m1.Size, m2.Size)
	}
}

// The pipelines must stay correct (valid matchings, feasible covers) under
// degenerate inputs: empty graphs, more machines than edges, one machine.

func TestPipelinesOnEmptyGraph(t *testing.T) {
	g := &graph.Graph{N: 10}
	m, st := matchingTask.Batch(g, 4, 0, 1, task.Params{})
	if m.Size != 0 {
		t.Fatal("matching on empty graph")
	}
	if st.TotalCommBytes <= 0 {
		t.Fatal("even empty messages cost bytes (counts)")
	}
	cover, _ := vcTask.Batch(g, 4, 0, 1, task.Params{})
	if len(cover.Cover) != 0 {
		t.Fatal("cover on empty graph")
	}
}

func TestPipelinesWithMoreMachinesThanEdges(t *testing.T) {
	g := graph.New(6, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	m, _ := matchingTask.Batch(g, 64, 0, 2, task.Params{})
	if err := matching.Verify(g.N, g.Edges, m.Matching); err != nil {
		t.Fatal(err)
	}
	if m.Size != 2 {
		t.Fatalf("matching = %d, want 2 (edges are disjoint)", m.Size)
	}
	cover, _ := vcTask.Batch(g, 64, 0, 2, task.Params{})
	if err := vcover.Verify(g.N, g.Edges, cover.Cover); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineSingleMachineIsExactMatching(t *testing.T) {
	// k=1: the coreset IS a maximum matching of G; composition preserves it.
	r := rng.New(3)
	g := gen.GNP(300, 0.03, r)
	opt := matching.Maximum(g.N, g.Edges).Size()
	m, _ := matchingTask.Batch(g, 1, 0, 3, task.Params{})
	if m.Size != opt {
		t.Fatalf("k=1 matching %d != opt %d", m.Size, opt)
	}
}
