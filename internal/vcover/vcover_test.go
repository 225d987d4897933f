package vcover

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
)

func randGraph(r *rng.RNG, n int, p float64) []graph.Edge {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bernoulli(p) {
				edges = append(edges, graph.Edge{U: graph.ID(u), V: graph.ID(v)})
			}
		}
	}
	return edges
}

func TestVerify(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	if err := Verify(3, edges, []graph.ID{1}); err != nil {
		t.Fatalf("vertex 1 covers both edges: %v", err)
	}
	if err := Verify(3, edges, []graph.ID{0}); err == nil {
		t.Fatal("accepted infeasible cover")
	}
	if err := Verify(3, edges, []graph.ID{5}); err == nil {
		t.Fatal("accepted out-of-range vertex")
	}
}

func TestDedup(t *testing.T) {
	got := Dedup([]graph.ID{3, 1, 3, 2, 1})
	want := []graph.ID{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Dedup = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Dedup = %v, want %v", got, want)
		}
	}
}

func TestFromMatchingFeasibleAnd2Approx(t *testing.T) {
	r := rng.New(1)
	f := func(nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%25) + 2
		p := float64(pRaw) / 255
		edges := randGraph(r, n, p)
		cover := FromMatching(n, edges)
		if Verify(n, edges, cover) != nil {
			return false
		}
		// 2-approximation: |cover| <= 2 * MM(G) <= 2 * VC(G) * ... but
		// MM <= VC always, so |cover| = 2*|maximal matching| <= 2*VC.
		lb := MinCoverSizeLowerBound(n, edges)
		return len(cover) <= 2*lb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyDegreeFeasible(t *testing.T) {
	r := rng.New(3)
	f := func(nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%30) + 2
		p := float64(pRaw) / 255
		edges := randGraph(r, n, p)
		cover := GreedyDegree(n, edges)
		return Verify(n, edges, cover) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyDegreeStar(t *testing.T) {
	// Star: greedy must pick only the center.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}}
	cover := GreedyDegree(5, edges)
	if len(cover) != 1 || cover[0] != 0 {
		t.Fatalf("GreedyDegree on star = %v, want [0]", cover)
	}
}

func TestExactSmallKnownValues(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []graph.Edge
		want  int
	}{
		{"triangle", 3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, 2},
		{"star", 5, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}}, 1},
		{"P4", 4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, 2},
		{"C4", 4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 3}}, 2},
		{"C5", 5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 0, V: 4}}, 3},
		{"empty", 4, nil, 0},
		{"K4", 4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cover := ExactSmall(tc.n, tc.edges)
			if err := Verify(tc.n, tc.edges, cover); err != nil {
				t.Fatal(err)
			}
			if len(cover) != tc.want {
				t.Fatalf("got %d, want %d (%v)", len(cover), tc.want, cover)
			}
		})
	}
}

func TestExactSmallMatchesMatchingDuality(t *testing.T) {
	// On any graph, MM(G) <= VC(G) <= 2*MM(G).
	r := rng.New(5)
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(12) + 2
		edges := randGraph(r, n, 0.3)
		vc := len(ExactSmall(n, edges))
		mm := matching.BruteForceSize(n, edges)
		if vc < mm || vc > 2*mm {
			t.Fatalf("duality violated: VC=%d MM=%d (n=%d, edges=%v)", vc, mm, n, edges)
		}
	}
}

func TestKonigMatchesExactAndMatching(t *testing.T) {
	// Konig: on bipartite graphs min VC size == max matching size, and it
	// must agree with the branch-and-bound oracle.
	r := rng.New(7)
	for trial := 0; trial < 150; trial++ {
		nl := r.Intn(7) + 1
		nr := r.Intn(7) + 1
		var edges []graph.Edge
		for u := 0; u < nl; u++ {
			for v := 0; v < nr; v++ {
				if r.Bernoulli(0.35) {
					edges = append(edges, graph.Edge{U: graph.ID(u), V: graph.ID(v)})
				}
			}
		}
		b := graph.NewBipartite(nl, nr, edges)
		cover := KonigCover(b)
		g := b.ToGraph()
		if err := Verify(g.N, g.Edges, cover); err != nil {
			t.Fatalf("trial %d: Konig cover infeasible: %v", trial, err)
		}
		_, _, mm := matching.HopcroftKarp(b)
		if len(cover) != mm {
			t.Fatalf("trial %d: |Konig| = %d, MM = %d", trial, len(cover), mm)
		}
		exact := ExactSmall(g.N, g.Edges)
		if len(cover) != len(exact) {
			t.Fatalf("trial %d: Konig = %d, exact = %d", trial, len(cover), len(exact))
		}
	}
}

func TestGreedyVsExactRatio(t *testing.T) {
	// Greedy is an H_n approximation; on small instances the observed
	// ratio should stay below ln(n)+1.
	r := rng.New(13)
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(14) + 4
		edges := randGraph(r, n, 0.3)
		if len(edges) == 0 {
			continue
		}
		g := len(GreedyDegree(n, edges))
		e := len(ExactSmall(n, edges))
		if e > 0 && float64(g) > 3.9*float64(e) {
			t.Fatalf("greedy ratio %d/%d too large", g, e)
		}
	}
}

func TestExactSmallPanicsOnLargeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ExactSmall accepted n > 64")
		}
	}()
	ExactSmall(65, nil)
}

func BenchmarkGreedyDegree(b *testing.B) {
	r := rng.New(1)
	edges := randGraph(r, 2000, 0.002)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyDegree(2000, edges)
	}
}

func BenchmarkFromMatching(b *testing.B) {
	r := rng.New(2)
	edges := randGraph(r, 2000, 0.002)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromMatching(2000, edges)
	}
}
