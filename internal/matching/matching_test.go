package matching

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
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

func randBipartite(r *rng.RNG, nl, nr int, p float64) *graph.Bipartite {
	var edges []graph.Edge
	for u := 0; u < nl; u++ {
		for v := 0; v < nr; v++ {
			if r.Bernoulli(p) {
				edges = append(edges, graph.Edge{U: graph.ID(u), V: graph.ID(v)})
			}
		}
	}
	return graph.NewBipartite(nl, nr, edges)
}

func TestMatchingAddAndSize(t *testing.T) {
	m := NewEmpty(4)
	if !m.Add(graph.Edge{U: 0, V: 1}) {
		t.Fatal("Add to empty failed")
	}
	if m.Add(graph.Edge{U: 1, V: 2}) {
		t.Fatal("Add of conflicting edge succeeded")
	}
	if m.Add(graph.Edge{U: 3, V: 3}) {
		t.Fatal("Add of self-loop succeeded")
	}
	if !m.Add(graph.Edge{U: 2, V: 3}) {
		t.Fatal("Add of disjoint edge failed")
	}
	if m.Size() != 2 {
		t.Fatalf("Size = %d", m.Size())
	}
	if !m.Covers(0) || m.Covers(4-1) != true {
		t.Fatal("Covers wrong")
	}
	edges := m.Edges()
	if len(edges) != 2 {
		t.Fatalf("Edges len = %d", len(edges))
	}
}

func TestFromEdgesPanicsOnConflict(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromEdges accepted conflicting edges")
		}
	}()
	FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
}

func TestMaximalGreedyIsMaximalProperty(t *testing.T) {
	r := rng.New(1)
	f := func(nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%30) + 2
		p := float64(pRaw) / 255
		edges := randGraph(r, n, p)
		m := MaximalGreedy(n, edges)
		if err := Verify(n, edges, m); err != nil {
			return false
		}
		return IsMaximal(edges, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestHopcroftKarpSmall(t *testing.T) {
	// Perfect matching exists: K_{3,3}.
	var edges []graph.Edge
	for u := 0; u < 3; u++ {
		for v := 0; v < 3; v++ {
			edges = append(edges, graph.Edge{U: graph.ID(u), V: graph.ID(v)})
		}
	}
	b := graph.NewBipartite(3, 3, edges)
	_, _, size := HopcroftKarp(b)
	if size != 3 {
		t.Fatalf("HK on K33 = %d, want 3", size)
	}
	// Path of length 3: L0-R0, L1-R0, L1-R1 -> max matching 2.
	b2 := graph.NewBipartite(2, 2, []graph.Edge{{U: 0, V: 0}, {U: 1, V: 0}, {U: 1, V: 1}})
	_, _, size2 := HopcroftKarp(b2)
	if size2 != 2 {
		t.Fatalf("HK on path = %d, want 2", size2)
	}
}

func TestHopcroftKarpEmpty(t *testing.T) {
	b := graph.NewBipartite(3, 3, nil)
	matchL, matchR, size := HopcroftKarp(b)
	if size != 0 {
		t.Fatal("empty graph matched something")
	}
	for _, v := range matchL {
		if v != -1 {
			t.Fatal("matchL not all -1")
		}
	}
	for _, v := range matchR {
		if v != -1 {
			t.Fatal("matchR not all -1")
		}
	}
}

func TestHopcroftKarpAgainstBruteForce(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		nl := r.Intn(6) + 1
		nr := r.Intn(6) + 1
		b := randBipartite(r, nl, nr, 0.4)
		_, _, size := HopcroftKarp(b)
		g := b.ToGraph()
		want := BruteForceSize(g.N, g.Edges)
		if size != want {
			t.Fatalf("trial %d: HK = %d, brute = %d (nl=%d nr=%d edges=%v)",
				trial, size, want, nl, nr, b.Edges)
		}
	}
}

func TestHopcroftKarpMatchingValid(t *testing.T) {
	r := rng.New(11)
	b := randBipartite(r, 40, 40, 0.1)
	m := MaximumBipartite(b)
	g := b.ToGraph()
	if err := Verify(g.N, g.Edges, m); err != nil {
		t.Fatal(err)
	}
}

func TestBlossomOddCycle(t *testing.T) {
	// C5: maximum matching 2.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 0, V: 4}}
	m := Blossom(5, edges)
	if m.Size() != 2 {
		t.Fatalf("Blossom on C5 = %d, want 2", m.Size())
	}
	if err := Verify(5, edges, m); err != nil {
		t.Fatal(err)
	}
}

func TestBlossomPetersenLike(t *testing.T) {
	// Two triangles joined by a bridge: 0-1-2-0, 3-4-5-3, bridge 2-3.
	// Maximum matching = 3 (one edge per triangle + bridge is impossible;
	// actually {0-1, 2-3, 4-5} has size 3).
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
		{U: 2, V: 3},
	}
	m := Blossom(6, edges)
	if m.Size() != 3 {
		t.Fatalf("Blossom = %d, want 3", m.Size())
	}
}

func TestBlossomAgainstBruteForce(t *testing.T) {
	r := rng.New(13)
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(11) + 2
		p := 0.15 + r.Float64()*0.5
		edges := randGraph(r, n, p)
		m := Blossom(n, edges)
		if err := Verify(n, edges, m); err != nil {
			t.Fatalf("trial %d: invalid matching: %v", trial, err)
		}
		want := BruteForceSize(n, edges)
		if m.Size() != want {
			t.Fatalf("trial %d: Blossom = %d, brute = %d (n=%d edges=%v)",
				trial, m.Size(), want, n, edges)
		}
	}
}

func TestMaximumDispatch(t *testing.T) {
	r := rng.New(17)
	// Bipartite instance goes through HK; odd-cycle instance through
	// blossom; both must equal brute force.
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(10) + 2
		edges := randGraph(r, n, 0.3)
		m := Maximum(n, edges)
		if err := Verify(n, edges, m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := BruteForceSize(n, edges); m.Size() != want {
			t.Fatalf("trial %d: Maximum = %d, brute = %d", trial, m.Size(), want)
		}
	}
}

func TestMaximumOnPerfectMatchingInstance(t *testing.T) {
	// Disjoint perfect matching of 1000 edges; Maximum must find all.
	n := 2000
	edges := make([]graph.Edge, 0, 1000)
	for i := 0; i < 1000; i++ {
		edges = append(edges, graph.Edge{U: graph.ID(2 * i), V: graph.ID(2*i + 1)})
	}
	m := Maximum(n, edges)
	if m.Size() != 1000 {
		t.Fatalf("Maximum on perfect matching = %d", m.Size())
	}
}

func TestAugmentGreedily(t *testing.T) {
	m := NewEmpty(6)
	m.Add(graph.Edge{U: 0, V: 1})
	added := m.AugmentGreedily([]graph.Edge{
		{U: 1, V: 2}, // conflicts with 0-1
		{U: 2, V: 3}, // ok
		{U: 4, V: 5}, // ok
		{U: 3, V: 4}, // conflicts now
	})
	if added != 2 || m.Size() != 3 {
		t.Fatalf("added = %d, size = %d", added, m.Size())
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}
	m := FromEdges(4, edges)
	m.Mate[0] = 2 // break symmetry
	if Verify(4, edges, m) == nil {
		t.Fatal("Verify accepted asymmetric mate relation")
	}
	m2 := NewEmpty(4)
	m2.Add(graph.Edge{U: 0, V: 2}) // not a graph edge
	if Verify(4, edges, m2) == nil {
		t.Fatal("Verify accepted non-edge pair")
	}
	m3 := NewEmpty(3)
	if Verify(4, edges, m3) == nil {
		t.Fatal("Verify accepted wrong length")
	}
}

// TestVerifyEdgeLists: Verify judges a matched pair by whether any edge
// joins it, in either orientation and however often; parallel edges,
// self-loops and out-of-range edges neither validate a pair nor trip the
// check, and each failure keeps its error text.
func TestVerifyEdgeLists(t *testing.T) {
	pairs := func(n int, es ...graph.Edge) *Matching { return FromEdges(n, es) }
	cases := []struct {
		name  string
		n     int
		edges []graph.Edge
		m     *Matching
		want  string // "" = valid
	}{
		{"parallel-edges", 4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 0, V: 1}, {U: 2, V: 3}, {U: 2, V: 3}},
			pairs(4, graph.Edge{U: 0, V: 1}, graph.Edge{U: 2, V: 3}), ""},
		{"reversed-orientation", 2, []graph.Edge{{U: 1, V: 0}}, pairs(2, graph.Edge{U: 0, V: 1}), ""},
		{"self-loops-beside-pair", 3, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 2, V: 2}},
			pairs(3, graph.Edge{U: 0, V: 1}), ""},
		{"self-loops-are-not-the-pair", 4, []graph.Edge{{U: 2, V: 2}, {U: 3, V: 3}, {U: 0, V: 1}},
			pairs(4, graph.Edge{U: 0, V: 1}, graph.Edge{U: 2, V: 3}), "matching: pair (2,3) is not a graph edge"},
		{"out-of-range-edges-ignored", 4, []graph.Edge{{U: 5, V: 7}, {U: -1, V: 2}, {U: 3, V: 2}},
			pairs(4, graph.Edge{U: 2, V: 3}), ""},
		{"pair-not-an-edge", 3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}},
			pairs(3, graph.Edge{U: 0, V: 2}), "matching: pair (0,2) is not a graph edge"},
		{"empty-edges", 2, nil, pairs(2, graph.Edge{U: 0, V: 1}), "matching: pair (0,1) is not a graph edge"},
		{"wrong-size-field", 4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}},
			&Matching{Mate: []graph.ID{1, 0, -1, -1}, size: 2}, "matching: size field 2, actual 1"},
		{"mate-out-of-range", 2, nil, &Matching{Mate: []graph.ID{5, -1}}, "matching: mate[0] = 5 out of range"},
		{"asymmetric", 3, []graph.Edge{{U: 0, V: 1}}, &Matching{Mate: []graph.ID{1, 2, 1}, size: 1},
			"matching: mate relation not symmetric at 0<->1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Verify(tc.n, tc.edges, tc.m)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Verify rejected a valid matching: %v", err)
			case tc.want != "" && (err == nil || err.Error() != tc.want):
				t.Fatalf("Verify = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewEmpty(4)
	m.Add(graph.Edge{U: 0, V: 1})
	c := m.Clone()
	c.Add(graph.Edge{U: 2, V: 3})
	if m.Size() != 1 || c.Size() != 2 {
		t.Fatal("Clone shares state")
	}
}

func TestBruteForceKnownValues(t *testing.T) {
	// Triangle: 1. Square: 2. Star K_{1,4}: 1. Path P4: 2.
	cases := []struct {
		n     int
		edges []graph.Edge
		want  int
	}{
		{3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, 1},
		{4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 3}}, 2},
		{5, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}}, 1},
		{4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, 2},
		{2, nil, 0},
	}
	for i, tc := range cases {
		if got := BruteForceSize(tc.n, tc.edges); got != tc.want {
			t.Errorf("case %d: BruteForceSize = %d, want %d", i, got, tc.want)
		}
	}
}

func TestBruteForcePanicsOnLargeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BruteForceSize accepted n > 24")
		}
	}()
	BruteForceSize(25, nil)
}

func TestBlossomParallelEdgesAndDuplicates(t *testing.T) {
	// Duplicate edges must not confuse the algorithm.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 2}}
	m := Blossom(3, edges)
	if m.Size() != 1 {
		t.Fatalf("Blossom with duplicates = %d, want 1", m.Size())
	}
}

func BenchmarkHopcroftKarp(b *testing.B) {
	r := rng.New(1)
	bg := randBipartite(r, 2000, 2000, 0.002)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HopcroftKarp(bg)
	}
}

func BenchmarkBlossom(b *testing.B) {
	r := rng.New(2)
	edges := randGraph(r, 400, 0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Blossom(400, edges)
	}
}

func BenchmarkMaximalGreedy(b *testing.B) {
	r := rng.New(3)
	edges := randGraph(r, 2000, 0.002)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaximalGreedy(2000, edges)
	}
}
