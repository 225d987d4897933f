package matching

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestIncrementalBasics(t *testing.T) {
	im := NewIncremental()
	if !im.Add(graph.Edge{U: 0, V: 1}) {
		t.Fatal("first edge rejected")
	}
	if im.Add(graph.Edge{U: 1, V: 2}) {
		t.Fatal("edge sharing an endpoint accepted")
	}
	if im.Add(graph.Edge{U: 3, V: 3}) {
		t.Fatal("self-loop accepted")
	}
	if !im.Add(graph.Edge{U: 2, V: 3}) {
		t.Fatal("independent edge rejected")
	}
	if im.Size() != 2 {
		t.Fatalf("size = %d, want 2", im.Size())
	}
	if !im.Covers(0) || !im.Covers(3) || im.Covers(4) {
		t.Fatal("Covers wrong")
	}
	if len(im.Edges()) != 2 {
		t.Fatalf("Edges() has %d, want 2", len(im.Edges()))
	}
}

// The one-pass greedy matcher equals MaximalGreedy on the same sequence and
// is therefore maximal: at least half the maximum matching.
func TestIncrementalMatchesMaximalGreedy(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		r := rng.New(seed)
		n := 300
		var edges []graph.Edge
		for i := 0; i < 900; i++ {
			u, v := graph.ID(r.Intn(n)), graph.ID(r.Intn(n))
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v}.Canon())
			}
		}
		im := NewIncremental()
		for _, e := range edges {
			im.Add(e)
		}
		want := MaximalGreedy(n, edges)
		if im.Size() != want.Size() {
			t.Fatalf("seed %d: incremental %d != maximal greedy %d", seed, im.Size(), want.Size())
		}
		opt := Maximum(n, edges).Size()
		if 2*im.Size() < opt {
			t.Fatalf("seed %d: greedy %d below half of maximum %d", seed, im.Size(), opt)
		}
		m := im.Matching(n)
		if err := Verify(n, edges, m); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// The mate table grows to the largest matched ID, in either orientation, and
// vertices beyond it read as free.
func TestIncrementalGrowsOnDemand(t *testing.T) {
	im := NewIncremental()
	if im.Covers(1 << 20) {
		t.Fatal("empty matcher covers a vertex")
	}
	if !im.Add(graph.Edge{U: 900, V: 5}) || !im.Add(graph.Edge{U: 0, V: 70000}) {
		t.Fatal("free endpoints rejected")
	}
	if im.Add(graph.Edge{U: 70000, V: 80000}) || im.Covers(80000) {
		t.Fatal("matched endpoint accepted")
	}
	got := im.Edges()
	graph.SortEdges(got)
	if want := []graph.Edge{{U: 0, V: 70000}, {U: 5, V: 900}}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Edges() = %v, want %v", got, want)
	}
	if m := im.Matching(70001); m.Size() != 2 || m.Mate[900] != 5 {
		t.Fatalf("Matching: size %d, mate[900] = %d", m.Size(), m.Mate[900])
	}
}
