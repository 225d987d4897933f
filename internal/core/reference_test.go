package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/vcover"
)

// The composer as first written, kept as a test-only reference: copy the
// residual union, take the endpoints of a greedy maximal matching of it in
// the order Edges() lists them, append the fixed sets, then sort and
// deduplicate. ComposeVC now reads the cover off the matcher's mate array
// with the fixed vertices marked on it, and FromMatching reads it the same
// way; TestComposeVCMatchesReference and TestFromMatchingMatchesReference
// demand the same slices, nil-ness included. The grouped composer, which
// expands ComposeVC's cover without sorting it, is checked against the
// reference expanded and sorted.

func refDedup(cover []graph.ID) []graph.ID {
	sort.Slice(cover, func(i, j int) bool { return cover[i] < cover[j] })
	out := cover[:0]
	for i, v := range cover {
		if i == 0 || v != cover[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func refFromMatching(n int, edges []graph.Edge) []graph.ID {
	m := matching.MaximalGreedy(n, edges)
	out := make([]graph.ID, 0, 2*m.Size())
	for _, e := range m.Edges() {
		out = append(out, e.U, e.V)
	}
	return refDedup(out)
}

func refComposeVC(n int, coresets []*VCCoreset) []graph.ID {
	var fixed []graph.ID
	var residuals [][]graph.Edge
	for _, cs := range coresets {
		fixed = append(fixed, cs.Fixed...)
		residuals = append(residuals, cs.Residual)
	}
	return refDedup(append(fixed, refFromMatching(n, graph.UnionEdges(residuals...))...))
}

func refComposeGroupedVC(n, groupSize int, coresets []*VCCoreset) []graph.ID {
	ng := (n + groupSize - 1) / groupSize
	var out []graph.ID
	for _, g := range refComposeVC(ng, coresets) {
		for v := int(g) * groupSize; v < (int(g)+1)*groupSize && v < n; v++ {
			out = append(out, graph.ID(v))
		}
	}
	return refDedup(append(make([]graph.ID, 0, len(out)), out...))
}

// randomCoresets draws k coresets over n vertices shaped to stress the
// composer rather than to look like PeelVC's output: fixed sets that overlap
// across machines and repeat within one, residual edges whose endpoints
// another machine fixed, parallel edges, self-loops, both orientations, and
// nil or empty fields.
func randomCoresets(r *rng.RNG, n, k int) []*VCCoreset {
	coresets := make([]*VCCoreset, k)
	for i := range coresets {
		cs := &VCCoreset{}
		switch r.Intn(4) {
		case 0: // nil fields
		case 1:
			cs.Fixed, cs.Residual = []graph.ID{}, []graph.Edge{}
		default:
			for j := r.Intn(n/3 + 2); j > 0; j-- {
				cs.Fixed = append(cs.Fixed, graph.ID(r.Intn(n)))
			}
			for j := r.Intn(2*n + 1); j > 0; j-- {
				cs.Residual = append(cs.Residual, graph.Edge{U: graph.ID(r.Intn(n)), V: graph.ID(r.Intn(n))})
			}
		}
		coresets[i] = cs
	}
	return coresets
}

func TestComposeVCMatchesReference(t *testing.T) {
	type composer struct {
		name     string
		got, ref func(n int, cs []*VCCoreset) []graph.ID
	}
	composers := []composer{
		{"ComposeVC", ComposeVC, refComposeVC},
		{"ComposeGroupedVC/3", func(n int, cs []*VCCoreset) []graph.ID { return ComposeGroupedVC(3*n, 3, cs) },
			func(n int, cs []*VCCoreset) []graph.ID { return refComposeGroupedVC(3*n, 3, cs) }},
	}
	check := func(t *testing.T, label string, n int, coresets []*VCCoreset) {
		t.Helper()
		for _, c := range composers {
			want := c.ref(n, coresets)
			if got := c.got(n, coresets); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: got %v, reference %v", label, c.name, got, want)
			}
		}
	}

	check(t, "nil coresets", 5, nil)
	check(t, "empty coresets", 5, []*VCCoreset{})
	check(t, "all-empty coresets", 5, []*VCCoreset{{}, {Fixed: []graph.ID{}, Residual: []graph.Edge{}}, {}})
	check(t, "n=0", 0, []*VCCoreset{{}, {}})
	check(t, "fixed only, overlapping", 6, []*VCCoreset{{Fixed: []graph.ID{4, 1, 4}}, {Fixed: []graph.ID{1, 0}}})
	check(t, "residual onto another machine's fixed vertex", 6, []*VCCoreset{
		{Fixed: []graph.ID{2}, Residual: []graph.Edge{{U: 0, V: 1}}},
		{Fixed: []graph.ID{5}, Residual: []graph.Edge{{U: 1, V: 2}, {U: 3, V: 2}, {U: 4, V: 4}}},
	})

	r := rng.New(1705)
	for trial := 0; trial < 400; trial++ {
		n, k := 1+r.Intn(40), r.Intn(6)
		check(t, fmt.Sprintf("trial %d (n=%d k=%d)", trial, n, k), n, randomCoresets(r, n, k))
	}
}

// TestFromMatchingMatchesReference: reading the cover off the mate array
// gives the slice the sort of the matched edges' endpoints gave, on edge
// lists with parallel edges, self-loops and either orientation.
func TestFromMatchingMatchesReference(t *testing.T) {
	r := rng.New(1708)
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(40)
		var edges []graph.Edge
		if n > 0 {
			for j := r.Intn(3 * n); j > 0; j-- {
				edges = append(edges, graph.Edge{U: graph.ID(r.Intn(n)), V: graph.ID(r.Intn(n))})
			}
		}
		if got, want := vcover.FromMatching(n, edges), refFromMatching(n, edges); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, %d edges): got %v, reference %v", trial, n, len(edges), got, want)
		}
	}
}
