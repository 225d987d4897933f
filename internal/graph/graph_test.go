package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestEdgeCanon(t *testing.T) {
	if got := (Edge{3, 1}).Canon(); got != (Edge{1, 3}) {
		t.Fatalf("Canon(3,1) = %v", got)
	}
	if got := (Edge{1, 3}).Canon(); got != (Edge{1, 3}) {
		t.Fatalf("Canon(1,3) = %v", got)
	}
}

func TestValidate(t *testing.T) {
	good := New(4, []Edge{{0, 1}, {2, 3}, {3, 1}})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	bad := []*Graph{
		{N: 2, Edges: []Edge{{0, 2}}},         // out of range
		{N: 2, Edges: []Edge{{1, 1}}},         // self-loop
		{N: 3, Edges: []Edge{{2, 0}}},         // not canonical
		{N: -1, Edges: nil},                   // negative n
		{N: 2, Edges: []Edge{{-1, 0}}},        // negative id
		{N: 3, Edges: []Edge{{0, 1}, {1, 5}}}, // second edge bad
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad graph %d accepted", i)
		}
	}
}

func TestDedupEdges(t *testing.T) {
	edges := []Edge{{1, 0}, {0, 1}, {2, 3}, {3, 2}, {0, 1}, {1, 2}}
	got := DedupEdges(edges)
	want := []Edge{{0, 1}, {1, 2}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DedupEdges = %v, want %v", got, want)
	}
}

func TestUnionEdgesIsMultiset(t *testing.T) {
	a := []Edge{{0, 1}}
	b := []Edge{{0, 1}, {1, 2}}
	u := UnionEdges(a, b)
	if len(u) != 3 {
		t.Fatalf("UnionEdges must not dedup: len = %d", len(u))
	}
}

func TestDegrees(t *testing.T) {
	deg := Degrees(4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	want := []int32{3, 2, 2, 1}
	if !reflect.DeepEqual(deg, want) {
		t.Fatalf("Degrees = %v, want %v", deg, want)
	}
	if MaxDegree(4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}}) != 3 {
		t.Fatal("MaxDegree wrong")
	}
	if MaxDegree(3, nil) != 0 {
		t.Fatal("MaxDegree of empty graph should be 0")
	}
}

func TestBuildAdjSmall(t *testing.T) {
	a := BuildAdj(4, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
	if a.M() != 4 {
		t.Fatalf("M = %d", a.M())
	}
	wantDeg := []int{2, 2, 3, 1}
	for v, d := range wantDeg {
		if a.Degree(ID(v)) != d {
			t.Errorf("Degree(%d) = %d, want %d", v, a.Degree(ID(v)), d)
		}
	}
	nb := append([]ID(nil), a.Neighbors(2)...)
	seen := map[ID]bool{}
	for _, w := range nb {
		seen[w] = true
	}
	for _, w := range []ID{0, 1, 3} {
		if !seen[w] {
			t.Errorf("neighbor %d of 2 missing", w)
		}
	}
}

func TestBuildAdjParallelEdges(t *testing.T) {
	a := BuildAdj(2, []Edge{{0, 1}, {0, 1}})
	if a.Degree(0) != 2 || a.Degree(1) != 2 {
		t.Fatal("parallel edges must contribute to degree twice")
	}
}

func TestAdjDegreeSumProperty(t *testing.T) {
	r := rng.New(1)
	f := func(nRaw uint8, mRaw uint16) bool {
		n := int(nRaw%50) + 2
		m := int(mRaw % 200)
		edges := make([]Edge, 0, m)
		for i := 0; i < m; i++ {
			u := ID(r.Intn(n))
			v := ID(r.Intn(n))
			if u == v {
				continue
			}
			edges = append(edges, Edge{u, v}.Canon())
		}
		a := BuildAdj(n, edges)
		sum := 0
		for v := 0; v < n; v++ {
			sum += a.Degree(ID(v))
		}
		return sum == 2*len(edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIsBipartite(t *testing.T) {
	// Even cycle: bipartite.
	c4 := BuildAdj(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	if side, ok := c4.IsBipartiteWithSides(nil); !ok {
		t.Fatal("C4 should be bipartite")
	} else {
		for _, e := range []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}} {
			if side[e.U] == side[e.V] {
				t.Fatalf("edge %v not crossing sides", e)
			}
		}
	}
	// Odd cycle: not bipartite.
	c5 := BuildAdj(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}})
	if _, ok := c5.IsBipartiteWithSides(nil); ok {
		t.Fatal("C5 should not be bipartite")
	}
	// Disconnected graph with isolated vertices.
	g := BuildAdj(6, []Edge{{0, 1}, {3, 4}})
	if _, ok := g.IsBipartiteWithSides(nil); !ok {
		t.Fatal("forest should be bipartite")
	}
}

func TestResidualPeeling(t *testing.T) {
	// Star K_{1,4} plus a pendant path.
	edges := []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {4, 5}}
	r := NewResidual(6, edges)
	if r.Degree(0) != 4 || r.Degree(4) != 2 {
		t.Fatal("initial degrees wrong")
	}
	peeled := r.RemoveAtLeast(3)
	if len(peeled) != 1 || peeled[0] != 0 {
		t.Fatalf("RemoveAtLeast(3) = %v, want [0]", peeled)
	}
	if r.Degree(4) != 1 {
		t.Fatalf("degree of 4 after peel = %d, want 1", r.Degree(4))
	}
	live := r.LiveEdges()
	if len(live) != 1 || live[0] != (Edge{4, 5}) {
		t.Fatalf("LiveEdges = %v, want [{4 5}]", live)
	}
	if r.LiveEdgeCount() != 1 {
		t.Fatal("LiveEdgeCount mismatch")
	}
}

func TestResidualRemoveIdempotent(t *testing.T) {
	r := NewResidual(3, []Edge{{0, 1}, {1, 2}})
	r.Remove(1)
	r.Remove(1) // no-op
	if r.Degree(0) != 0 || r.Degree(2) != 0 {
		t.Fatal("degrees after removing center should be 0")
	}
	if r.LiveEdgeCount() != 0 {
		t.Fatal("no live edges expected")
	}
}

func TestResidualMaxDegree(t *testing.T) {
	r := NewResidual(4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	if r.MaxDegree() != 3 {
		t.Fatal("MaxDegree != 3")
	}
	r.Remove(0)
	if r.MaxDegree() != 0 {
		t.Fatal("MaxDegree after removal != 0")
	}
}

func TestResidualThresholdSemantics(t *testing.T) {
	// Path 0-1-2-3: degrees 1,2,2,1. Peeling >=2 removes both middle
	// vertices in one iteration (selection happens before any removal).
	r := NewResidual(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	peeled := r.RemoveAtLeast(2)
	if len(peeled) != 2 {
		t.Fatalf("peeled = %v, want the two middle vertices", peeled)
	}
}

func TestBipartiteValidateAndConvert(t *testing.T) {
	b := NewBipartite(2, 3, []Edge{{0, 0}, {1, 2}})
	if err := b.Validate(); err != nil {
		t.Fatalf("valid bipartite rejected: %v", err)
	}
	if b.N() != 5 || b.M() != 2 {
		t.Fatal("size accessors wrong")
	}
	g := b.ToGraph()
	if err := g.Validate(); err != nil {
		t.Fatalf("converted graph invalid: %v", err)
	}
	want := []Edge{{0, 2}, {1, 4}}
	if !reflect.DeepEqual(g.Edges, want) {
		t.Fatalf("ToGraph edges = %v, want %v", g.Edges, want)
	}

	bad := NewBipartite(2, 2, []Edge{{0, 2}})
	if err := bad.Validate(); err == nil {
		t.Fatal("right endpoint out of range accepted")
	}
	bad2 := NewBipartite(1, 2, []Edge{{1, 0}})
	if err := bad2.Validate(); err == nil {
		t.Fatal("left endpoint out of range accepted")
	}
}

func TestFromGraphSidesRoundTrip(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
	a := BuildAdj(4, edges)
	side, ok := a.IsBipartiteWithSides(nil)
	if !ok {
		t.Fatal("C4 bipartite")
	}
	b, left, right := FromGraphSides(4, edges, side)
	if err := b.Validate(); err != nil {
		t.Fatalf("FromGraphSides produced invalid graph: %v", err)
	}
	if b.M() != len(edges) {
		t.Fatal("edge count changed")
	}
	// Every bipartite edge must map back to an original edge.
	orig := map[Edge]bool{}
	for _, e := range edges {
		orig[e] = true
	}
	for _, e := range b.Edges {
		back := Edge{left[e.U], right[e.V]}.Canon()
		if !orig[back] {
			t.Fatalf("edge %v maps back to %v, not in original", e, back)
		}
	}
}

func TestEncodeDecodeIDsRoundTrip(t *testing.T) {
	ids := []ID{0, 1, 127, 128, 1 << 20, 1<<31 - 1}
	enc := AppendIDs(nil, ids)
	if len(enc) != EncodedIDBytes(ids) {
		t.Fatal("EncodedIDBytes mismatch")
	}
	dec, rest, err := DecodeIDs(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode failed: %v", err)
	}
	if !reflect.DeepEqual(dec, ids) {
		t.Fatalf("roundtrip = %v, want %v", dec, ids)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, _, err := DecodeIDs(nil); err == nil {
		t.Fatal("decoding empty id buffer should fail")
	}
	if _, _, err := DecodeIDs([]byte{0xff}); err == nil {
		t.Fatal("decoding truncated varint should fail")
	}
	// Valid count but missing ids.
	if _, _, err := DecodeIDs([]byte{5, 1}); err == nil {
		t.Fatal("decoding short buffer should fail")
	}
}

func TestEdgeListIORoundTrip(t *testing.T) {
	g := New(6, []Edge{{0, 1}, {2, 5}, {3, 4}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != g.N || !reflect.DeepEqual(got.Edges, g.Edges) {
		t.Fatalf("roundtrip = %+v, want %+v", got, g)
	}
}

func TestReadEdgeListNoHeader(t *testing.T) {
	in := "# comment\n% another\n0 1\n3 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 {
		t.Fatalf("inferred N = %d, want 4", g.N)
	}
	want := []Edge{{0, 1}, {2, 3}}
	if !reflect.DeepEqual(g.Edges, want) {
		t.Fatalf("edges = %v, want %v", g.Edges, want)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"p 2\n",                          // malformed header
		"0 x\n",                          // malformed edge
		"p 2 1\n0 1\n0 1\n",              // count mismatch
		"p 1 1\n0 5\n",                   // edge out of declared range
		"-1 0\n",                         // negative id
		"p 2 4611686018427387904\n0 1\n", // a count no allocation can hold: was a makeslice panic
	}
	for i, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted: %q", i, in)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(3, []Edge{{0, 1}})
	c := g.Clone()
	c.Edges[0] = Edge{1, 2}
	if g.Edges[0] != (Edge{0, 1}) {
		t.Fatal("Clone shares edge storage")
	}
}
