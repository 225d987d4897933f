package graph

import (
	"slices"
	"testing"
)

// storeEdges is a deterministic multigraph edge sequence on n vertices, long
// enough (past a few maxChunk chunks when m says so) to cross every chunk
// boundary the store has.
func storeEdges(n, m int) []Edge {
	out := make([]Edge, m)
	x := uint32(12345)
	for i := range out {
		x = x*1664525 + 1013904223
		u := ID(x >> 8 % uint32(n))
		x = x*1664525 + 1013904223
		out[i] = Edge{U: u, V: ID(x >> 8 % uint32(n))}
	}
	return out
}

// pruneRef is Prune's contract spelled out on a flat slice.
func pruneRef(n int, edges []Edge, dead []bool) (kept []Edge, deg []int32) {
	kept, deg = []Edge{}, make([]int32, n)
	for _, e := range edges {
		if !dead[e.U] && !dead[e.V] {
			kept = append(kept, e)
			deg[e.U]++
			deg[e.V]++
		}
	}
	return kept, deg
}

func TestEdgeStoreAppendKeepsArrivalOrder(t *testing.T) {
	for _, m := range []int{0, 1, minChunk, minChunk + 1, 1000, 3*maxChunk + 17} {
		want := storeEdges(500, m)
		var s EdgeStore
		for _, e := range want {
			s.Append(e)
		}
		if s.Len() != m {
			t.Fatalf("m=%d: Len = %d", m, s.Len())
		}
		got := s.Edges()
		if got == nil || len(got) != cap(got) || !slices.Equal(got, want) {
			t.Fatalf("m=%d: Edges is not the exact-sized arrival sequence (len %d cap %d)", m, len(got), cap(got))
		}
		if !slices.Equal(slices.Concat(s.Chunks()...), want) {
			t.Fatalf("m=%d: Chunks do not hold the arrival sequence", m)
		}
		held := 0
		for _, c := range s.chunks {
			if cap(c) > maxChunk {
				t.Fatalf("m=%d: chunk of %d edges above the cap", m, cap(c))
			}
			held += cap(c)
		}
		// Geometric growth up to the cap: room for under twice what is
		// stored while the chunks still double, and under one cap-sized
		// chunk beyond it once they no longer do.
		if held >= 2*m+minChunk && held >= m+maxChunk {
			t.Fatalf("m=%d: chunks hold room for %d edges", m, held)
		}
		deg := make([]int32, 500)
		s.AddDegrees(deg)
		if !slices.Equal(deg, Degrees(500, want)) {
			t.Fatalf("m=%d: AddDegrees disagrees with Degrees", m)
		}
	}
}

// Repeated in-place prunes over a store spanning many chunks, with appends in
// between, must match the flat-slice contract every time, and release the
// chunks they empty.
func TestEdgeStorePruneInPlace(t *testing.T) {
	const n = 400
	flat := storeEdges(n, 2*maxChunk+999)
	var s EdgeStore
	for _, e := range flat {
		s.Append(e)
	}
	chunksBefore := len(s.chunks)
	dead := make([]bool, n)
	deg := make([]int32, n)
	for round, kill := range [][]ID{{}, {3, 77}, {0, 1, 2, 399}, {5}} {
		for _, v := range kill {
			dead[v] = true
		}
		for i := range deg {
			deg[i] = -7 // Prune must overwrite, not accumulate
		}
		s.Prune(dead, deg)
		var wantDeg []int32
		flat, wantDeg = pruneRef(n, flat, dead)
		if !slices.Equal(s.Edges(), flat) || !slices.Equal(deg, wantDeg) {
			t.Fatalf("round %d: pruned store diverges from the flat filter (%d vs %d edges)", round, s.Len(), len(flat))
		}
		extra := storeEdges(n, 100+round)
		for _, e := range extra {
			s.Append(e)
		}
		flat = append(flat, extra...)
		if !slices.Equal(s.Edges(), flat) {
			t.Fatalf("round %d: appends after a prune left arrival order", round)
		}
	}
	for v := range dead {
		dead[v] = v%4 != 0
	}
	s.Prune(dead, deg)
	flat, _ = pruneRef(n, flat, dead)
	if !slices.Equal(s.Edges(), flat) {
		t.Fatal("heavy prune diverges from the flat filter")
	}
	if len(s.chunks) >= chunksBefore {
		t.Fatalf("a prune down to %d edges kept %d of %d chunks", s.Len(), len(s.chunks), chunksBefore)
	}
	for i := range dead {
		dead[i] = true
	}
	s.Prune(dead, deg)
	if s.Len() != 0 || len(s.Edges()) != 0 || s.Edges() == nil {
		t.Fatal("pruning everything must leave an empty store and a non-nil empty edge list")
	}
}

// A borrowed store reads the caller's slice and never writes it: pruning
// moves the survivors out, after which the store is an ordinary one.
func TestEdgeStoreBorrowedIsNeverWritten(t *testing.T) {
	const n = 300
	part := storeEdges(n, 5000)
	before := slices.Clone(part)
	s := BorrowEdges(part)
	if s.Len() != len(part) || !slices.Equal(s.Edges(), part) {
		t.Fatal("borrowed store does not read as its slice")
	}
	dead, deg := make([]bool, n), make([]int32, n)
	flat := part
	for _, v := range []ID{1, 50, 299} {
		dead[v] = true
		s.Prune(dead, deg)
		var wantDeg []int32
		flat, wantDeg = pruneRef(n, flat, dead)
		if !slices.Equal(s.Edges(), flat) || !slices.Equal(deg, wantDeg) {
			t.Fatalf("after killing %d: borrowed prune diverges from the flat filter", v)
		}
		if !slices.Equal(part, before) {
			t.Fatalf("after killing %d: the borrowed slice was written", v)
		}
	}
	if e := BorrowEdges(nil); e.Len() != 0 || e.Edges() == nil {
		t.Fatal("an empty borrowed store must read as empty")
	}
}
