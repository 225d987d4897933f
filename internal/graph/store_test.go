package graph

import (
	"slices"
	"testing"
)

// storeEdges is a deterministic multigraph edge sequence on n vertices, long
// enough (past a few blocks when m says so) to cross every chunk boundary the
// store has.
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
	for _, m := range []int{0, 1, BlockEdges - 1, BlockEdges, BlockEdges + 1, 3*BlockEdges + 17} {
		want := storeEdges(500, m)
		var s EdgeStore
		for _, e := range want {
			s.Append(e)
		}
		if s.Len() != m {
			t.Fatalf("m=%d: Len = %d", m, s.Len())
		}
		// Edges copies into a slice of the free list's size classes: its
		// capacity passes its length by at most 1/16.
		got := s.Edges()
		if got == nil || cap(got)-len(got) > len(got)/16 || !slices.Equal(got, want) {
			t.Fatalf("m=%d: Edges is not the arrival sequence in a slice of its size class (len %d cap %d)", m, len(got), cap(got))
		}
		if !slices.Equal(slices.Concat(s.Chunks()...), want) {
			t.Fatalf("m=%d: Chunks do not hold the arrival sequence", m)
		}
		held := 0
		for _, c := range s.chunks {
			if cap(c) != BlockEdges {
				t.Fatalf("m=%d: chunk of %d edges, not a block", m, cap(c))
			}
			held += cap(c)
		}
		if held-m >= BlockEdges {
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
	flat := storeEdges(n, 8*BlockEdges+999)
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

// The store's order test is tracked as edges arrive, never by a pass; it must
// agree with a pass over what the store holds after any Append and Prune,
// on a borrowed slice, and once a prune takes the one edge out of order out.
func TestEdgeStoreTracksOrder(t *testing.T) {
	const n = 64
	agree := func(what string, s *EdgeStore) {
		t.Helper()
		if s.Sorted() != EdgesSorted(s.Edges()) {
			t.Fatalf("%s: Sorted() = %v over %d edges that a pass finds otherwise", what, s.Sorted(), s.Len())
		}
	}
	sorted := storeEdges(n, 12*BlockEdges+5)
	SortEdges(sorted)
	unsorted := storeEdges(n, 2000)
	for _, part := range [][]Edge{nil, sorted[:1], sorted, unsorted} {
		agree("borrowed", BorrowEdges(part))
	}

	var s EdgeStore
	agree("empty", &s)
	dead, deg := make([]bool, n), make([]int32, n)
	x := uint32(7)
	for step := range 400 {
		x = x*1664525 + 1013904223
		switch r := x >> 24; {
		case r < 8:
			for v := range dead {
				dead[v] = false
			}
			dead[x>>8%n] = true
			s.Prune(dead, deg)
		case r < 200:
			s.Append(sorted[step*37%len(sorted)]) // in order most of the time
		default:
			s.Append(Edge{U: ID(x >> 8 % n), V: ID(x >> 16 % n)})
		}
		agree("after step", &s)
	}

	// One edge out of order, then a prune that drops it.
	s = EdgeStore{}
	for _, e := range []Edge{{U: 1, V: 2}, {U: 5, V: 0}, {U: 2, V: 3}, {U: 2, V: 9}} {
		s.Append(e)
	}
	agree("one inversion", &s)
	if s.Sorted() {
		t.Fatal("a store holding (5,0) before (2,3) reports sorted")
	}
	clear(dead)
	dead[5] = true
	s.Prune(dead, deg)
	agree("inversion pruned", &s)
	if !s.Sorted() {
		t.Fatal("the prune took the inversion out, yet the store reports unsorted")
	}
	b := BorrowEdges([]Edge{{U: 1, V: 2}, {U: 5, V: 0}, {U: 2, V: 3}})
	b.Prune(dead, deg)
	agree("borrowed inversion pruned", b)
	// Equal first endpoints order by the second.
	s = EdgeStore{}
	s.Append(Edge{U: 2, V: 5})
	s.Append(Edge{U: 2, V: 5})
	agree("a parallel copy", &s)
	s.Append(Edge{U: 2, V: 3})
	agree("second endpoints out of order", &s)
}

// However large the shard, the store holds room for under one block (1024
// edges, 8 KiB) beyond what it stores.
func TestEdgeStoreSlack(t *testing.T) {
	for _, m := range []int{1, 31, 33, 5_000, 20_000, 525_000} {
		var s EdgeStore
		for range m {
			s.Append(Edge{})
		}
		held := 0
		for _, c := range s.chunks {
			held += cap(c)
		}
		if held-m >= BlockEdges {
			t.Fatalf("%d edges: chunks hold room for %d", m, held)
		}
	}
}

// Release leaves an empty store that works as a fresh one, and blocks cycle
// through the free list: a store filled again after a Release allocates
// (about) no blocks. The race detector drops a random quarter of what a Pool
// is handed, so the bound only asks that at least half the blocks come back.
func TestEdgeStoreReleaseReusesBlocks(t *testing.T) {
	const blocksHeld = 32
	edges := storeEdges(100, blocksHeld*BlockEdges)
	var s EdgeStore
	fill := func() {
		for _, e := range edges {
			s.Append(e)
		}
	}
	fill()
	s.Release()
	if s.Len() != 0 || s.Edges() == nil || !s.Sorted() || len(s.Chunks()) != 0 {
		t.Fatal("a released store must read as empty")
	}
	fill()
	if !slices.Equal(s.Edges(), edges) {
		t.Fatal("a store refilled after Release lost arrival order")
	}
	s.Release()
	// Each cycle also grows the chunk list itself, about log2(blocksHeld)
	// allocations.
	got := testing.AllocsPerRun(20, func() { fill(); s.Release() })
	t.Logf("%.1f allocations per fill of %d blocks", got, blocksHeld)
	if got > 10+blocksHeld/2 {
		t.Fatalf("a fill of %d blocks after a Release allocates %.1f times", blocksHeld, got)
	}
}

// A borrowed slice is the caller's: releasing the store, pruned or not, never
// puts it on the free list, even when its capacity is exactly a block's.
func TestEdgeStoreReleaseNeverPoolsBorrowed(t *testing.T) {
	part := storeEdges(50, BlockEdges)
	before := slices.Clone(part)
	dead, deg := make([]bool, 50), make([]int32, 50)
	dead[7] = true
	for _, prune := range []bool{false, true} {
		s := BorrowEdges(part)
		if prune {
			s.Prune(dead, deg)
		}
		s.Release()
		var held [][]Edge
		for range 64 {
			b := GetBlock()
			if &b[:1][0] == &part[0] {
				t.Fatalf("prune=%v: GetBlock handed out the borrowed slice", prune)
			}
			held = append(held, b)
		}
		for _, b := range held {
			PutBlock(b)
		}
	}
	if !slices.Equal(part, before) {
		t.Fatal("the borrowed slice was written")
	}
}
