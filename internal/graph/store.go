package graph

import "sync"

// BlockEdges is the number of edges in one block of the free list (8 KiB):
// the chunk size of every EdgeStore and the routed batch size a pass uses by
// default (stream.DefaultBatchSize).
const BlockEdges = 1024

// blocks is the process-wide free list of edge blocks. The model grants each
// machine the same O(m/k) memory in every run, so a machine's shard chunks
// and routing batches are drawn from here and handed back when the machine is
// done with them, instead of being allocated afresh per job. Pointers to
// arrays, so that a Put boxes nothing.
var blocks = sync.Pool{New: func() any { return new([BlockEdges]Edge) }}

// GetBlock returns an empty slice of capacity BlockEdges over a block taken
// from the free list. The block's old contents are garbage: read only what
// has been appended or written since.
func GetBlock() []Edge { return blocks.Get().(*[BlockEdges]Edge)[:0] }

// PutBlock hands b's block back to the free list; b must start where a
// GetBlock slice does, and nothing may read or write the block afterwards. A
// slice of any capacity but BlockEdges is left to the GC, so a batch sized
// past a block, or a caller's slice, is never pooled. A block that is never
// put back (a machine dropped by cancellation) is simply collected.
func PutBlock(b []Edge) {
	if cap(b) == BlockEdges {
		blocks.Put((*[BlockEdges]Edge)(b[:BlockEdges]))
	}
}

// EdgeStore holds one machine's shard in arrival order without ever copying
// an edge it has stored: edges go into blocks from the free list (GetBlock),
// and a full block is followed by a new one instead of being re-grown. It is
// what the per-machine builders keep their O(m/k) partition in — an
// append-grown slice of the same edges allocates about five times what it
// ends up holding — and a shard costs the 8 bytes per edge it holds plus
// under one block of slack. Prune returns the blocks it empties and Release
// the rest, so the next machine's store reuses them. It also knows, without a
// pass, whether what it appended is in SortEdges order: each Append compares
// the edge with the one before it.
//
// The zero value is an empty store.
type EdgeStore struct {
	chunks   [][]Edge // arrival order; every chunk but the last is full
	spare    [][]Edge // own chunks Prune is compacting into: grow takes these first
	borrowed bool     // chunks[0] is a caller's slice: never written, never released
	last     Edge     // the last edge held (the zero edge, the least, when empty)
	unsorted bool     // an appended edge precedes the one before it in SortEdges order
}

// BorrowEdges returns a store over part without copying it. The store only
// reads the slice: Prune moves the survivors into blocks of its own, and
// Release never hands the slice to the free list.
func BorrowEdges(part []Edge) *EdgeStore {
	s := &EdgeStore{borrowed: true}
	if len(part) > 0 {
		s.chunks = [][]Edge{part[:len(part):len(part)]}
		s.last = part[len(part)-1]
	}
	return s
}

// Append stores e after every edge stored so far.
func (s *EdgeStore) Append(e Edge) {
	t := len(s.chunks) - 1
	if t < 0 || len(s.chunks[t]) == cap(s.chunks[t]) {
		s.grow()
		t++
	}
	s.chunks[t] = append(s.chunks[t], e)
	s.unsorted = s.unsorted || e.U < s.last.U || e.U == s.last.U && e.V < s.last.V
	s.last = e
}

// grow opens the next chunk.
func (s *EdgeStore) grow() {
	if len(s.spare) > 0 {
		s.chunks = append(s.chunks, s.spare[0][:0])
		s.spare = s.spare[1:]
		return
	}
	s.chunks = append(s.chunks, GetBlock())
}

// Len returns the number of edges held.
func (s *EdgeStore) Len() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n
}

// Edges returns a copy of the held edges, in arrival order, exactly their
// number long (non-nil when empty), in a slice from the free list of edge
// slices (GetEdges): the caller owns it, and may hand it back with PutEdges
// once nothing reads it, for the next copy to reuse.
func (s *EdgeStore) Edges() []Edge {
	out := GetEdges(s.Len())[:0]
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// Sorted reports whether the held edges are in the order SortEdges leaves
// them in. Append and Prune keep the answer as they go; only a borrowed
// slice, until the first prune moves it out, is scanned when asked.
func (s *EdgeStore) Sorted() bool {
	return !s.unsorted && (!s.borrowed || len(s.chunks) == 0 || EdgesSorted(s.chunks[0]))
}

// Chunks returns the held edges, in arrival order, as the store's own
// chunks, for a reader that takes its edges in pieces (BuildAdj,
// matching.Maximum). The chunks must not be written, and are valid until the
// next Append, Prune or Release.
func (s *EdgeStore) Chunks() [][]Edge { return s.chunks }

// AddDegrees adds every held edge to the degree table deg, counted as
// BuildAdj counts it: a parallel edge once per copy, a self-loop twice.
func (s *EdgeStore) AddDegrees(deg []int32) {
	for _, c := range s.chunks {
		for _, e := range c {
			deg[e.U]++
			deg[e.V]++
		}
	}
}

// Prune drops every edge with a dead endpoint, keeping the rest in arrival
// order, and in the same pass recounts deg as the survivors' degrees. The
// store compacts into its own chunks — the k-th survivor lands where the
// k-th edge was, so a write never passes the read cursor — and hands the
// blocks it empties back to the free list. A borrowed store moves the
// survivors into blocks of its own instead, and owns them from then on. The
// survivors are appended anew, which tests their order.
func (s *EdgeStore) Prune(dead []bool, deg []int32) {
	clear(deg)
	old := s.chunks
	s.chunks, s.last, s.unsorted = nil, Edge{}, false
	if s.borrowed {
		s.borrowed = false
	} else {
		s.spare = old
	}
	for _, c := range old {
		for _, e := range c {
			if dead[e.U] || dead[e.V] {
				continue
			}
			deg[e.U]++
			deg[e.V]++
			s.Append(e)
		}
	}
	for _, c := range s.spare {
		PutBlock(c)
	}
	s.spare = nil
}

// Release hands the store's blocks back to the free list and leaves it empty.
// Whatever was read out of the store in place (Chunks) must be done with; a
// copy (Edges) is the caller's. A borrowed slice is never released.
func (s *EdgeStore) Release() {
	if !s.borrowed {
		for _, c := range s.chunks {
			PutBlock(c)
		}
	}
	*s = EdgeStore{}
}
