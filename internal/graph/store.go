package graph

// EdgeStore holds one machine's shard in arrival order without ever copying
// an edge it has stored: edges go into fixed chunks, and a full chunk is
// followed by a new one instead of being re-grown. It is what the per-machine
// builders keep their O(m/k) partition in — an append-grown slice of the
// same edges allocates about five times what it ends up holding.
//
// The zero value is an empty store.
type EdgeStore struct {
	chunks   [][]Edge // arrival order; every chunk but the last is full
	spare    [][]Edge // own chunks Prune is compacting into: grow takes these first
	borrowed bool     // chunks[0] is a caller's slice and must never be written
}

// Chunk capacities in edges. The first chunk is small so that a ten-edge
// shard (most tests, the tail machines of a multi-round schedule) does not
// pay for a large one; capacities then double up to maxChunk, which keeps the
// unused tail of the last chunk under 256 KiB however large the shard — a few
// per cent of a shard big enough to reach it.
const (
	minChunk = 32
	maxChunk = 1 << 15
)

// BorrowEdges returns a store over part without copying it. The store only
// reads the slice: Prune moves the survivors into chunks of its own.
func BorrowEdges(part []Edge) *EdgeStore {
	s := &EdgeStore{borrowed: true}
	if len(part) > 0 {
		s.chunks = [][]Edge{part[:len(part):len(part)]}
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
}

// grow opens the next chunk.
func (s *EdgeStore) grow() {
	if len(s.spare) > 0 {
		s.chunks = append(s.chunks, s.spare[0][:0])
		s.spare = s.spare[1:]
		return
	}
	size := minChunk
	if t := len(s.chunks); t > 0 {
		size = min(2*cap(s.chunks[t-1]), maxChunk)
	}
	s.chunks = append(s.chunks, make([]Edge, 0, size))
}

// Len returns the number of edges held.
func (s *EdgeStore) Len() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n
}

// Edges returns the held edges, in arrival order, in a fresh slice of exactly
// their number (non-nil when empty).
func (s *EdgeStore) Edges() []Edge {
	out := make([]Edge, 0, s.Len())
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

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
// k-th edge was, so a write never passes the read cursor — and releases the
// chunks it empties. A borrowed store moves the survivors into chunks of its
// own instead, and owns them from then on.
func (s *EdgeStore) Prune(dead []bool, deg []int32) {
	clear(deg)
	old := s.chunks
	s.chunks = nil
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
	s.spare = nil
}
