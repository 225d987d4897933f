package matching

import "repro/internal/graph"

// Incremental maintains a maximal matching of a growing edge multiset under
// one-pass insertions: an arriving edge is matched iff both endpoints are
// currently free. This is the classic streaming greedy matcher — O(1) work
// per edge, one table entry per vertex ID, sized once when the caller knows
// the vertex count and grown to the largest matched ID when it does not —
// and its size is always within a factor 2 of the maximum matching of the
// edges seen so far.
//
// The streaming coreset runtime (internal/stream) runs one Incremental per
// machine as live telemetry while edges arrive; the exact Theorem 1 summary
// is computed at end-of-stream on the machine's stored partition. Incremental
// is not safe for concurrent use.
type Incremental struct {
	mate []uint32 // partner + 1, 0 while free; grows past n to the largest matched ID
	size int
}

// NewIncremental returns an empty incremental matcher whose table holds the
// vertex IDs below n; a larger ID grows it.
func NewIncremental(n int) *Incremental {
	return &Incremental{mate: make([]uint32, max(n, 0))}
}

// Add offers edge e to the matching and reports whether it was matched.
// Self-loops are never matched.
func (im *Incremental) Add(e graph.Edge) bool {
	if e.U == e.V || im.Covers(e.U) || im.Covers(e.V) {
		return false
	}
	if n := int(max(e.U, e.V)) + 1 - len(im.mate); n > 0 {
		im.mate = append(im.mate, make([]uint32, n)...)
	}
	im.mate[e.U] = uint32(e.V) + 1
	im.mate[e.V] = uint32(e.U) + 1
	im.size++
	return true
}

// Size returns the current matching size.
func (im *Incremental) Size() int { return im.size }

// Covers reports whether v is matched.
func (im *Incremental) Covers(v graph.ID) bool {
	return int(v) < len(im.mate) && im.mate[v] != 0
}
