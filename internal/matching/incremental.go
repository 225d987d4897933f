package matching

import "repro/internal/graph"

// Incremental maintains a maximal matching of a growing edge multiset under
// one-pass insertions: an arriving edge is matched iff both endpoints are
// currently free. This is the classic streaming greedy matcher — O(1) work
// per edge, one bit per vertex ID, sized once when the caller knows the
// vertex count and grown to the largest matched ID when it does not — and
// its size is always within a factor 2 of the maximum matching of the edges
// seen so far.
//
// The streaming coreset runtime (internal/stream) runs one Incremental per
// machine as live telemetry while edges arrive; the exact Theorem 1 summary
// is computed at end-of-stream on the machine's stored partition. Only the
// size and the covered set are kept, not the partners. Incremental is not
// safe for concurrent use.
type Incremental struct {
	covered []uint64 // bit v set once v is matched; grows past n to the largest matched ID
	size    int
}

// NewIncremental returns an empty incremental matcher whose bitset holds the
// vertex IDs below n; a larger ID grows it.
func NewIncremental(n int) *Incremental {
	return &Incremental{covered: make([]uint64, (max(n, 0)+63)/64)}
}

// Add offers edge e to the matching and reports whether it was matched.
// Self-loops are never matched.
func (im *Incremental) Add(e graph.Edge) bool {
	if e.U == e.V || im.Covers(e.U) || im.Covers(e.V) {
		return false
	}
	if n := int(max(e.U, e.V))/64 + 1 - len(im.covered); n > 0 {
		im.covered = append(im.covered, make([]uint64, n)...)
	}
	im.covered[e.U/64] |= 1 << (e.U % 64)
	im.covered[e.V/64] |= 1 << (e.V % 64)
	im.size++
	return true
}

// Size returns the current matching size.
func (im *Incremental) Size() int { return im.size }

// Covers reports whether v is matched.
func (im *Incremental) Covers(v graph.ID) bool {
	return int(v/64) < len(im.covered) && im.covered[v/64]&(1<<(v%64)) != 0
}
