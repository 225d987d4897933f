package matching

import "repro/internal/graph"

// Incremental maintains a maximal matching of a growing edge multiset under
// one-pass insertions: an arriving edge is matched iff both endpoints are
// currently free. This is the classic streaming greedy matcher — O(1) work
// per edge, one table entry per vertex ID up to the largest matched one, no
// fixed vertex universe — and its size is always within a factor 2 of the
// maximum matching of the edges seen so far.
//
// The streaming coreset runtime (internal/stream) runs one Incremental per
// machine as live telemetry while edges arrive; the exact Theorem 1 summary
// is computed at end-of-stream on the machine's stored partition. Incremental
// is not safe for concurrent use.
type Incremental struct {
	mate []uint32 // partner + 1, 0 while free; grows to the largest matched ID
	size int
}

// NewIncremental returns an empty incremental matcher.
func NewIncremental() *Incremental {
	return &Incremental{}
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

// Edges returns the matched edges in canonical form (unspecified order).
func (im *Incremental) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, im.size)
	for u, w := range im.mate {
		if v := int(w) - 1; u < v {
			out = append(out, graph.Edge{U: graph.ID(u), V: graph.ID(v)})
		}
	}
	return out
}

// Matching converts the current state to a fixed-universe *Matching on n
// vertices. Panics (via index) if a matched endpoint is >= n.
func (im *Incremental) Matching(n int) *Matching {
	m := NewEmpty(n)
	for _, e := range im.Edges() {
		m.Add(e)
	}
	return m
}
