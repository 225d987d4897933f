package edcs

import (
	"fmt"

	"repro/internal/graph"
)

// refSubgraph is the map-and-slices EDCS builder that Subgraph's flat
// storage replaced, kept as a test-only reference: a Go map for dedup, a
// per-vertex slice of stored-edge indices, append-grown tables. The logic
// (hygiene, P2 admission, repair order, counters) is the original's line for
// line; TestDifferentialAgainstReference drives both with the same arrivals
// and demands equal observable state after every prefix.
type refSubgraph struct {
	p     Params
	edges []graph.Edge
	inH   []bool
	deg   []int32
	adj   [][]int32 // stored-edge indices incident to each vertex, arrival order
	size  int
	seen  map[graph.Edge]struct{}

	dirty       []graph.ID
	isDirty     []bool
	removals    int
	repairIters int
	peak        int
}

func newRef(nHint int, p Params) *refSubgraph {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if nHint < 0 {
		nHint = 0
	}
	return &refSubgraph{
		p:       p,
		deg:     make([]int32, nHint),
		adj:     make([][]int32, nHint),
		isDirty: make([]bool, nHint),
		seen:    make(map[graph.Edge]struct{}),
	}
}

func (s *refSubgraph) grow(v graph.ID) {
	for int(v) >= len(s.deg) {
		s.deg = append(s.deg, 0)
		s.adj = append(s.adj, nil)
		s.isDirty = append(s.isDirty, false)
	}
}

func (s *refSubgraph) Insert(e graph.Edge) {
	if e.U == e.V {
		return
	}
	c := e.Canon()
	if _, dup := s.seen[c]; dup {
		return
	}
	s.seen[c] = struct{}{}
	s.grow(e.U)
	s.grow(e.V)
	idx := int32(len(s.edges))
	s.edges = append(s.edges, e)
	s.inH = append(s.inH, false)
	s.adj[e.U] = append(s.adj[e.U], idx)
	s.adj[e.V] = append(s.adj[e.V], idx)
	if int(s.deg[e.U]+s.deg[e.V]) < s.p.BetaMinus {
		s.addH(idx)
		s.repair()
	}
}

func (s *refSubgraph) addH(j int32) {
	e := s.edges[j]
	s.inH[j] = true
	s.deg[e.U]++
	s.deg[e.V]++
	s.size++
	if s.size > s.peak {
		s.peak = s.size
	}
	s.markDirty(e.U)
	s.markDirty(e.V)
}

func (s *refSubgraph) removeH(j int32) {
	e := s.edges[j]
	s.inH[j] = false
	s.deg[e.U]--
	s.deg[e.V]--
	s.size--
	s.removals++
	s.markDirty(e.U)
	s.markDirty(e.V)
}

func (s *refSubgraph) markDirty(v graph.ID) {
	if !s.isDirty[v] {
		s.isDirty[v] = true
		s.dirty = append(s.dirty, v)
	}
}

func (s *refSubgraph) repair() {
	for len(s.dirty) > 0 {
		s.repairIters++
		v := s.dirty[len(s.dirty)-1]
		s.dirty = s.dirty[:len(s.dirty)-1]
		s.isDirty[v] = false
		for _, j := range s.adj[v] {
			e := s.edges[j]
			sum := int(s.deg[e.U] + s.deg[e.V])
			if s.inH[j] && sum > s.p.Beta {
				s.removeH(j)
			} else if !s.inH[j] && sum < s.p.BetaMinus {
				s.addH(j)
			}
		}
	}
}

func (s *refSubgraph) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, s.size)
	for j, in := range s.inH {
		if in {
			out = append(out, s.edges[j])
		}
	}
	graph.SortEdges(out)
	return out
}

// CheckInvariants is the original oracle: P1/P2 over every stored edge, edge
// hygiene, and a from-scratch recount of the H-degree table.
func (s *refSubgraph) CheckInvariants() error {
	seen := make(map[graph.Edge]struct{}, len(s.edges))
	recount := make([]int32, len(s.deg))
	for j, e := range s.edges {
		if e.U == e.V {
			return fmt.Errorf("ref: self-loop %v stored at index %d", e, j)
		}
		c := e.Canon()
		if _, dup := seen[c]; dup {
			return fmt.Errorf("ref: duplicate edge %v stored at index %d", e, j)
		}
		seen[c] = struct{}{}
		if s.inH[j] {
			recount[e.U]++
			recount[e.V]++
		}
		sum := int(s.deg[e.U] + s.deg[e.V])
		if s.inH[j] && sum > s.p.Beta {
			return fmt.Errorf("ref: P1 violated at edge %d=%v", j, e)
		}
		if !s.inH[j] && sum < s.p.BetaMinus {
			return fmt.Errorf("ref: P2 violated at edge %d=%v", j, e)
		}
	}
	for v, d := range recount {
		if d != s.deg[v] {
			return fmt.Errorf("ref: H-degree of vertex %d tracked as %d, recounts to %d", v, s.deg[v], d)
		}
	}
	return nil
}
