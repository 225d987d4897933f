// Package edcs implements the edge-degree constrained subgraph (EDCS)
// randomized composable coreset for maximum matching, following
//
//	Assadi, Bateni, Bernstein, Mirrokni, Stein.
//	"Coresets Meet EDCS: Algorithms for Matching and Vertex Cover on
//	Massive Graphs" (arXiv:1711.03076).
//
// A subgraph H of G is an EDCS(G, β, β⁻) if
//
//	(P1) every edge (u,v) ∈ H has deg_H(u) + deg_H(v) ≤ β, and
//	(P2) every edge (u,v) ∈ G \ H has deg_H(u) + deg_H(v) ≥ β⁻,
//
// where deg_H counts edges of H (an edge contributes to its own endpoints'
// degrees for P1). An EDCS has at most n·β/2 edges, and the paper shows the
// union of per-machine EDCSs over a random k-partitioning contains a
// (3/2+ε)-approximate maximum matching — a strictly better approximation
// than the O(1) of the SPAA'17 maximum-matching coreset (Theorem 1 in
// internal/core), at the same O(n·polylog) coreset size.
//
// The construction here is the edge-insertion algorithm with
// degree-constraint repair: edges arrive one at a time; an arriving edge
// whose H-degrees would violate P2 is added to H, and each mutation repairs
// the invariants locally (an overfull H-edge is removed, an underfull
// non-H-edge is added) until both hold again. Termination follows from the
// standard potential argument — every repair step strictly increases
// Φ(H) = (β − 1/2)·Σ_v deg_H(v) − Σ_{(u,v)∈H} (deg_H(u) + deg_H(v)),
// which is bounded — and violations are located and fixed in a fixed
// deterministic order, so the resulting H is a pure function of the arrival
// sequence. Insertion applies edge hygiene first: self-loops (useless to a
// matching, and a +2 skew on one endpoint's degree) and parallel duplicates
// (two indices that could both enter H) are dropped before they can touch
// the degree tables. All four
// runtimes (batch, stream, cluster, service) feed a machine's partition in
// the same order, which is what makes EDCS coresets bit-for-bit identical
// across them (see TestSeedParityAcrossRuntimes in internal/cluster).
package edcs

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// DefaultBeta is the degree bound used when a caller does not choose one.
// The paper's analysis wants β = O(poly(log n, 1/ε)); 64 keeps per-machine
// subgraphs at most 32·n edges while leaving P2 enough room to force a dense
// core on the workloads in this repository.
const DefaultBeta = 64

// MaxBeta is the sanity cap every user-facing surface (CLI flag, service
// request, cluster HELLO frame) applies to the degree bound; β is
// O(polylog) in the paper, so anything near this cap is already nonsense.
const MaxBeta = 1 << 20

// Params are the EDCS degree constraints. Valid parameters satisfy
// 1 ≤ BetaMinus < Beta; the paper uses β⁻ = (1−λ)β for a small spectral
// slack λ.
type Params struct {
	Beta      int // P1: deg_H(u) + deg_H(v) ≤ Beta for H-edges
	BetaMinus int // P2: deg_H(u) + deg_H(v) ≥ BetaMinus for non-H-edges
}

// Validate rejects parameter pairs for which no EDCS need exist.
func (p Params) Validate() error {
	if p.Beta < 2 || p.BetaMinus < 1 || p.BetaMinus >= p.Beta {
		return fmt.Errorf("edcs: invalid params (beta=%d, betaMinus=%d; need 1 <= betaMinus < beta, beta >= 2)",
			p.Beta, p.BetaMinus)
	}
	return nil
}

// ParamsForBeta returns the canonical parameters for a degree bound: the
// paper's β⁻ = (1−λ)β with λ = 1/4, clamped into validity. Beta values
// below 2 fall back to DefaultBeta.
func ParamsForBeta(beta int) Params {
	if beta < 2 {
		beta = DefaultBeta
	}
	bm := beta - beta/4
	if bm >= beta {
		bm = beta - 1
	}
	return Params{Beta: beta, BetaMinus: bm}
}

// Storage geometry. Stored edges live in fixed-size chunks that are never
// copied, so the bytes the builder allocates are the bytes it holds: a slice
// grown by doubling allocates (and discards) as much again whenever a shard
// crosses a power of two.
const (
	chunkBits = 12
	chunkSize = 1 << chunkBits // stored edges per chunk
	minIndex  = 256            // slots in the smallest index table
)

// ref names a stored edge: its arrival index plus one. The zero ref means
// "none" — an empty index slot, the end of an incidence list — so freshly
// allocated tables are valid as they come.
type ref = uint32

// slot is one stored edge together with everything repair reads about it,
// side by side so that visiting an edge touches one place, not three tables.
type slot struct {
	e    graph.Edge
	next [2]ref // the next stored edge incident to e.U and to e.V
	inH  bool
}

// Subgraph is the dynamic EDCS state: edges are inserted one at a time and
// the degree constraints are repaired after every mutation. The zero value
// is not usable; construct with New.
//
// Storage is flat. Stored edges sit in arrival order in chunks of chunkSize
// slots; each vertex threads its incident slots into an intrusive list
// (head, tail, and one next link per endpoint inside the slot), appended at
// the tail so that repair scans a vertex's edges in arrival order; and an
// open-addressed table of refs, keyed by canonical endpoints, answers the
// duplicate check. Per stored edge that is one 20-byte slot plus 5–11 bytes
// of index, and an allocation once per chunk or table doubling, never per
// edge.
type Subgraph struct {
	p      Params
	chunks []*[chunkSize]slot // stored edges, arrival order (loops and duplicates dropped)
	stored int
	index  []ref // linear-probed set of stored edges; len is 0 or a power of two
	shift  uint  // 64 − log2(len(index)): a hash's top bits are its home slot
	deg    []int32
	head   []ref // per vertex: first and last stored edge incident to it
	tail   []ref
	size   int // |H|

	dirty       []graph.ID // vertices whose H-degree changed since last repair
	isDirty     []bool
	removals    int // lifetime H removals (repair churn telemetry)
	repairIters int // dirty-vertex rescans performed across all repairs
	peak        int // largest |H| ever reached (repair can shrink it back)
}

// New returns an empty dynamic EDCS. nHint > 0 pre-sizes the per-vertex
// tables; vertices beyond the hint grow on demand. Panics on invalid params
// (the constructors taking user input validate first).
func New(nHint int, p Params) *Subgraph {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if nHint < 0 {
		nHint = 0
	}
	return &Subgraph{
		p:       p,
		deg:     make([]int32, nHint),
		head:    make([]ref, nHint),
		tail:    make([]ref, nHint),
		isDirty: make([]bool, nHint),
	}
}

// grow extends the per-vertex tables to cover vertex v.
func (s *Subgraph) grow(v graph.ID) {
	if n := int(v) + 1 - len(s.deg); n > 0 {
		s.deg = append(s.deg, make([]int32, n)...)
		s.head = append(s.head, make([]ref, n)...)
		s.tail = append(s.tail, make([]ref, n)...)
		s.isDirty = append(s.isDirty, make([]bool, n)...)
	}
}

// at returns the slot of stored edge r.
func (s *Subgraph) at(r ref) *slot {
	i := r - 1
	return &s.chunks[i>>chunkBits][i&(chunkSize-1)]
}

// nextIn returns the slot's link in the incidence list of its endpoint v.
func (sl *slot) nextIn(v graph.ID) *ref {
	if sl.e.U == v {
		return &sl.next[0]
	}
	return &sl.next[1]
}

// hashEdge mixes canonical endpoints into 64 bits whose top bits are uniform
// (multiply, xorshift, multiply); the index takes the top bits.
func hashEdge(c graph.Edge) uint64 {
	const phi = 0x9E3779B97F4A7C15
	x := (uint64(uint32(c.U))<<32 | uint64(uint32(c.V))) * phi
	x ^= x >> 32
	return x * phi
}

// find returns the index slot that holds canonical edge c, or the empty slot
// where it belongs. The table is never full: Insert keeps it under 3/4.
func (s *Subgraph) find(c graph.Edge) (i uint64, found bool) {
	mask := uint64(len(s.index) - 1)
	for i = hashEdge(c) >> s.shift; ; i = (i + 1) & mask {
		r := s.index[i]
		if r == 0 {
			return i, false
		}
		if s.at(r).e.Canon() == c {
			return i, true
		}
	}
}

// growIndex doubles the index table and re-enters every stored edge. The
// discarded tables sum to less than the live one, which bounds the
// builder's garbage.
func (s *Subgraph) growIndex() {
	n := max(2*len(s.index), minIndex)
	s.index = make([]ref, n)
	s.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for r := ref(1); int(r) <= s.stored; r++ {
		i, _ := s.find(s.at(r).e.Canon())
		s.index[i] = r
	}
}

// store appends e to the chunked store and to both endpoints' incidence
// lists, with no hygiene check and no index entry: Insert's second half.
func (s *Subgraph) store(e graph.Edge) ref {
	if s.stored == len(s.chunks)<<chunkBits {
		s.chunks = append(s.chunks, new([chunkSize]slot))
	}
	s.stored++
	r := ref(s.stored)
	s.at(r).e = e
	for _, v := range [2]graph.ID{e.U, e.V} {
		if t := s.tail[v]; t == 0 {
			s.head[v] = r
		} else {
			*s.at(t).nextIn(v) = r
		}
		s.tail[v] = r
	}
	return r
}

// Insert feeds one edge in arrival order and restores both invariants
// before returning. Two kinds of arrivals are dropped at the door, before
// they can touch any degree table:
//
//   - Self-loops: a matching can never use one, and admitting it would add
//     2 to a single endpoint's H-degree, skewing every P1/P2 sum that
//     vertex participates in.
//   - Parallel duplicates of an already-stored edge (either orientation):
//     two copies would get distinct indices and could both enter H,
//     inflating H-degrees and the coreset byte charge. This matters most to
//     the multi-round driver (internal/rounds), whose round-r unions can
//     re-feed edges the EDCS has already seen.
//
// Dropped arrivals do not count toward Stored.
func (s *Subgraph) Insert(e graph.Edge) {
	if e.U == e.V {
		return
	}
	if 4*(s.stored+1) > 3*len(s.index) {
		s.growIndex()
	}
	i, dup := s.find(e.Canon())
	if dup {
		return
	}
	s.grow(max(e.U, e.V))
	r := s.store(e)
	s.index[i] = r
	// P2: a new edge left out of H must already see β⁻ worth of H-degree.
	if int(s.deg[e.U]+s.deg[e.V]) < s.p.BetaMinus {
		s.addH(s.at(r))
		s.repair()
	}
}

func (s *Subgraph) addH(sl *slot) {
	sl.inH = true
	s.deg[sl.e.U]++
	s.deg[sl.e.V]++
	s.size++
	if s.size > s.peak {
		s.peak = s.size
	}
	s.markDirty(sl.e.U)
	s.markDirty(sl.e.V)
}

func (s *Subgraph) removeH(sl *slot) {
	sl.inH = false
	s.deg[sl.e.U]--
	s.deg[sl.e.V]--
	s.size--
	s.removals++
	s.markDirty(sl.e.U)
	s.markDirty(sl.e.V)
}

func (s *Subgraph) markDirty(v graph.ID) {
	if !s.isDirty[v] {
		s.isDirty[v] = true
		s.dirty = append(s.dirty, v)
	}
}

// repair restores P1 and P2 by local moves: any invariant violation is
// incident to a vertex whose H-degree changed, so only dirty vertices need
// rescanning. Each mutation strictly increases the bounded potential named
// in the package comment (the standard EDCS termination argument), so the
// loop terminates after O(n·β²) moves.
func (s *Subgraph) repair() {
	for len(s.dirty) > 0 {
		s.repairIters++
		v := s.dirty[len(s.dirty)-1]
		s.dirty = s.dirty[:len(s.dirty)-1]
		s.isDirty[v] = false
		for r := s.head[v]; r != 0; {
			sl := s.at(r)
			sum := int(s.deg[sl.e.U] + s.deg[sl.e.V])
			if sl.inH && sum > s.p.Beta {
				s.removeH(sl)
			} else if !sl.inH && sum < s.p.BetaMinus {
				s.addH(sl)
			}
			r = *sl.nextIn(v)
		}
	}
}

// Size returns |H|, the current EDCS edge count.
func (s *Subgraph) Size() int { return s.size }

// Stored returns how many edges the subgraph holds — the machine's
// partition after edge hygiene (self-loops and parallel duplicates are
// dropped at Insert and never stored), within the O(m/k) space the model
// grants each machine.
func (s *Subgraph) Stored() int { return s.stored }

// Removals returns the lifetime count of repair removals — how often an
// H-edge became overfull and was evicted. It is the builder's streaming
// telemetry: zero means insertions alone kept the invariants.
func (s *Subgraph) Removals() int { return s.removals }

// RepairIters returns how many dirty-vertex rescans the repair fixpoint has
// performed over the subgraph's lifetime — the per-machine measure of how
// much work P1/P2 maintenance cost beyond the raw insertions.
func (s *Subgraph) RepairIters() int { return s.repairIters }

// PeakSize returns the largest |H| the subgraph ever held. Repair can evict
// edges, so the final Size may undercount the memory high-water mark.
func (s *Subgraph) PeakSize() int { return s.peak }

// Edges returns H as a sorted, always non-nil edge list — the machine's
// coreset message. Sorting canonicalizes the set (arrival order is an
// implementation detail), and sorted is how the wire codec takes a set
// (graph.AppendEdgeSet).
func (s *Subgraph) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, s.size)
	for r := ref(1); int(r) <= s.stored; r++ {
		if sl := s.at(r); sl.inH {
			out = append(out, sl.e)
		}
	}
	graph.SortEdges(out)
	return out
}

// CheckInvariants verifies P1 and P2 over every stored edge, that the
// store obeys edge hygiene (no self-loops, no parallel duplicates — both
// classes of arrival Insert must drop), that the incremental H-degree
// table matches a from-scratch recount of H, and that the flat storage is
// coherent: the index finds every stored edge under its own ref and holds
// nothing else, and each vertex's incidence list is exactly its stored
// edges in arrival order. Tests use it as the ground-truth oracle for the
// insertion and repair logic: the degree recount is what catches
// bookkeeping skew (e.g. a self-loop charging +2 to one endpoint) even when
// P1/P2 happen to hold on the skewed sums, and the duplicate check keeps a
// map of its own instead of trusting the index it audits.
func (s *Subgraph) CheckInvariants() error {
	seen := make(map[graph.Edge]struct{}, s.stored)
	recount := make([]int32, len(s.deg))
	last := make([]ref, len(s.deg)) // latest stored edge met at each vertex
	for r := ref(1); int(r) <= s.stored; r++ {
		j, sl := r-1, s.at(r)
		e := sl.e
		if e.U == e.V {
			return fmt.Errorf("edcs: self-loop %v stored at index %d", e, j)
		}
		c := e.Canon()
		if _, dup := seen[c]; dup {
			return fmt.Errorf("edcs: duplicate edge %v stored at index %d", e, j)
		}
		seen[c] = struct{}{}
		if i, found := s.find(c); !found || s.index[i] != r {
			return fmt.Errorf("edcs: index does not map %v to its stored index %d", e, j)
		}
		for _, v := range [2]graph.ID{e.U, e.V} {
			linked := s.head[v]
			if last[v] != 0 {
				linked = *s.at(last[v]).nextIn(v)
			}
			if linked != r {
				return fmt.Errorf("edcs: incidence list of vertex %d skips stored edge %d=%v", v, j, e)
			}
			last[v] = r
		}
		if sl.inH {
			recount[e.U]++
			recount[e.V]++
		}
		sum := int(s.deg[e.U] + s.deg[e.V])
		if sl.inH && sum > s.p.Beta {
			return fmt.Errorf("edcs: P1 violated at edge %d=%v (deg sum %d > beta %d)", j, e, sum, s.p.Beta)
		}
		if !sl.inH && sum < s.p.BetaMinus {
			return fmt.Errorf("edcs: P2 violated at edge %d=%v (deg sum %d < betaMinus %d)", j, e, sum, s.p.BetaMinus)
		}
	}
	occupied := 0
	for _, r := range s.index {
		if r != 0 {
			occupied++
		}
	}
	if occupied != s.stored {
		return fmt.Errorf("edcs: index holds %d entries for %d stored edges", occupied, s.stored)
	}
	for v, d := range recount {
		if d != s.deg[v] {
			return fmt.Errorf("edcs: H-degree of vertex %d is tracked as %d but recounts to %d", v, s.deg[v], d)
		}
		if s.tail[v] != last[v] || (last[v] != 0 && *s.at(last[v]).nextIn(graph.ID(v)) != 0) {
			return fmt.Errorf("edcs: incidence list of vertex %d does not end at its last stored edge", v)
		}
	}
	return nil
}

// Coreset computes one machine's EDCS coreset: an EDCS(part, β, β⁻) built
// by inserting the partition's edges in the given order. The result is the
// sorted H edge list, never nil.
func Coreset(n int, part []graph.Edge, p Params) []graph.Edge {
	s := New(n, p)
	for _, e := range part {
		s.Insert(e)
	}
	return s.Edges()
}
