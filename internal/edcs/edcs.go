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
// the degree tables. Each vertex keeps its incident edges in a chain of
// cache-line blocks (see Subgraph), so a repair rescan reads a vertex's
// edges 13 to a line and touches nothing per edge but the neighbour's
// H-degree. All four runtimes (batch, stream, cluster, service) feed a
// machine's partition in the same order, which is what makes EDCS coresets
// bit-for-bit identical across them (see TestSeedParityAcrossRuntimes in
// internal/cluster).
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

// Storage geometry. Each vertex keeps its incident edges in a chain of
// 64-byte blocks. Blocks are handed out from 64 KiB chunks, which the
// allocator page-aligns, so a block is one cache line. Chunks are never
// copied, so the bytes the builder allocates are the bytes it holds: a
// slice grown by doubling allocates (and discards) as much again whenever a
// shard crosses a power of two.
const (
	blockCap    = 13 // entries per block
	chunkBits   = 10
	chunkBlocks = 1 << chunkBits // blocks per chunk
	minIndex    = 256            // slots in the smallest index table
)

// block is one link of a vertex's chain. Its entries are the owner's
// incident edges in arrival order, each named by the other endpoint w: w
// itself when the owner is the edge's U, ^w when it is the edge's V. So a
// stored edge has one U-side and one V-side entry, and both carry its H bit.
type block struct {
	owner graph.ID           // the vertex whose chain this is
	next  uint32             // the owner's next block; 0 ends the chain
	count uint16             // entries in use; only a chain's tail holds fewer than blockCap
	inH   uint16             // bit j set: entry j's edge is in H
	ent   [blockCap]graph.ID // w or ^w, see above
}

// loc names an entry: its block number times 16 plus its position. Block 0
// is never handed out, so the zero loc means "none" (an empty index slot),
// and so does block number 0 (the end of a chain); freshly allocated tables
// are valid as they come.
type loc = uint32

// edgeOf returns the stored edge, as it arrived, that entry x of a block
// owned by o names.
func edgeOf(o, x graph.ID) graph.Edge {
	if x < 0 {
		return graph.Edge{U: ^x, V: o}
	}
	return graph.Edge{U: o, V: x}
}

// Subgraph is the dynamic EDCS state: edges are inserted one at a time and
// the degree constraints are repaired after every mutation. The zero value
// is not usable; construct with New.
//
// Storage is flat. Each vertex threads its incident edges through a chain of
// blocks (head and tail per vertex, a next-block number in each block),
// appended at the tail so that repair scans a vertex's edges in arrival
// order, 13 to a cache line, and reads nothing else but the neighbours'
// H-degrees. An open-addressed table holding the loc of each stored edge's
// U-side entry, keyed by canonical endpoints, answers the duplicate check.
// A flip toggles the H bit in both entries; the other endpoint's entry is found
// by scanning that endpoint's chain, which the flip marks dirty and so
// rescans anyway. Per stored edge that is two 4-byte entries (plus a 12-byte
// header per 13 entries and the tail blocks' slack) and 5–11 bytes of
// index, and an allocation once per chunk or table doubling, never per edge.
type Subgraph struct {
	p      Params
	chunks []*[chunkBlocks]block
	blocks uint32 // blocks handed out, block 0 included
	stored int    // edges held (loops and duplicates dropped)
	index  []loc  // linear-probed set of stored edges; len is 0 or a power of two
	shift  uint   // 64 − log2(len(index)): a hash's top bits are its home slot
	deg    []int32
	head   []uint32 // per vertex: first and last block of its chain, 0 if none
	tail   []uint32
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
		head:    make([]uint32, nHint),
		tail:    make([]uint32, nHint),
		isDirty: make([]bool, nHint),
	}
}

// grow extends the per-vertex tables to cover vertex v.
func (s *Subgraph) grow(v graph.ID) {
	if n := int(v) + 1 - len(s.deg); n > 0 {
		s.deg = append(s.deg, make([]int32, n)...)
		s.head = append(s.head, make([]uint32, n)...)
		s.tail = append(s.tail, make([]uint32, n)...)
		s.isDirty = append(s.isDirty, make([]bool, n)...)
	}
}

// at returns block b.
func (s *Subgraph) at(b uint32) *block {
	return &s.chunks[b>>chunkBits][b&(chunkBlocks-1)]
}

// entry returns the block and position that l names.
func (s *Subgraph) entry(l loc) (*block, uint) {
	return s.at(l >> 4), uint(l & 15)
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
		l := s.index[i]
		if l == 0 {
			return i, false
		}
		if b, j := s.entry(l); (graph.Edge{U: b.owner, V: b.ent[j]}).Canon() == c {
			return i, true
		}
	}
}

// growIndex doubles the index table and re-enters every stored edge by
// sweeping the blocks in memory order. The edges are distinct, so a probe
// stops at the first empty slot without comparing. The discarded tables sum
// to less than the live one, which bounds the builder's garbage.
func (s *Subgraph) growIndex() {
	n := max(2*len(s.index), minIndex)
	s.index = make([]loc, n)
	s.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for b := uint32(1); b < s.blocks; b++ {
		blk := s.at(b)
		for j, x := range blk.ent[:blk.count] {
			if x < 0 {
				continue
			}
			i := hashEdge(graph.Edge{U: blk.owner, V: x}.Canon()) >> s.shift
			for s.index[i] != 0 {
				i = (i + 1) & mask
			}
			s.index[i] = b<<4 | loc(j)
		}
	}
}

// newBlock hands out an empty block owned by v.
func (s *Subgraph) newBlock(v graph.ID) uint32 {
	if s.blocks == uint32(len(s.chunks))<<chunkBits {
		s.chunks = append(s.chunks, new([chunkBlocks]block))
		s.blocks = max(s.blocks, 1) // block 0 stays unused
	}
	b := s.blocks
	s.blocks++
	s.at(b).owner = v
	return b
}

// push appends entry x to v's chain and returns where it landed.
func (s *Subgraph) push(v, x graph.ID) loc {
	b := s.tail[v]
	if b == 0 || s.at(b).count == blockCap {
		nb := s.newBlock(v)
		if b == 0 {
			s.head[v] = nb
		} else {
			s.at(b).next = nb
		}
		s.tail[v], b = nb, nb
	}
	blk := s.at(b)
	j := blk.count
	blk.ent[j] = x
	blk.count++
	return b<<4 | loc(j)
}

// store appends e's two entries to its endpoints' chains, with no hygiene
// check and no index entry: Insert's second half. It returns the U-side and
// the V-side entry.
func (s *Subgraph) store(e graph.Edge) (lu, lv loc) {
	s.stored++
	return s.push(e.U, e.V), s.push(e.V, ^e.U)
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
	lu, lv := s.store(e)
	s.index[i] = lu
	// P2: a new edge left out of H must already see β⁻ worth of H-degree.
	if int(s.deg[e.U]+s.deg[e.V]) < s.p.BetaMinus {
		s.flip(e, lu, lv)
		s.repair()
	}
}

// flip moves stored edge e, whose U-side and V-side entries are lu and lv,
// into H if it is out and out of H if it is in.
func (s *Subgraph) flip(e graph.Edge, lu, lv loc) {
	bu, ju := s.entry(lu)
	bv, jv := s.entry(lv)
	bu.inH ^= 1 << ju
	bv.inH ^= 1 << jv
	if bu.inH>>ju&1 != 0 {
		s.deg[e.U]++
		s.deg[e.V]++
		s.size++
		if s.size > s.peak {
			s.peak = s.size
		}
	} else {
		s.deg[e.U]--
		s.deg[e.V]--
		s.size--
		s.removals++
	}
	s.markDirty(e.U)
	s.markDirty(e.V)
}

func (s *Subgraph) markDirty(v graph.ID) {
	if !s.isDirty[v] {
		s.isDirty[v] = true
		s.dirty = append(s.dirty, v)
	}
}

// twin returns the entry x of w's chain. The caller knows it is there: x is
// the other entry of an edge it holds.
func (s *Subgraph) twin(w, x graph.ID) loc {
	for b := s.head[w]; ; {
		blk := s.at(b)
		for j, y := range blk.ent[:blk.count] {
			if y == x {
				return b<<4 | loc(j)
			}
		}
		b = blk.next
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
		for b := s.head[v]; b != 0; {
			blk := s.at(b)
			for j, x := range blk.ent[:blk.count] {
				w := x ^ x>>31 // the neighbour: x, or ^x when x < 0
				sum := int(s.deg[v] + s.deg[w])
				if in := blk.inH>>j&1 != 0; in && sum > s.p.Beta || !in && sum < s.p.BetaMinus {
					here := b<<4 | loc(j)
					if x >= 0 {
						s.flip(graph.Edge{U: v, V: w}, here, s.twin(w, ^v))
					} else {
						s.flip(graph.Edge{U: w, V: v}, s.twin(w, v), here)
					}
				}
			}
			b = blk.next
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
// (graph.AppendEdgeSet). Each edge is read off its U-side entry, so it keeps
// the orientation it arrived in. Walking the chains in vertex order lists the
// edges by U, each U's in arrival order: on a shard that arrived sorted (a
// generator's, an ingested file's) the list needs no sort.
func (s *Subgraph) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, s.size)
	for _, b := range s.head {
		for b != 0 {
			blk := s.at(b)
			for j, x := range blk.ent[:blk.count] {
				if x >= 0 && blk.inH>>j&1 != 0 {
					out = append(out, graph.Edge{U: blk.owner, V: x})
				}
			}
			b = blk.next
		}
	}
	if !graph.EdgesSorted(out) {
		graph.SortEdges(out)
	}
	return out
}

// CheckInvariants verifies P1 and P2 over every stored edge, that the
// store obeys edge hygiene (no self-loops, no parallel duplicates — both
// classes of arrival Insert must drop), that the incremental H-degree
// table matches a from-scratch recount of H, and that the block storage is
// coherent: every handed-out block sits in exactly one chain, that of its
// owner, with only the chain's tail partly filled and the tail pointer on
// it; every stored edge has exactly one U-side and one V-side entry, with
// equal H bits; the index names each edge's U-side entry and holds nothing
// else; and the edge counter matches. Tests use it as the ground-truth
// oracle for the insertion and repair logic: the degree recount is what
// catches bookkeeping skew (e.g. a self-loop charging +2 to one endpoint)
// even when P1/P2 happen to hold on the skewed sums, and the duplicate
// check keeps a map of its own instead of trusting the index it audits.
func (s *Subgraph) CheckInvariants() error {
	type twins struct {
		e      graph.Edge // as it arrived
		u      loc        // the U-side entry
		nu, nv int        // U-side and V-side entries met
		hu, hv bool       // their H bits
	}
	var edges []twins
	at := make(map[graph.Edge]int) // edge as it arrived → its place in edges
	inChain := make([]bool, s.blocks)
	for v := range s.deg {
		last := uint32(0)
		for b := s.head[v]; b != 0; b = s.at(b).next {
			if b >= s.blocks {
				return fmt.Errorf("edcs: chain of vertex %d runs to block %d, past the %d handed out", v, b, s.blocks)
			}
			if inChain[b] {
				return fmt.Errorf("edcs: block %d is linked twice (again in the chain of vertex %d)", b, v)
			}
			inChain[b] = true
			blk := s.at(b)
			switch {
			case blk.owner != graph.ID(v):
				return fmt.Errorf("edcs: block %d in the chain of vertex %d is owned by %d", b, v, blk.owner)
			case blk.count == 0 || blk.count > blockCap:
				return fmt.Errorf("edcs: block %d of vertex %d holds %d entries (want 1 to %d)", b, v, blk.count, blockCap)
			case blk.next != 0 && blk.count != blockCap:
				return fmt.Errorf("edcs: block %d of vertex %d is partly filled but not its chain's tail", b, v)
			case blk.inH>>blk.count != 0:
				return fmt.Errorf("edcs: block %d of vertex %d has H bits past its %d entries", b, v, blk.count)
			}
			for j, x := range blk.ent[:blk.count] {
				e := edgeOf(graph.ID(v), x)
				if e.U == e.V {
					return fmt.Errorf("edcs: self-loop %v stored in block %d", e, b)
				}
				k, ok := at[e]
				if !ok {
					k = len(edges)
					at[e] = k
					edges = append(edges, twins{e: e})
				}
				t, h := &edges[k], blk.inH>>j&1 != 0
				if x >= 0 {
					t.u, t.hu = b<<4|loc(j), h
					t.nu++
				} else {
					t.hv = h
					t.nv++
				}
			}
			last = b
		}
		if s.tail[v] != last {
			return fmt.Errorf("edcs: tail of vertex %d is block %d, its chain ends at %d", v, s.tail[v], last)
		}
	}
	for b := uint32(1); b < s.blocks; b++ {
		if !inChain[b] {
			return fmt.Errorf("edcs: block %d is in no chain", b)
		}
	}
	if len(edges) != s.stored {
		return fmt.Errorf("edcs: blocks hold %d edges, the counter says %d", len(edges), s.stored)
	}
	occupied := 0
	for i, l := range s.index {
		if l == 0 {
			continue
		}
		occupied++
		if b, j := l>>4, l&15; b == 0 || b >= s.blocks || uint16(j) >= s.at(b).count || s.at(b).ent[j] < 0 {
			return fmt.Errorf("edcs: index slot %d names %#x, not a U-side entry", i, l)
		}
	}
	if occupied != s.stored {
		return fmt.Errorf("edcs: index holds %d entries for %d stored edges", occupied, s.stored)
	}
	seen := make(map[graph.Edge]struct{}, s.stored)
	recount := make([]int32, len(s.deg))
	for _, t := range edges {
		e := t.e
		if t.nu != 1 || t.nv != 1 {
			return fmt.Errorf("edcs: edge %v has %d U-side and %d V-side entries, want one of each", e, t.nu, t.nv)
		}
		if t.hu != t.hv {
			return fmt.Errorf("edcs: the two entries of edge %v disagree on its H bit", e)
		}
		c := e.Canon()
		if _, dup := seen[c]; dup {
			return fmt.Errorf("edcs: duplicate edge %v stored", e)
		}
		seen[c] = struct{}{}
		if i, found := s.find(c); !found || s.index[i] != t.u {
			return fmt.Errorf("edcs: index does not name the U-side entry of %v", e)
		}
		if t.hu {
			recount[e.U]++
			recount[e.V]++
		}
		sum := int(s.deg[e.U] + s.deg[e.V])
		if t.hu && sum > s.p.Beta {
			return fmt.Errorf("edcs: P1 violated at edge %v (deg sum %d > beta %d)", e, sum, s.p.Beta)
		}
		if !t.hu && sum < s.p.BetaMinus {
			return fmt.Errorf("edcs: P2 violated at edge %v (deg sum %d < betaMinus %d)", e, sum, s.p.BetaMinus)
		}
	}
	for v, d := range recount {
		if d != s.deg[v] {
			return fmt.Errorf("edcs: H-degree of vertex %d is tracked as %d but recounts to %d", v, s.deg[v], d)
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
