package core

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/graph"
)

// VCCoreset is the vertex-cover coreset of one machine (Theorem 2): a set of
// vertices fixed directly into the final cover, plus a sparse residual
// subgraph whose union across machines is covered at composition time.
type VCCoreset struct {
	// Fixed is V_cs^(i) = union of the peeled levels: vertices whose
	// residual degree reached the level threshold. They are added to the
	// final vertex cover unconditionally.
	Fixed []graph.ID
	// Residual is the edge set of G_Delta^(i), the subgraph left after
	// peeling, each edge canonical (U <= V) and sorted by (U, V); the paper
	// bounds it by O(n log n) edges. No residual edge touches a
	// vertex of Levels — the message relies on it, sending each endpoint as
	// its rank among the vertices the levels did not fix. PeelVC and
	// DecodeVCCoreset draw it from graph's free list of edge slices, and
	// Release hands it back.
	Residual []graph.Edge
	// Levels records the peeled set of each iteration j = 1..Delta-1
	// (diagnostics; Lemma 3.6 sandwiches these sets between the
	// hypothetical processes O_j / O-bar_j).
	Levels [][]graph.ID
}

// PeelingDepth returns Delta: the smallest integer with
// n/(k*2^Delta) <= 4*log2(n), per the first line of VC-Coreset. All
// logarithms in the implementation are base 2; the paper's O~ bounds are
// insensitive to the base.
func PeelingDepth(n, k int) int {
	if n < 2 || k < 1 {
		return 1
	}
	limit := 4 * math.Log2(float64(n))
	delta := 1
	for float64(n)/(float64(k)*math.Pow(2, float64(delta))) > limit {
		delta++
	}
	return delta
}

// ComputeVCCoreset runs VC-Coreset (Theorem 2) on one machine's partition.
// n is the global vertex count and k the number of machines; both enter the
// peeling thresholds n/(k*2^(j+1)). part is only read: the peel borrows it
// and copies out what survives the first level that removes anything.
func ComputeVCCoreset(n, k int, part []graph.Edge) *VCCoreset {
	return PeelVC(n, k, graph.BorrowEdges(part), nil, 0)
}

// PeelVC is the level loop of VC-Coreset, run straight off a machine's edge
// store, which it consumes: once the residual is copied out (EdgeStore.Edges,
// into a slice from graph's free list of edge slices), the store is released,
// its blocks back on the free list for the next machine. The residual is the
// caller's: whoever holds the coreset last hands it back with Release. Level j
// fixes every vertex whose degree in the surviving subgraph is at least
// ceil(n/(k*2^(j+1))), in ascending vertex order. A level needs degrees only
// once, before it selects, and removing a level needs no adjacency — an edge
// leaves exactly when an endpoint has — so the peel is one sweep per level
// that removed something: Prune drops the edges the last level killed and
// recounts the survivors' degrees in the same pass. The cost is what the
// sweeps visit, on a store that shrinks with every one. Each scan of the
// degree table also notes the largest degree it leaves alive, and the
// thresholds only fall, so a level whose threshold is above that (the high
// thresholds, on a shard with no heavy vertex) is recorded as empty without
// a scan.
//
// online, when positive, is the level-1 threshold a streaming machine
// applied while its shard arrived, and deg the degree table it kept: deg[v]
// is v's degree in the full shard (the table covers every vertex the store
// holds), level 1 is every v with deg[v] >= online, and the machine stopped
// storing an edge once an endpoint got there. Level 1 is then taken from the
// table rather than recounted — the store no longer holds the edges that
// decided it — and is reported even if n leaves no level to run, since edges
// were discarded on its account. The peel runs in deg: when level 1 fixed
// nobody, every edge was stored and deg already holds their degrees;
// otherwise the first sweep recounts into it. With online zero deg is
// ignored, and the peel counts the store into a table of its own, drawn from
// graph's free list of int32 tables and handed back before it returns.
//
// The result is that of the paper's definition field for field: Levels
// ascending (nil for a level that fixed nobody), Residual canonical, sorted
// by (U, V) and exactly its edges long, self-loops and parallel edges
// counted as BuildAdj counts them. The residual is a set — its message is coded as one
// (AppendVCCoreset) — so it leaves in the one order every runtime agrees on
// whatever order and orientation the shard arrived in; on a shard that
// arrived sorted and canonical, which is what every generator and ingested
// dataset delivers, the store knows it and nothing is sorted.
func PeelVC(n, k int, st *graph.EdgeStore, deg []int32, online int) *VCCoreset {
	delta := PeelingDepth(n, k)
	out := &VCCoreset{}
	var dead []bool
	// killed: vertices died since the last sweep, so the store still holds
	// the edges they cover and deg still counts them. alive bounds the degree
	// of every vertex the last scan left alive.
	killed, alive := false, int32(math.MaxInt32)
	peel := func(threshold int) {
		var level []graph.ID
		if threshold <= int(alive) {
			// A dead vertex has degree 0 after the sweep and the threshold
			// is at least 1, so the scan needs no liveness test.
			alive = 0
			for v, d := range deg {
				if int(d) >= threshold {
					level = append(level, graph.ID(v))
				} else {
					alive = max(alive, d)
				}
			}
		}
		if killed = len(level) > 0; killed && dead == nil {
			dead = make([]bool, len(deg))
		}
		for _, v := range level {
			dead[v] = true
		}
		out.Levels = append(out.Levels, level)
		out.Fixed = append(out.Fixed, level...)
	}
	first := 1
	if online > 0 {
		peel(online)
		first = 2
	} else if delta > 1 {
		deg = graph.GetInt32s(n)
		defer graph.PutInt32s(deg)
		clear(deg)
		st.AddDegrees(deg) // nothing to drop yet: count, and leave the store be
	}
	for j := first; j <= delta-1; j++ {
		if killed {
			st.Prune(dead, deg)
		}
		peel(int(math.Ceil(float64(n) / (float64(k) * math.Pow(2, float64(j+1))))))
	}
	if killed {
		st.Prune(dead, deg)
	}
	// The residual is an undirected edge set: canonical edges (U <= V), in
	// a slice of the peel's own, so nothing borrowed is written and nothing
	// released is read. Its array may have held an earlier residual: only
	// what Edges copied in is read.
	out.Residual = st.Edges()
	sorted := st.Sorted()
	st.Release()
	for i, e := range out.Residual {
		if e.U > e.V {
			out.Residual[i], sorted = graph.Edge{U: e.V, V: e.U}, false
		}
	}
	if !sorted && !graph.EdgesSorted(out.Residual) {
		graph.SortEdges(out.Residual)
	}
	return out
}

// ComposeVC combines vertex-cover coresets into a feasible cover of G: the
// union of the fixed sets, plus a vertex cover of the union of the residual
// subgraphs. The paper composes with any 2-approximation; we use the
// maximal-matching 2-approximation (vcover.FromMatching), greedy over the
// residuals in machine order.
//
// Feasibility (as argued after the algorithm in Section 3.2): every edge of
// G lives in some G(i); there it is either incident on a peeled vertex
// (covered by that machine's fixed set) or survives into G_Delta^(i)
// (covered by the residual cover).
//
// The cover is ascending and duplicate-free (nil if empty), and the work is
// linear in n plus the union's size: the matching runs straight over each
// residual, never copying the union, and the cover is one ascending pass
// over the mate array with every fixed vertex marked on it. The mate array is
// an n-sized table from graph's free list of int32 tables, handed back before
// ComposeVC returns; only the cover is allocated. The coresets are only read.
func ComposeVC(n int, coresets []*VCCoreset) []graph.ID {
	mark, size := graph.GetInt32s(n), 0
	defer graph.PutInt32s(mark)
	for i := range mark {
		mark[i] = -1
	}
	// The greedy matching: an edge joins it when neither endpoint is matched
	// yet, and a self-loop never does.
	for _, cs := range coresets {
		for _, e := range cs.Residual {
			if e.U != e.V && mark[e.U] == -1 && mark[e.V] == -1 {
				mark[e.U], mark[e.V] = e.V, e.U
				size += 2
			}
		}
	}
	// Mark each fixed vertex on the mate array as its own mate, which no
	// matched vertex is: the cover is then every entry other than -1.
	for _, cs := range coresets {
		for _, v := range cs.Fixed {
			if mark[v] == -1 {
				mark[v] = v
				size++
			}
		}
	}
	if size == 0 {
		return nil
	}
	cover := make([]graph.ID, 0, size)
	for v, w := range mark {
		if w != -1 {
			cover = append(cover, graph.ID(v))
		}
	}
	return cover
}

// A VC coreset message is the number of peeled levels, each level as an ID
// set (in peel order; Fixed is their concatenation, so it is not sent), then
// the residual as an edge set in the rank space of the vertices the levels
// did not fix (graph.AppendRankedEdgeSet): the decoder holds the levels when
// it reaches the residual, and no residual edge touches a fixed vertex, so a
// residual endpoint v travels as v minus the number of fixed vertices below
// it. Ranks are denser than IDs, which is what makes the residual cheaper
// than a plain edge set on a shard where levels fire; where none does, the
// two are the same bytes. The three functions below are the whole
// definition: the cluster wire sends AppendVCCoreset, and every runtime's
// communication accounting charges VCCoresetSizeBytes, which is its exact
// length.

// AppendVCCoreset appends the message of cs to dst and returns it. Panics if
// a residual edge touches a vertex of cs.Levels, which PeelVC never emits.
func AppendVCCoreset(dst []byte, cs *VCCoreset) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cs.Levels)))
	for _, level := range cs.Levels {
		dst = graph.AppendIDSet(dst, level)
	}
	return graph.AppendRankedEdgeSet(dst, cs.Residual, cs.Levels)
}

// VCCoresetSizeBytes returns len(AppendVCCoreset(nil, cs)) without
// materializing the message, for communication accounting.
func VCCoresetSizeBytes(cs *VCCoreset) int {
	size := graph.UvarintLen(uint64(len(cs.Levels)))
	for _, level := range cs.Levels {
		size += graph.IDSetBytes(level)
	}
	return size + graph.RankedEdgeSetBytes(cs.Residual, cs.Levels)
}

// DecodeVCCoreset decodes a message produced by AppendVCCoreset, with the
// slice shapes PeelVC produces (a nil level where nobody was fixed, a non-nil
// residual), and returns the remaining bytes. Like PeelVC's, the residual is
// decoded into a slice from graph's free list of edge slices, for the
// coordinator that composes it to hand back with Release. Like the set
// decoders it is built from, it accepts only the encoder's own bytes, so what
// it consumes is VCCoresetSizeBytes of what it returns. Levels that share a
// vertex, which PeelVC never emits, decode as the encoder wrote them: ranks
// count the vertex once, and Fixed, the levels' concatenation, lists it as
// they do.
func DecodeVCCoreset(data []byte) (cs *VCCoreset, rest []byte, err error) {
	nLevels, k := binary.Uvarint(data)
	if k <= 0 || k != graph.UvarintLen(nLevels) || nLevels > uint64(len(data)) { // each level needs >= 1 byte
		return nil, nil, errors.New("core: corrupt VC coreset (level count)")
	}
	data = data[k:]
	cs = &VCCoreset{}
	for i := uint64(0); i < nLevels; i++ {
		level, rest, err := graph.DecodeIDSet(data)
		if err != nil {
			return nil, nil, err
		}
		data = rest
		cs.Levels = append(cs.Levels, level)
		cs.Fixed = append(cs.Fixed, level...)
	}
	if cs.Residual, data, err = graph.DecodeRankedEdgeSet(data, cs.Levels); err != nil {
		return nil, nil, err
	}
	if cs.Residual == nil {
		cs.Residual = []graph.Edge{}
	}
	return cs, data, nil
}

// Release hands the residual back to graph's free list of edge slices and
// leaves it nil. It is the last use of the residual: the runtime that holds
// the coreset last calls it once it has composed and reported, and nothing
// may read the residual afterwards. Releasing again is a no-op.
func (cs *VCCoreset) Release() {
	graph.PutEdges(cs.Residual)
	cs.Residual = nil
}

// VCCoresetSize returns the paper's size measure for a VC coreset: number
// of residual edges plus number of fixed vertices.
func VCCoresetSize(cs *VCCoreset) int {
	return len(cs.Residual) + len(cs.Fixed)
}
