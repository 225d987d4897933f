package core

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/graph"
	"repro/internal/vcover"
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
	// peeling, sorted by (U, V) with each edge oriented as it arrived; the
	// paper bounds it by O(n log n) edges.
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
	return PeelVC(n, k, graph.BorrowEdges(part), nil)
}

// PeelVC is the level loop of VC-Coreset, run straight off a machine's edge
// store, which it consumes. Level j fixes every vertex whose degree in the
// surviving subgraph is at least ceil(n/(k*2^(j+1))), in ascending vertex
// order. A level needs degrees only once, before it selects, and removing a
// level needs no adjacency — an edge leaves exactly when an endpoint has —
// so the peel is one sweep per level that removed something: Prune drops the
// edges the last level killed and recounts the survivors' degrees in the same
// pass. The cost is what the sweeps visit, on a store that shrinks with every
// one; levels that fix nobody (the high thresholds, on a shard with no
// heavy vertex) cost a scan of the degree table and nothing else.
//
// online, when non-nil, is the level-1 decision a streaming machine took
// while its shard arrived (online[v]: v's degree in the full shard reached
// the level-1 threshold, and the machine stopped storing v's edges from then
// on). Level 1 is then taken from it rather than recomputed — the store no
// longer holds the edges that decided it — and is reported even if n leaves
// no level to run, since edges were discarded on its account.
//
// The result is that of the paper's definition field for field: Levels
// ascending (nil for a level that fixed nobody), Residual sorted by (U, V)
// and exactly sized, self-loops and parallel edges counted as BuildAdj
// counts them. The residual is a set — its message is coded as one
// (AppendVCCoreset) — so it leaves in the one order every runtime agrees on
// whatever order the shard arrived in; on a shard that arrived sorted, which
// is what every generator and ingested dataset delivers, the sort is a scan.
func PeelVC(n, k int, st *graph.EdgeStore, online []bool) *VCCoreset {
	delta := PeelingDepth(n, k)
	out := &VCCoreset{}
	deg := make([]int32, n)
	dead := make([]bool, n)
	// killed: vertices died since the last sweep, so the store still holds
	// the edges they cover and deg still counts them.
	killed := false
	fix := func(level []graph.ID) {
		for _, v := range level {
			dead[v] = true
		}
		out.Levels = append(out.Levels, level)
		out.Fixed = append(out.Fixed, level...)
		killed = len(level) > 0
	}
	first := 1
	if online != nil {
		var level []graph.ID
		for v, fixed := range online {
			if fixed {
				level = append(level, graph.ID(v))
			}
		}
		fix(level)
		first = 2
	}
	if !killed && first <= delta-1 {
		st.AddDegrees(deg) // nothing to drop yet: count, and leave the store be
	}
	for j := first; j <= delta-1; j++ {
		if killed {
			st.Prune(dead, deg)
		}
		threshold := int(math.Ceil(float64(n) / (float64(k) * math.Pow(2, float64(j+1)))))
		// A dead vertex has degree 0 after the sweep and the threshold is at
		// least 1, so the scan needs no liveness test.
		var level []graph.ID
		for v, d := range deg {
			if int(d) >= threshold {
				level = append(level, graph.ID(v))
			}
		}
		fix(level)
	}
	if killed {
		st.Prune(dead, deg)
	}
	out.Residual = st.Edges()
	if !graph.EdgesSorted(out.Residual) {
		graph.SortEdges(out.Residual)
	}
	return out
}

// ComposeVC combines vertex-cover coresets into a feasible cover of G: the
// union of the fixed sets, plus a vertex cover of the union of the residual
// subgraphs. The paper composes with any 2-approximation; we use the
// maximal-matching 2-approximation by default.
//
// Feasibility (as argued after the algorithm in Section 3.2): every edge of
// G lives in some G(i); there it is either incident on a peeled vertex
// (covered by that machine's fixed set) or survives into G_Delta^(i)
// (covered by the residual cover).
func ComposeVC(n int, coresets []*VCCoreset) []graph.ID {
	var fixed []graph.ID
	var residuals [][]graph.Edge
	for _, cs := range coresets {
		fixed = append(fixed, cs.Fixed...)
		residuals = append(residuals, cs.Residual)
	}
	union := graph.UnionEdges(residuals...)
	cover := append(fixed, vcover.FromMatching(n, union)...)
	return vcover.Dedup(cover)
}

// ComposeVCGreedy is ComposeVC with the greedy H_n-approximation on the
// residual union instead of the 2-approximation; experiments use it to show
// the composition is robust to the choice of the final cover algorithm.
func ComposeVCGreedy(n int, coresets []*VCCoreset) []graph.ID {
	var fixed []graph.ID
	var residuals [][]graph.Edge
	for _, cs := range coresets {
		fixed = append(fixed, cs.Fixed...)
		residuals = append(residuals, cs.Residual)
	}
	union := graph.UnionEdges(residuals...)
	cover := append(fixed, vcover.GreedyDegree(n, union)...)
	return vcover.Dedup(cover)
}

// A VC coreset message is the number of peeled levels, each level as an ID
// set (in peel order; Fixed is their concatenation, so it is not sent), then
// the residual as an edge set — the sorted-set codec of internal/graph
// throughout. The three functions below are the whole definition: the
// cluster wire sends AppendVCCoreset, and every runtime's communication
// accounting charges VCCoresetSizeBytes, which is its exact length.

// AppendVCCoreset appends the message of cs to dst and returns it.
func AppendVCCoreset(dst []byte, cs *VCCoreset) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cs.Levels)))
	for _, level := range cs.Levels {
		dst = graph.AppendIDSet(dst, level)
	}
	return graph.AppendEdgeSet(dst, cs.Residual)
}

// VCCoresetSizeBytes returns len(AppendVCCoreset(nil, cs)) without
// materializing the message, for communication accounting.
func VCCoresetSizeBytes(cs *VCCoreset) int {
	size := graph.UvarintLen(uint64(len(cs.Levels)))
	for _, level := range cs.Levels {
		size += graph.IDSetBytes(level)
	}
	return size + graph.EdgeSetBytes(cs.Residual)
}

// DecodeVCCoreset decodes a message produced by AppendVCCoreset, with the
// slice shapes PeelVC produces (a nil level where nobody was fixed, a non-nil
// residual), and returns the remaining bytes. Like the set decoders it is
// built from, it accepts only the encoder's own bytes, so what it consumes
// is VCCoresetSizeBytes of what it returns.
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
	if cs.Residual, data, err = graph.DecodeEdgeSet(data); err != nil {
		return nil, nil, err
	}
	if cs.Residual == nil {
		cs.Residual = []graph.Edge{}
	}
	return cs, data, nil
}

// VCCoresetSize returns the paper's size measure for a VC coreset: number
// of residual edges plus number of fixed vertices.
func VCCoresetSize(cs *VCCoreset) int {
	return len(cs.Residual) + len(cs.Fixed)
}
