package core

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/vcover"
)

// Weighted vertex cover extension (paper Section 1.1): "Similar ideas of
// 'grouping by weight' ... can also be used to extend our coreset for
// weighted vertex cover with an O(log n) factor loss in approximation and
// space; we omit the details."
//
// The paper omits the construction, so this implements the natural
// instantiation (a substitution, measured by experiment E15): round vertex
// weights to geometric classes with base (1+eps); assign every edge to the
// class of its HEAVIER endpoint (so both endpoints of a class-l edge have
// class <= l, and any cover of the class-l edge set may use only vertices
// whose weight is at most (1+eps)^(l+1)); run the unweighted Theorem 2
// machinery per class; the final cover is the union over classes. The
// per-class covers inherit the unweighted O(log n) cardinality guarantee,
// and the class structure caps the weight of every selected vertex by
// (1+eps) times the class's edge weight level; experiment E15 measures the
// end-to-end loss against the centralized local-ratio 2-approximation.

// WeightedVCCoreset is one machine's weighted coreset: a VC-Coreset per
// vertex-weight class present in its partition.
type WeightedVCCoreset struct {
	Classes map[int]*VCCoreset
}

// edgeClass returns the class of the heavier endpoint.
func edgeClass(e graph.Edge, vw []float64, eps float64) int {
	wu, wv := vw[e.U], vw[e.V]
	if wv > wu {
		wu = wv
	}
	return WeightClassOf(wu, eps)
}

// ComputeWeightedVCCoreset splits the partition's edges by weight class and
// runs the Theorem 2 peeling per class. vw holds the n vertex weights
// (strictly positive).
func ComputeWeightedVCCoreset(n, k int, eps float64, part []graph.Edge, vw []float64) *WeightedVCCoreset {
	if eps <= 0 {
		panic("core: ComputeWeightedVCCoreset with eps <= 0")
	}
	if len(vw) != n {
		panic("core: vertex weight vector length mismatch")
	}
	byClass := make(map[int][]graph.Edge)
	for _, e := range part {
		c := edgeClass(e, vw, eps)
		byClass[c] = append(byClass[c], e)
	}
	out := &WeightedVCCoreset{Classes: make(map[int]*VCCoreset, len(byClass))}
	for c, edges := range byClass {
		out.Classes[c] = ComputeVCCoreset(n, k, edges)
	}
	return out
}

// ComposeWeightedVC combines the machines' per-class coresets: each class is
// composed with the unweighted composition and the final cover is the union
// across classes.
func ComposeWeightedVC(n int, coresets []*WeightedVCCoreset) []graph.ID {
	classes := make(map[int][]*VCCoreset)
	for _, cs := range coresets {
		for c, k := range cs.Classes {
			classes[c] = append(classes[c], k)
		}
	}
	// Deterministic class order for reproducible output.
	idx := make([]int, 0, len(classes))
	for c := range classes {
		idx = append(idx, c)
	}
	sort.Ints(idx)
	var cover []graph.ID
	for _, c := range idx {
		cover = append(cover, ComposeVC(n, classes[c])...)
	}
	return vcover.Dedup(cover)
}

// WeightedVCCoresetSize returns the total size (fixed vertices plus residual
// edges) across classes — the paper's O(log n)-factor space overhead shows
// up as the number of classes.
func WeightedVCCoresetSize(cs *WeightedVCCoreset) int {
	total := 0
	for _, k := range cs.Classes {
		total += VCCoresetSize(k)
	}
	return total
}
