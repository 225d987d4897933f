package task

import (
	"math"

	"repro/internal/core"
	"repro/internal/edcs"
	"repro/internal/graph"
	"repro/internal/matching"
)

// matchingBuilder is the Theorem 1 machine. It stores its partition — the
// O(m/k) space the model grants each machine — while maintaining a one-pass
// greedy matching as live telemetry (a 2-approximation of the partition's
// maximum matching at every instant). At end of stream it emits exactly the
// batch pipeline's summary: a maximum matching of the stored partition,
// computed by the same core.MatchingCoreset call (which wants one flat
// slice, so Finish flattens the store once), so streaming and batch runs
// over the same k-partitioning are bit-for-bit identical.
type matchingBuilder struct {
	edges graph.EdgeStore
	live  *matching.Incremental
}

func newMatchingBuilder() *matchingBuilder {
	return &matchingBuilder{live: matching.NewIncremental()}
}

func (b *matchingBuilder) Add(e graph.Edge) {
	b.edges.Append(e)
	b.live.Add(e)
}

func (b *matchingBuilder) Finish(n int) Summary {
	part := b.edges.Edges()
	b.edges = graph.EdgeStore{} // the matcher's working set should not sit beside a second copy of the shard
	cs := core.MatchingCoreset(n, part)
	return Summary{
		Coreset: cs,
		Stored:  len(part),
		Live:    b.live.Size(),
		Bytes:   core.CoresetSizeBytes(cs),
	}
}

// vcBuilder is the Theorem 2 machine: a chunked edge store that never copies
// what it holds, incremental degree tracking with online level-1 peeling,
// and at Finish the edge-list peel (core.PeelVC) run in place on the store.
//
// Degrees only grow as edges arrive, so a vertex belongs to the first peeled
// level iff its running degree ever reaches the level-1 threshold n/(4k) —
// the builder detects this the moment it happens, fixes the vertex into the
// cover immediately, and discards every subsequent edge incident to it (such
// edges are already covered and can never reach the residual). Edges stored
// before an endpoint crossed the threshold are dropped by the first sweep of
// Finish, which hands PeelVC the level-1 set and lets it run levels
// 2..Delta-1: the same level loop the batch core.ComputeVCCoreset runs from
// level 1, so the emitted coreset is field-for-field identical to the batch
// one on the same partition; online peeling only reduces the edges held in
// memory.
//
// Online peeling needs the thresholds — hence n — upfront; when the source
// cannot declare n (headerless edge lists), the builder degrades to storing
// its partition and leaving every level to Finish.
type vcBuilder struct {
	k         int
	threshold int // level-1 peel threshold; 0 disables online peeling
	deg       []int32
	peeled    []bool // nil iff online peeling is disabled
	nPeeled   int
	stored    graph.EdgeStore
}

func newVCBuilder(k, nHint int) *vcBuilder {
	b := &vcBuilder{k: k}
	if nHint > 0 && core.PeelingDepth(nHint, k) > 1 {
		// Level j = 1 peels at residual degree >= ceil(n / (k * 2^(j+1))).
		b.threshold = int(math.Ceil(float64(nHint) / (float64(k) * 4)))
		b.deg = make([]int32, nHint)
		b.peeled = make([]bool, nHint)
	}
	return b
}

// grow extends the degree tables to cover vertex v (defensive: sources that
// declare n upfront should never exceed it).
func (b *vcBuilder) grow(v graph.ID) {
	for int(v) >= len(b.deg) {
		b.deg = append(b.deg, 0)
		b.peeled = append(b.peeled, false)
	}
}

func (b *vcBuilder) Add(e graph.Edge) {
	if b.threshold == 0 {
		// No vertex count, no thresholds: just store the partition.
		b.stored.Append(e)
		return
	}
	b.grow(e.U)
	b.grow(e.V)
	// Every arrival counts toward both endpoint degrees — including edges
	// that are then discarded — because the batch level-1 set is defined by
	// degrees in the machine's FULL partition.
	b.deg[e.U]++
	b.deg[e.V]++
	b.peel(e.U)
	b.peel(e.V)
	if b.peeled[e.U] || b.peeled[e.V] {
		return // covered by a fixed vertex; never reaches the residual
	}
	b.stored.Append(e)
}

func (b *vcBuilder) peel(v graph.ID) {
	if !b.peeled[v] && int(b.deg[v]) >= b.threshold {
		b.peeled[v] = true
		b.nPeeled++
	}
}

func (b *vcBuilder) Finish(n int) Summary {
	stored := b.stored.Len() // the peel consumes the store
	cs := core.PeelVC(n, b.k, &b.stored, b.peeled)
	return Summary{
		VC:     cs,
		Stored: stored,
		Live:   b.nPeeled,
		Bytes:  core.VCCoresetSizeBytes(cs),
	}
}

// edcsBuilder is the EDCS machine (arXiv:1711.03076): a dynamic
// edge-degree constrained subgraph maintained by insertion with
// degree-constraint repair. Unlike the Theorem 1 builder it does genuinely
// incremental summary work on every arrival — H is always a valid
// EDCS(arrived-so-far, β, β⁻) — and Finish only sorts the H edge list into
// the canonical coreset message. The EDCS is a pure function of the
// machine's arrival order, which every runtime reproduces from the same
// hash k-partitioning, so EDCS coresets are bit-for-bit identical across
// batch, stream and cluster.
type edcsBuilder struct {
	sub *edcs.Subgraph
}

func newEDCSBuilder(nHint int, p edcs.Params) *edcsBuilder {
	return &edcsBuilder{sub: edcs.New(nHint, p)}
}

func (b *edcsBuilder) Add(e graph.Edge) { b.sub.Insert(e) }

// Telem exposes the subgraph's fixpoint counters for MachineTelem; it is the
// Telemetered hook and deliberately NOT part of Summary, whose shape is
// pinned by the cross-runtime seed-parity codec tests.
func (b *edcsBuilder) Telem() MachineTelem {
	return MachineTelem{
		RepairIters: b.sub.RepairIters(),
		Removals:    b.sub.Removals(),
		PeakCoreset: b.sub.PeakSize(),
	}
}

func (b *edcsBuilder) Finish(n int) Summary {
	cs := b.sub.Edges()
	return Summary{
		Coreset: cs,
		Stored:  b.sub.Stored(),
		Live:    b.sub.Removals(),
		Bytes:   core.CoresetSizeBytes(cs),
	}
}
