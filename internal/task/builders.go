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
// maximum matching at every instant). At end of stream it emits the Theorem
// 1 summary: a maximum matching of the stored partition, computed by
// core.MatchingCoreset straight off the store's chunks, which are never
// flattened, and then releases the store: the summary is a fresh slice.
type matchingBuilder struct {
	edges graph.EdgeStore
	live  *matching.Incremental
}

func newMatchingBuilder(nHint int) *matchingBuilder {
	return &matchingBuilder{live: matching.NewIncremental(nHint)}
}

func (b *matchingBuilder) Add(e graph.Edge) {
	b.edges.Append(e)
	b.live.Add(e)
}

func (b *matchingBuilder) Finish(n int) Summary {
	live := b.live.Size()
	b.live = nil // telemetry only: its table should not sit beside the matcher's
	cs := core.MatchingCoreset(n, b.edges.Chunks()...)
	stored := b.edges.Len()
	b.edges.Release()
	return Summary{
		Coreset: cs,
		Stored:  stored,
		Live:    live,
		Bytes:   core.CoresetSizeBytes(cs),
	}
}

// vcBuilder is the Theorem 2 machine: a chunked edge store that never copies
// what it holds, a running degree table that decides level 1 online, and at
// Finish the edge-list peel (core.PeelVC) run in place on the store and in
// that table.
//
// Degrees only grow as edges arrive, so a vertex belongs to the first peeled
// level iff its running degree reaches the level-1 threshold n/(4k): the
// level-1 set is exactly the vertices with deg[v] >= threshold, at any point
// of the stream. From the arrival that takes a vertex there, the builder
// discards every edge incident to it (such edges are already covered and can
// never reach the residual). Edges stored before an endpoint crossed the
// threshold are dropped by the first sweep of Finish, which hands PeelVC the
// table and the threshold and lets it run levels 2..Delta-1: the same level
// loop the batch core.ComputeVCCoreset runs from level 1, so the emitted
// coreset is field-for-field identical to the batch one on the same
// partition; online peeling only reduces the edges held in memory.
//
// Online peeling needs the thresholds — hence n — upfront; when the source
// cannot declare n (headerless edge lists), the builder degrades to storing
// its partition and leaving every level to Finish. A source that delivers ids
// past the n it declared grows the table; level 1 keeps the declared-n
// threshold.
//
// The machine's memory is reused across jobs: the store's blocks come from
// graph's block free list and PeelVC hands them back, and the degree table
// comes from graph's free list of int32 tables and goes back there at Finish,
// once the peel is done with it. Nothing in the summary aliases either. The
// summary's residual is drawn from graph's free list of edge slices too; it
// is the summary's, and goes back when the run is done with it (Release).
type vcBuilder struct {
	k         int
	threshold int     // level-1 peel threshold; 0 disables online peeling
	deg       []int32 // degrees in the shard so far; nil iff online peeling is disabled
	stored    graph.EdgeStore
}

func newVCBuilder(k, nHint int) *vcBuilder {
	b := &vcBuilder{k: k}
	if nHint > 0 && core.PeelingDepth(nHint, k) > 1 {
		// Level j = 1 peels at residual degree >= ceil(n / (k * 2^(j+1))).
		b.threshold = int(math.Ceil(float64(nHint) / (float64(k) * 4)))
		b.deg = graph.GetInt32s(nHint)
		clear(b.deg)
	}
	return b
}

func (b *vcBuilder) Add(e graph.Edge) {
	if b.threshold == 0 {
		// No vertex count, no thresholds: just store the partition.
		b.stored.Append(e)
		return
	}
	if v := int(max(e.U, e.V)); v >= len(b.deg) {
		// Defensive: a source that declared n should never exceed it.
		b.deg = append(b.deg, make([]int32, v+1-len(b.deg))...)
	}
	// Every arrival counts toward both endpoint degrees — including edges
	// that are then discarded — because the batch level-1 set is defined by
	// degrees in the machine's FULL partition.
	b.deg[e.U]++
	b.deg[e.V]++
	if int(b.deg[e.U]) >= b.threshold || int(b.deg[e.V]) >= b.threshold {
		return // covered by a level-1 vertex; never reaches the residual
	}
	b.stored.Append(e)
}

func (b *vcBuilder) Finish(n int) Summary {
	stored := b.stored.Len() // the peel consumes the store and the table
	cs := core.PeelVC(n, b.k, &b.stored, b.deg, b.threshold)
	if b.deg != nil {
		graph.PutInt32s(b.deg)
		b.deg = nil
	}
	live := 0
	if b.threshold > 0 {
		live = len(cs.Levels[0])
	}
	return Summary{
		VC:     cs,
		Stored: stored,
		Live:   live,
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

// Telem exposes the subgraph's fixpoint counters; it is the Telemetered
// hook and deliberately NOT part of Summary, whose shape is pinned by the
// cross-runtime seed-parity codec tests.
func (b *edcsBuilder) Telem() graph.BuildCounters {
	return graph.BuildCounters{
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
