package gen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// edgeDigest is the FNV-64a hash of an edge sequence, each edge as its two
// endpoints in little-endian int32: it changes if any draw moves an edge.
func edgeDigest(edges []graph.Edge) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(buf[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// emptyDigest is edgeDigest of no edges, the FNV-64a offset basis.
const emptyDigest = 0xcbf29ce484222325

// TestGeneratorDrawsPinned pins every skip-sampling generator's output at a
// fixed seed and a sparse p, edge for edge, and every edge case the G(n,p),
// Chung-Lu and star iterators branch on. Every workload, golden and
// benchmark input is a function of these draws, so a change to how a
// generator samples — even one that keeps its distribution — must fail here
// first, naming the generator.
func TestGeneratorDrawsPinned(t *testing.T) {
	const seed = 20170523
	cases := []struct {
		name   string
		edges  func() []graph.Edge
		m      int
		digest uint64
	}{
		{"GNP", func() []graph.Edge { return GNP(3000, 0.003, rng.New(seed)).Edges }, 13578, 0xffa639c9b4d7cd7c},
		{"GNPIter", func() []graph.Edge { return Collect(GNPIter(3000, 0.003, rng.New(seed))) }, 13578, 0xffa639c9b4d7cd7c},
		{"BipartiteGNP", func() []graph.Edge { return BipartiteGNP(1500, 2000, 0.002, rng.New(seed)).Edges }, 6121, 0x7d50738ad24ba4a7},
		{"ChungLu", func() []graph.Edge { return ChungLu(3000, 2.1, 300, rng.New(seed)).Edges }, 4463, 0xcdf211dbfe5c66a0},
		{"PowerlawIter", func() []graph.Edge { return Collect(PowerlawIter(3000, 2.1, 300, rng.New(seed))) }, 4463, 0xcdf211dbfe5c66a0},
		// Edge cases: dense mode, no draws at all, and Chung-Lu pair
		// probabilities that clamp at 1 or are all equal.
		{"GNP/p=1", func() []graph.Edge { return GNP(40, 1, rng.New(4)).Edges }, 780, 0x29691b58cc0d79e5},
		{"GNP/p=0", func() []graph.Edge { return GNP(10, 0, rng.New(5)).Edges }, 0, emptyDigest},
		{"GNP/n=1", func() []graph.Edge { return GNP(1, 0.5, rng.New(6)).Edges }, 0, emptyDigest},
		{"GNP/n=0", func() []graph.Edge { return GNP(0, 0.5, rng.New(7)).Edges }, 0, emptyDigest},
		{"ChungLu/maxWeight>n", func() []graph.Edge { return ChungLu(50, 2.0, 100, rng.New(4)).Edges }, 51, 0x467f9f95c3180da4},
		{"ChungLu/uniform", func() []graph.Edge { return ChungLu(40, 2.0, 1, rng.New(5)).Edges }, 23, 0x3405a121a7fa2c5d},
		{"ChungLu/n=1", func() []graph.Edge { return ChungLu(1, 2.0, 10, rng.New(6)).Edges }, 0, emptyDigest},
		{"ChungLu/n=0", func() []graph.Edge { return ChungLu(0, 2.0, 10, rng.New(7)).Edges }, 0, emptyDigest},
		{"Star/n=1", func() []graph.Edge { return Star(1).Edges }, 0, emptyDigest},
		{"Star/n=2", func() []graph.Edge { return Star(2).Edges }, 1, 0x8cd4c29d1e47d34},
		{"Star/n=10", func() []graph.Edge { return Star(10).Edges }, 9, 0x1ddd0f6d77081a34},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			edges := tc.edges()
			if m, d := len(edges), edgeDigest(edges); m != tc.m || d != tc.digest {
				t.Fatalf("%s draws moved: m=%d digest=%#x, pinned m=%d digest=%#x", tc.name, m, d, tc.m, tc.digest)
			}
		})
	}
}
