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

// TestGeneratorDrawsPinned pins every skip-sampling generator's output at a
// fixed seed and a sparse p, edge for edge. Every workload, golden and
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
