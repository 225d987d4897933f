package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/vcover"
)

func TestMatchingCoresetIsMaximumMatching(t *testing.T) {
	r := rng.New(1)
	g := gen.GNP(200, 0.05, r)
	cs := MatchingCoreset(g.N, g.Edges)
	m := matching.FromEdges(g.N, cs) // must be vertex-disjoint
	want := matching.Maximum(g.N, g.Edges).Size()
	if m.Size() != want {
		t.Fatalf("coreset size %d, maximum matching %d", m.Size(), want)
	}
}

func TestComposeMatchingValidAndAtLeastGreedy(t *testing.T) {
	r := rng.New(3)
	g := gen.GNP(300, 0.03, r)
	parts := partition.RandomK(g.Edges, 5, r)
	coresets := make([][]graph.Edge, len(parts))
	for i, p := range parts {
		coresets[i] = MatchingCoreset(g.N, p)
	}
	composed := ComposeMatching(g.N, coresets)
	if err := matching.Verify(g.N, g.Edges, composed); err != nil {
		t.Fatalf("composed matching invalid: %v", err)
	}
	greedy := GreedyMatchCombine(g.N, coresets)
	if err := matching.Verify(g.N, g.Edges, greedy); err != nil {
		t.Fatalf("greedy combined matching invalid: %v", err)
	}
	if composed.Size() < greedy.Size() {
		t.Fatalf("exact composition %d smaller than greedy %d", composed.Size(), greedy.Size())
	}
}

func TestGreedyMatchCombineLowerBound(t *testing.T) {
	// Lemma 3.1's engine: GreedyMatch yields a constant fraction of OPT.
	r := rng.New(9)
	g := gen.GNP(500, 0.02, r)
	parts := partition.RandomK(g.Edges, 6, r)
	coresets := make([][]graph.Edge, len(parts))
	for i, p := range parts {
		coresets[i] = MatchingCoreset(g.N, p)
	}
	greedy := GreedyMatchCombine(g.N, coresets)
	opt := matching.Maximum(g.N, g.Edges).Size()
	if float64(greedy.Size()) < float64(opt)/9 {
		t.Fatalf("GreedyMatch %d below opt/9 (opt=%d)", greedy.Size(), opt)
	}
}

func TestPeelingDepth(t *testing.T) {
	// Delta must be the SMALLEST integer with n/(k*2^Delta) <= 4*log2(n);
	// verify both the bound and minimality for a spread of (n, k).
	check := func(n, k int) {
		d := PeelingDepth(n, k)
		if n < 2 || k < 1 {
			if d != 1 {
				t.Errorf("PeelingDepth(%d,%d) = %d, want 1", n, k, d)
			}
			return
		}
		limit := 4 * math.Log2(float64(n))
		if float64(n)/(float64(k)*math.Pow(2, float64(d))) > limit {
			t.Errorf("PeelingDepth(%d,%d) = %d does not satisfy the bound", n, k, d)
		}
		if d > 1 && float64(n)/(float64(k)*math.Pow(2, float64(d-1))) <= limit {
			t.Errorf("PeelingDepth(%d,%d) = %d is not minimal", n, k, d)
		}
	}
	for _, tc := range []struct{ n, k int }{
		{1 << 16, 4}, {1 << 10, 1}, {100, 50}, {1, 1}, {1 << 20, 32}, {7, 7},
	} {
		check(tc.n, tc.k)
	}
}

func TestVCCoresetFeasibility(t *testing.T) {
	// The composed cover must cover EVERY edge of G.
	r := rng.New(11)
	g := gen.GNP(400, 0.05, r)
	const k = 4
	parts := partition.RandomK(g.Edges, k, r)
	coresets := make([]*VCCoreset, k)
	for i, p := range parts {
		coresets[i] = ComputeVCCoreset(g.N, k, p)
	}
	cover := ComposeVC(g.N, coresets)
	if err := vcover.Verify(g.N, g.Edges, cover); err != nil {
		t.Fatalf("composed cover infeasible: %v", err)
	}
}

func TestVCCoresetResidualSparse(t *testing.T) {
	// Theorem 2: the residual graph has O(n log n) edges. After peeling,
	// max degree is < ceil(n/(k*2^Delta)) <= 4 log2 n + 1, so edges <=
	// n * (4 log2 n + 1) / 1 — we assert the max-degree bound directly.
	r := rng.New(13)
	const n, k = 2048, 4
	g := gen.GNP(n, 0.1, r) // dense: forces real peeling
	parts := partition.RandomK(g.Edges, k, r)
	for i, p := range parts {
		cs := ComputeVCCoreset(n, k, p)
		maxDeg := graph.MaxDegree(n, cs.Residual)
		bound := int(float64(n)/(float64(k)*math.Pow(2, float64(PeelingDepth(n, k))))) + 1
		if maxDeg > bound {
			t.Errorf("machine %d: residual max degree %d > bound %d", i, maxDeg, bound)
		}
		if len(cs.Residual) > 8*n*int(1+math.Log2(float64(n))) {
			t.Errorf("machine %d: residual has %d edges, too many", i, len(cs.Residual))
		}
	}
}

func TestVCCoresetEmptyAndTinyPartitions(t *testing.T) {
	cs := ComputeVCCoreset(100, 4, nil)
	if len(cs.Fixed) != 0 || len(cs.Residual) != 0 {
		t.Fatal("empty partition should give empty coreset")
	}
	cs2 := ComputeVCCoreset(100, 4, []graph.Edge{{U: 0, V: 1}})
	cover := ComposeVC(100, []*VCCoreset{cs2})
	if err := vcover.Verify(100, []graph.Edge{{U: 0, V: 1}}, cover); err != nil {
		t.Fatal(err)
	}
}

func TestVCCoresetSizeAccessors(t *testing.T) {
	cs := &VCCoreset{Fixed: []graph.ID{1, 2}, Residual: []graph.Edge{{U: 0, V: 1}}}
	if VCCoresetSize(cs) != 3 {
		t.Fatal("VCCoresetSize wrong")
	}
	if VCCoresetSizeBytes(cs) <= 0 {
		t.Fatal("VCCoresetSizeBytes wrong")
	}
}

// The VC coreset message round-trips what the peel produces, its size
// function is its length, and — since a receiver charges what it consumed —
// the decoder refuses a level count padded to a longer varint.
func TestVCCoresetMessage(t *testing.T) {
	g := gen.GNP(600, 40.0/600, rng.New(7))
	cs := ComputeVCCoreset(g.N, 2, g.Edges)
	if len(cs.Fixed) == 0 || len(cs.Residual) == 0 {
		t.Fatalf("the peel left %d fixed, %d residual; want both", len(cs.Fixed), len(cs.Residual))
	}
	wire := AppendVCCoreset(nil, cs)
	if VCCoresetSizeBytes(cs) != len(wire) {
		t.Fatalf("VCCoresetSizeBytes %d, message is %d bytes", VCCoresetSizeBytes(cs), len(wire))
	}
	got, rest, err := DecodeVCCoreset(append(wire[:len(wire):len(wire)], 0xEE))
	if err != nil || len(rest) != 1 || !reflect.DeepEqual(got, cs) {
		t.Fatalf("round trip: err %v, %d bytes left", err, len(rest))
	}
	padded := append([]byte{wire[0] | 0x80, 0x00}, wire[1:]...)
	if _, _, err := DecodeVCCoreset(padded); err == nil {
		t.Fatal("a padded level count was accepted")
	}
}

// vcBody hand-builds a vc message: the levels, then ranked — the residual
// already in rank space, whatever the encoder would have made of it.
func vcBody(levels [][]graph.ID, ranked []graph.Edge) []byte {
	b := binary.AppendUvarint(nil, uint64(len(levels)))
	for _, level := range levels {
		b = graph.AppendIDSet(b, level)
	}
	return graph.AppendEdgeSet(b, ranked)
}

// decodeAllocating decodes data and reports the bytes the decoder allocated,
// averaged over repeated decodes so that no stray allocation elsewhere in
// the process counts against it.
func decodeAllocating(data []byte) (cs *VCCoreset, allocated uint64, err error) {
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cs, _, err = DecodeVCCoreset(data)
	}
	runtime.ReadMemStats(&after)
	return cs, (after.TotalAlloc - before.TotalAlloc) / runs, err
}

// Bodies no peel emits: a rank whose vertex would pass graph.MaxID is
// refused, a lone residual edge at the top of the rank space decodes in a few
// bytes, and a vertex that levels share counts once in the ranks, so the
// message round-trips. Whichever way each goes, the decoder allocates for
// the bytes in hand, never for the stride the residual claims.
func TestVCCoresetMessageHostileBodies(t *testing.T) {
	const budget = 2 << 10
	for name, data := range map[string][]byte{
		"rank MaxID behind one fixed":    vcBody([][]graph.ID{{0}}, []graph.Edge{{U: 0, V: graph.MaxID}}),
		"rank MaxID-1 behind two fixed":  vcBody([][]graph.ID{{1}, {graph.MaxID - 1}}, []graph.Edge{{U: 0, V: graph.MaxID - 1}}),
		"shared level, rank past MaxID":  vcBody([][]graph.ID{{7, 7}, {7}, {8}}, []graph.Edge{{U: 0, V: graph.MaxID - 1}}),
		"lone edge, stride near MaxID+1": vcBody([][]graph.ID{{3}}, []graph.Edge{{U: graph.MaxID - 2, V: graph.MaxID}}),
	} {
		cs, allocated, err := decodeAllocating(data)
		var ire *graph.IDRangeError
		if cs != nil || !errors.As(err, &ire) || ire.ID != int64(graph.MaxID)+1 {
			t.Errorf("%s (%d bytes): decoded %v, err %v; want *IDRangeError naming MaxID+1", name, len(data), cs, err)
		}
		if allocated > budget {
			t.Errorf("%s: refusing %d bytes allocated %d", name, len(data), allocated)
		}
	}

	for _, c := range []struct {
		name   string
		levels [][]graph.ID
		ranked []graph.Edge
		want   []graph.Edge
	}{
		{"lone edge, stride MaxID", [][]graph.ID{{3}}, []graph.Edge{{U: 2, V: graph.MaxID - 1}}, []graph.Edge{{U: 2, V: graph.MaxID}}},
		{"levels share a vertex", [][]graph.ID{{2, 5}, {5, 9}}, []graph.Edge{{U: 1, V: 6}, {U: 2, V: 2}}, []graph.Edge{{U: 1, V: 8}, {U: 3, V: 3}}},
		{"a level repeats a vertex", [][]graph.ID{{4, 4}}, []graph.Edge{{U: 0, V: 4}}, []graph.Edge{{U: 0, V: 5}}},
	} {
		data := vcBody(c.levels, c.ranked)
		cs, allocated, err := decodeAllocating(data)
		if err != nil || !reflect.DeepEqual(cs.Residual, c.want) {
			t.Fatalf("%s: err %v, residual %v, want %v", c.name, err, cs, c.want)
		}
		if allocated > budget {
			t.Errorf("%s: decoding %d bytes allocated %d", c.name, len(data), allocated)
		}
		if re := AppendVCCoreset(nil, cs); !bytes.Equal(re, data) || VCCoresetSizeBytes(cs) != len(data) {
			t.Fatalf("%s: %x re-encodes to %x (size %d)", c.name, data, re, VCCoresetSizeBytes(cs))
		}
	}
}

// A residual edge on a fixed vertex has no rank: the encoder and its size
// function panic naming the vertex instead of emitting a message.
func TestVCCoresetMessagePanicsOnFixedEndpoint(t *testing.T) {
	cs := &VCCoreset{Levels: [][]graph.ID{{1}, {3}}, Fixed: []graph.ID{1, 3}, Residual: []graph.Edge{{U: 0, V: 2}, {U: 2, V: 3}}}
	for name, fn := range map[string]func(){
		"AppendVCCoreset":    func() { AppendVCCoreset(nil, cs) },
		"VCCoresetSizeBytes": func() { VCCoresetSizeBytes(cs) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "endpoint 3 is an excluded ID") {
					t.Fatalf("%s: recovered %q, want the panic naming fixed vertex 3", name, msg)
				}
			}()
			fn()
		}()
	}
}

func TestSubsampledMatchingCoreset(t *testing.T) {
	r := rng.New(23)
	g := gen.GNP(400, 0.05, r)
	full := MatchingCoreset(g.N, g.Edges)
	sub := SubsampledMatchingCoreset(g.N, g.Edges, 4, r)
	// Subsampled coreset is a subset of a maximum matching: vertex-disjoint.
	matching.FromEdges(g.N, sub)
	if len(sub) >= len(full) {
		t.Fatalf("subsampling did not shrink: %d vs %d", len(sub), len(full))
	}
	// alpha=1 returns the full matching.
	whole := SubsampledMatchingCoreset(g.N, g.Edges, 1, r)
	if len(whole) != len(full) {
		t.Fatalf("alpha=1 size %d, want %d", len(whole), len(full))
	}
}

func TestSubsampledPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on alpha < 1")
		}
	}()
	SubsampledMatchingCoreset(10, nil, 0, rng.New(1))
}

func TestGroupedVCFeasibleAndBounded(t *testing.T) {
	r := rng.New(29)
	g := gen.GNP(512, 0.03, r)
	const k = 4
	for _, alpha := range []int{8, 16, 32} {
		gs := GroupSizeFor(g.N, alpha)
		parts := partition.RandomK(g.Edges, k, r)
		coresets := make([]*VCCoreset, k)
		for i, p := range parts {
			coresets[i] = GroupedVCCoreset(g.N, k, gs, p)
		}
		cover := ComposeGroupedVC(g.N, gs, coresets)
		if err := vcover.Verify(g.N, g.Edges, cover); err != nil {
			t.Fatalf("alpha=%d: grouped cover infeasible: %v", alpha, err)
		}
	}
}

func TestGroupedVCSelfLoopHandling(t *testing.T) {
	// Edge inside one group must force that group into the cover.
	edges := []graph.Edge{{U: 0, V: 1}} // group size 2 -> group 0 self-loop
	cs := GroupedVCCoreset(4, 1, 2, edges)
	found := false
	for _, v := range cs.Fixed {
		if v == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("self-loop group not fixed")
	}
	cover := ComposeGroupedVC(4, 2, []*VCCoreset{cs})
	if err := vcover.Verify(4, edges, cover); err != nil {
		t.Fatal(err)
	}
}

func TestGroupSizeFor(t *testing.T) {
	if GroupSizeFor(1, 100) != 1 {
		t.Fatal("tiny n should give group size 1")
	}
	if GroupSizeFor(1<<16, 4) != 1 {
		t.Fatal("alpha < log n should give group size 1")
	}
	if gs := GroupSizeFor(1<<16, 160); gs != 10 {
		t.Fatalf("GroupSizeFor(2^16, 160) = %d, want 10", gs)
	}
}

// subsampledBytes runs the Remark 5.2 protocol over a random k-partition of
// g drawn from seed — machine i subsamples with stream i+1 — and returns the
// set-codec bytes of the k messages and the composed matching.
func subsampledBytes(g *graph.Graph, k, alpha int, seed uint64) (int, *matching.Matching) {
	r := rng.New(seed)
	parts := partition.RandomK(g.Edges, k, r.Split(0))
	coresets := MapParts(parts, 0, func(i int, part []graph.Edge) []graph.Edge {
		return SubsampledMatchingCoreset(g.N, part, alpha, r.Split(uint64(i)+1))
	})
	total := 0
	for _, cs := range coresets {
		total += CoresetSizeBytes(cs)
	}
	return total, ComposeMatching(g.N, coresets)
}

func TestSubsampledCoresetSavesBytes(t *testing.T) {
	g := gen.GNP(600, 0.02, rng.New(3))
	base, _ := subsampledBytes(g, 4, 1, 11)
	sub, m := subsampledBytes(g, 4, 4, 11)
	if sub >= base {
		t.Fatalf("subsampling saved nothing: %d vs %d", sub, base)
	}
	if err := matching.Verify(g.N, g.Edges, m); err != nil {
		t.Fatal(err)
	}
}

func TestSubsampledBytesScaleWithAlpha(t *testing.T) {
	// Remark 5.2 shape: per-machine matchings are subsampled at 1/alpha, so
	// going from alpha 2 to 8 should cut the bytes at least in half.
	g := gen.GNP(2000, 0.005, rng.New(19))
	b2, _ := subsampledBytes(g, 4, 2, 37)
	b8, _ := subsampledBytes(g, 4, 8, 37)
	if ratio := float64(b2) / float64(b8); ratio < 2 {
		t.Fatalf("alpha scaling too weak: bytes(2)/bytes(8) = %.2f, want >= 2", ratio)
	}
}

func TestGroupedVCSavesBytes(t *testing.T) {
	g := gen.GNP(512, 0.04, rng.New(7))
	const k = 4
	parts := partition.RandomK(g.Edges, k, rng.New(17).Split(0))
	gs := GroupSizeFor(g.N, 32)
	grouped, plain := 0, 0
	coresets := make([]*VCCoreset, k)
	for i, p := range parts {
		cs := GroupedVCCoreset(g.N, k, gs, p)
		grouped += graph.IDSetBytes(cs.Fixed) + graph.EdgeSetBytes(cs.Residual)
		coresets[i] = cs
		plain += VCCoresetSizeBytes(ComputeVCCoreset(g.N, k, p))
	}
	if err := vcover.Verify(g.N, g.Edges, ComposeGroupedVC(g.N, gs, coresets)); err != nil {
		t.Fatalf("grouped cover infeasible: %v", err)
	}
	if grouped >= plain {
		t.Fatalf("grouping saved nothing: %d vs %d", grouped, plain)
	}
}

func TestMapPartsOrderAndParallel(t *testing.T) {
	parts := make([][]graph.Edge, 37)
	for i := range parts {
		parts[i] = []graph.Edge{{U: graph.ID(i), V: graph.ID(i + 1)}}
	}
	got := MapParts(parts, 8, func(i int, part []graph.Edge) int {
		return int(part[0].U)
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("result %d out of order: %d", i, v)
		}
	}
	// Serial path.
	got1 := MapParts(parts, 1, func(i int, part []graph.Edge) int { return i * 2 })
	for i, v := range got1 {
		if v != i*2 {
			t.Fatal("serial MapParts wrong")
		}
	}
	// Zero workers -> GOMAXPROCS default.
	got0 := MapParts(parts, 0, func(i int, part []graph.Edge) int { return i })
	if len(got0) != len(parts) {
		t.Fatal("MapParts(0) wrong length")
	}
}
