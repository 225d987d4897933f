package task

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
)

func testGraph(t *testing.T, n int, deg float64, seed uint64) *graph.Graph {
	t.Helper()
	g := gen.GNP(n, deg/float64(n), rng.New(seed))
	if g.M() == 0 {
		t.Fatal("empty test graph")
	}
	return g
}

// The incremental matching builder must emit exactly the batch coreset for
// the same partition — the deep parity the stream and cluster runtimes'
// seed-parity guarantee rests on. (Moved here from internal/stream when the
// builders moved into the registry package.)
func TestMatchingBuilderDeepParity(t *testing.T) {
	g := testGraph(t, 600, 8, 3)
	parts := partition.HashK(g.Edges, 4, 7)
	for i, part := range parts {
		b := newMatchingBuilder()
		for _, e := range part {
			b.Add(e)
		}
		s := b.Finish(g.N)
		want := core.MatchingCoreset(g.N, part)
		if !reflect.DeepEqual(s.Coreset, want) {
			t.Fatalf("machine %d: builder coreset diverges from batch", i)
		}
		if s.Stored != len(part) {
			t.Fatalf("machine %d: stored %d, want %d", i, s.Stored, len(part))
		}
		if s.Bytes != core.CoresetSizeBytes(want) {
			t.Fatalf("machine %d: bytes %d, want %d", i, s.Bytes, core.CoresetSizeBytes(want))
		}
	}
}

// Online level-1 peeling must be invisible in the output: same VCCoreset,
// field for field, as the batch peel over the stored partition. Also pins
// the threshold internals the stream package used to assert directly. On
// this G(n,p) input no machine's degrees reach the level-1 threshold, so it
// only shows that an idle online path changes nothing; the hub-heavy test
// below is the one where it fires.
func TestVCBuilderDeepParity(t *testing.T) {
	g := testGraph(t, 800, 12, 5)
	k := 4
	parts := partition.HashK(g.Edges, k, 9)
	for i, part := range parts {
		b := newVCBuilder(k, g.N)
		if want := int(math.Ceil(float64(g.N) / (float64(k) * 4))); b.threshold != want {
			t.Fatalf("machine %d: threshold %d, want %d", i, b.threshold, want)
		}
		for _, e := range part {
			b.Add(e)
		}
		got := b.Finish(g.N).VC
		want := core.ComputeVCCoreset(g.N, k, part)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("machine %d: online-peel coreset diverges from batch", i)
		}
	}
}

// hubShards is the input on which online peeling has work to do: per seed, a
// shuffled hubs-and-noise multigraph (gen.HubNoise) whose hubs cross every
// machine's level-1 threshold mid-stream, hash-partitioned over k machines.
func hubShards(seed uint64) (n, k int, parts [][]graph.Edge) {
	n, k = 1500+50*int(seed), 2+int(seed%3)
	// A hub keeps about hubDeg/k edges on each machine: twice the level-1
	// threshold n/(4k), so it crosses halfway through its arrivals.
	edges := gen.HubNoise(n, 4+int(seed%5), n/2, 5*n, rng.New(seed))
	return n, k, partition.HashK(edges, k, seed+100)
}

// The same deep parity where online peeling fires: every machine fixes hubs
// while its shard is still arriving, holds edges it stored before their hub
// crossed the threshold (the first sweep of Finish must drop them), discards
// the ones that arrive after, and still emits the batch coreset field for
// field — self-loops and parallel edges included.
func TestVCBuilderOnlinePeelParity(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		n, k, parts := hubShards(seed)
		for i, part := range parts {
			b := newVCBuilder(k, n)
			for _, e := range part {
				b.Add(e)
			}
			s := b.Finish(n)
			want := core.ComputeVCCoreset(n, k, part)
			if !reflect.DeepEqual(s.VC, want) {
				t.Fatalf("seed %d machine %d: online-peel coreset diverges from batch", seed, i)
			}
			if s.Live == 0 || s.Live != len(want.Levels[0]) {
				t.Fatalf("seed %d machine %d: peeled %d vertices online, batch level 1 has %d", seed, i, s.Live, len(want.Levels[0]))
			}
			level1 := make(map[graph.ID]bool)
			for _, v := range want.Levels[0] {
				level1[v] = true
			}
			uncovered := 0
			for _, e := range part {
				if !level1[e.U] && !level1[e.V] {
					uncovered++
				}
			}
			// Stored above uncovered: edges were held before their endpoint
			// was fixed. Stored below received: edges were discarded after.
			if s.Stored <= uncovered || s.Stored >= len(part) {
				t.Fatalf("seed %d machine %d: stored %d of %d edges, %d of them outside level 1", seed, i, s.Stored, len(part), uncovered)
			}
		}
	}
}

// Without a vertex-count hint the vc builder must disable online peeling and
// still converge to the batch answer at Finish.
func TestVCBuilderNoHintFallsBack(t *testing.T) {
	g := testGraph(t, 500, 10, 11)
	k := 4
	parts := partition.HashK(g.Edges, k, 13)
	for i, part := range parts {
		b := newVCBuilder(k, 0)
		if b.threshold != 0 {
			t.Fatalf("machine %d: threshold %d without nHint", i, b.threshold)
		}
		for _, e := range part {
			b.Add(e)
		}
		got := b.Finish(g.N).VC
		want := core.ComputeVCCoreset(g.N, k, part)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("machine %d: no-hint coreset diverges from batch", i)
		}
	}
}

// The EDCS builder is a pure function of arrival order; replaying the same
// partition twice must produce identical summaries and telemetry.
func TestEDCSBuilderDeterministic(t *testing.T) {
	g := testGraph(t, 400, 10, 7)
	part := partition.HashK(g.Edges, 2, 3)[0]
	p := edcs.ParamsForBeta(8)
	run := func() (Summary, MachineTelem) {
		b := newEDCSBuilder(g.N, p)
		for _, e := range part {
			b.Add(e)
		}
		return b.Finish(g.N), b.Telem()
	}
	s1, t1 := run()
	s2, t2 := run()
	if !reflect.DeepEqual(s1, s2) || t1 != t2 {
		t.Fatal("EDCS builder not deterministic over replayed arrivals")
	}
	if len(s1.Coreset) == 0 {
		t.Fatal("EDCS builder produced an empty coreset")
	}
}

// Every task's summary codec must round-trip a real builder summary exactly
// — including the nil-versus-empty slice shapes seed parity depends on.
func TestSummaryCodecRoundTripAllTasks(t *testing.T) {
	g := testGraph(t, 300, 8, 17)
	part := partition.HashK(g.Edges, 2, 5)[0]
	for _, name := range Names() {
		d := MustGet(name)
		p := Params{}
		if d.UsesBeta {
			p.EDCS = edcs.ParamsForBeta(8)
		}
		b := d.NewBuilder(2, g.N, p)
		for _, e := range part {
			b.Add(e)
		}
		s := b.Finish(g.N)
		s.Edges = len(part) // the runtimes stamp this before encoding

		buf := AppendSummary(nil, d, s)
		got, err := DecodeSummary(d, buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: round trip diverged:\n got %+v\nwant %+v", name, got, s)
		}

		// Trailing garbage must be an error, never silently ignored.
		if _, err := DecodeSummary(d, append(buf, 0xff)); err == nil {
			t.Fatalf("%s: trailing byte accepted", name)
		}
	}
}

// An empty machine (no edges routed to it) must also round-trip exactly: the
// zero-count encodings pin the nil-versus-empty conventions.
func TestSummaryCodecRoundTripEmpty(t *testing.T) {
	for _, name := range Names() {
		d := MustGet(name)
		p := Params{}
		if d.UsesBeta {
			p.EDCS = edcs.ParamsForBeta(8)
		}
		b := d.NewBuilder(2, 50, p)
		s := b.Finish(50)
		buf := AppendSummary(nil, d, s)
		got, err := DecodeSummary(d, buf)
		if err != nil {
			t.Fatalf("%s: decode empty: %v", name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: empty round trip diverged:\n got %+v\nwant %+v", name, got, s)
		}
	}
}

// The Theorem 2 machine's allocation budget, as an ordinary test so that a
// regression names this layer: over a dense shard of about half a million
// edges (the benchmark's dense_vc_cluster machine: G(16384, 256/n) hashed
// four ways, of which some 15 % survives the peel), every Add plus Finish may
// allocate 12 bytes per routed edge plus 64 per vertex. The edge store costs
// the 8 bytes it holds plus under one chunk of slack, the residual is sized
// to what survives, and the per-vertex tables are O(n); the append-grown
// slice and the CSR this replaced spent 66 bytes per edge here.
func TestVCBuilderAllocationBudget(t *testing.T) {
	g := testGraph(t, 16384, 256, 1)
	k := 4
	part := partition.HashK(g.Edges, k, 7)[0]
	if len(part) < 500_000 {
		t.Fatalf("shard has %d edges, want half a million", len(part))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := newVCBuilder(k, g.N)
	for _, e := range part {
		b.Add(e)
	}
	s := b.Finish(g.N)
	runtime.ReadMemStats(&after)
	if len(s.VC.Residual) == 0 || len(s.VC.Fixed) == 0 {
		t.Fatalf("the peel did nothing: %d fixed, %d residual", len(s.VC.Fixed), len(s.VC.Residual))
	}
	got, budget := after.TotalAlloc-before.TotalAlloc, uint64(12*len(part)+64*g.N)
	t.Logf("%d edges: %.2f B/edge allocated (budget %.2f), %d residual", len(part), float64(got)/float64(len(part)), float64(budget)/float64(len(part)), len(s.VC.Residual))
	if got > budget {
		t.Fatalf("Add x %d + Finish allocated %d bytes, budget %d", len(part), got, budget)
	}
}
