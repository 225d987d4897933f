package task

import (
	"math"
	"reflect"
	"runtime"
	"slices"
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
	g := testGraph(t, 2000, 24, 3)
	parts := partition.HashK(g.Edges, 4, 7)
	for i, part := range parts {
		// The store reaches several blocks, which the matcher reads in place
		// (Finish releases them, so count them before).
		b := newMatchingBuilder(g.N)
		for _, e := range part {
			b.Add(e)
		}
		if len(b.edges.Chunks()) < 3 {
			t.Fatalf("machine %d: store holds %d chunks, want several", i, len(b.edges.Chunks()))
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
	run := func() (Summary, graph.BuildCounters) {
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

// finish feeds part to a fresh builder of task d for a k-machine run over n
// vertices and returns its summary, stamped as the runtimes stamp it.
func finish(d *Descriptor, k, n int, part []graph.Edge) Summary {
	p := Params{}
	if d.UsesBeta {
		p.EDCS = edcs.ParamsForBeta(8)
	}
	b := d.NewBuilder(k, n, p)
	for _, e := range part {
		b.Add(e)
	}
	s := b.Finish(n)
	s.Edges = len(part)
	return s
}

// codecShard is one machine's input: its shard of a k-machine run over n
// vertices.
type codecShard struct {
	k, n int
	part []graph.Edge
}

// codecCorpus is what the summary codec tests feed every task: G(n,p) shards
// sparse and dense (several VC levels fire on the dense one), and shuffled
// hub-noise shards whose arrival order is not sorted.
func codecCorpus(t *testing.T) (shards []codecShard) {
	for _, g := range []*graph.Graph{testGraph(t, 300, 8, 17), testGraph(t, 700, 40, 2)} {
		shards = append(shards, codecShard{2, g.N, partition.HashK(g.Edges, 2, 5)[0]})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		n, k, parts := hubShards(seed)
		// Whole runs take graphs without self-loops (graph.Validate), and the
		// matcher is entitled to that; the vc machine alone is held to the
		// loops too, in TestVCPeelMatchesDefinition.
		simple := slices.DeleteFunc(parts[0], func(e graph.Edge) bool { return e.U == e.V })
		shards = append(shards, codecShard{k, n, simple})
	}
	return shards
}

// Every task's summary codec must round-trip a real builder summary exactly
// — including the nil-versus-empty slice shapes seed parity depends on — and
// the byte charge every runtime's accounting sums, Summary.Bytes, must be the
// length of the encoded body, not an estimate of it: on the sending machine
// (Finish) and on the receiving one (DecodeBody).
func TestSummaryCodecRoundTripAllTasks(t *testing.T) {
	for _, name := range Names() {
		d := MustGet(name)
		for i, c := range codecCorpus(t) {
			s := finish(d, c.k, c.n, c.part)
			if body := d.AppendBody(nil, s); s.Bytes != len(body) {
				t.Fatalf("%s shard %d: Finish charged %d bytes, the body is %d", name, i, s.Bytes, len(body))
			}

			buf := AppendSummary(nil, d, s)
			got, err := DecodeSummary(d, buf)
			if err != nil {
				t.Fatalf("%s shard %d: decode: %v", name, i, err)
			}
			if !reflect.DeepEqual(got, s) {
				t.Fatalf("%s shard %d: round trip diverged:\n got %+v\nwant %+v", name, i, got, s)
			}

			// Trailing garbage must be an error, never silently ignored.
			if _, err := DecodeSummary(d, append(buf, 0xff)); err == nil {
				t.Fatalf("%s shard %d: trailing byte accepted", name, i)
			}
		}
	}
}

// An empty machine (no edges routed to it) must also round-trip exactly: the
// zero-count encodings pin the nil-versus-empty conventions.
func TestSummaryCodecRoundTripEmpty(t *testing.T) {
	for _, name := range Names() {
		d := MustGet(name)
		s := finish(d, 2, 50, nil)
		buf := AppendSummary(nil, d, s)
		if s.Bytes != len(d.AppendBody(nil, s)) {
			t.Fatalf("%s: Finish charged %d bytes, the empty body is %d", name, s.Bytes, len(d.AppendBody(nil, s)))
		}
		got, err := DecodeSummary(d, buf)
		if err != nil {
			t.Fatalf("%s: decode empty: %v", name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: empty round trip diverged:\n got %+v\nwant %+v", name, got, s)
		}
	}
}

// Byte budgets of the summaries, as ordinary tests so that a regression names
// its task: one machine's body on a shard of each benchmark shape. The
// budgets sit about 10 % above what the sorted-set codec spends today (vc
// 106 468 bytes against 117 314: 1.23 bytes a residual edge and 0.39 a fixed
// vertex; edcs 203 195 against 225 511, 1.71 an edge; matching 9 150 against
// 10 080, 2.04 an edge) and far below what an order-preserving list costs
// (3.2 to 3.7), so one more byte an edge fails. The vc row also fails a
// residual sent as plain IDs rather than as ranks outside the fixed set
// (1.52 bytes an edge, 130 770 bytes).
func TestSummaryBytesBudget(t *testing.T) {
	for _, c := range []struct {
		task      string
		n, k      int
		deg       float64
		beta      int
		perEdge   float64 // budget per coreset edge
		perVertex float64 // budget per fixed vertex
	}{
		{"vc", 16384, 4, 256, 0, 1.35, 0.5},   // dense_vc_cluster
		{"edcs", 32768, 4, 64, 16, 1.9, 0},    // dataset_edcs_stream
		{"matching", 16384, 8, 8, 0, 2.25, 0}, // gnp_matching_stream
	} {
		d := MustGet(c.task)
		g := testGraph(t, c.n, c.deg, 1)
		p := Params{}
		if d.UsesBeta {
			p.EDCS = edcs.ParamsForBeta(c.beta)
		}
		b := d.NewBuilder(c.k, g.N, p)
		for _, e := range partition.HashK(g.Edges, c.k, 7)[0] {
			b.Add(e)
		}
		s := b.Finish(g.N)
		edges, fixed := d.CoresetLen(s), 0
		if d.FixedLen != nil {
			fixed = d.FixedLen(s)
		}
		if edges < 1000 || c.perVertex > 0 && fixed < 1000 {
			t.Fatalf("%s: the shard summarizes to %d edges and %d fixed vertices; too small to hold a budget", c.task, edges, fixed)
		}
		got := len(d.AppendBody(nil, s))
		budget := int(c.perEdge*float64(edges) + c.perVertex*float64(fixed))
		t.Logf("%s: %d edges, %d fixed vertices in %d bytes (budget %d)", c.task, edges, fixed, got, budget)
		if got > budget {
			t.Fatalf("task %s: summary body is %d bytes, budget %d (%.1f B/edge x %d + %.1f B/vertex x %d)",
				c.task, got, budget, c.perEdge, edges, c.perVertex, fixed)
		}
	}
}

// FuzzDecodeSummary: a CORESET payload is bytes off a socket, whatever the
// task. The first input byte picks the task; the rest must decode without
// panicking, and anything accepted must carry the exact byte charge and
// re-encode to something that decodes to the same summary.
func FuzzDecodeSummary(f *testing.F) {
	names := Names()
	g := gen.GNP(120, 0.1, rng.New(4))
	for i, name := range names {
		d := MustGet(name)
		f.Add(append([]byte{byte(i)}, AppendSummary(nil, d, finish(d, 2, g.N, g.Edges))...))
		f.Add(append([]byte{byte(i)}, AppendSummary(nil, d, finish(d, 2, 50, nil))...))
		f.Add([]byte{byte(i), 0x01, 0x02, 0x03})
	}
	// The shards above are too sparse for any level to fire, so the vc
	// residual's rank space would go unfuzzed without a hub-heavy shard.
	vc := MustGet("vc")
	hubs := finish(vc, 2, 200, gen.HubNoise(200, 4, 120, 600, rng.New(5)))
	if len(hubs.VC.Levels) == 0 || len(hubs.VC.Fixed) == 0 || len(hubs.VC.Residual) == 0 {
		f.Fatalf("the vc seed has %d levels, %d fixed vertices, %d residual edges; want all three", len(hubs.VC.Levels), len(hubs.VC.Fixed), len(hubs.VC.Residual))
	}
	f.Add(append([]byte{byte(slices.Index(names, "vc"))}, AppendSummary(nil, vc, hubs)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := MustGet(names[int(data[0])%len(names)])
		sum, err := DecodeSummary(d, data[1:])
		if err != nil {
			return
		}
		if body := d.AppendBody(nil, sum); sum.Bytes != len(body) {
			t.Fatalf("%s: decoded charge %d bytes, the body re-encodes to %d", d.Name, sum.Bytes, len(body))
		}
		got, err := DecodeSummary(d, AppendSummary(nil, d, sum))
		if err != nil {
			t.Fatalf("%s: re-decode of a re-encoded summary failed: %v", d.Name, err)
		}
		if !reflect.DeepEqual(got, sum) {
			t.Fatalf("%s: decode/encode not a fixpoint:\n got %+v\nwant %+v", d.Name, got, sum)
		}
	})
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

// vcShard is one machine's shard of G(n, deg/n) hashed k ways: deg/k edges
// per vertex on the machine.
func vcShard(tb testing.TB, n int, deg float64, k int) []graph.Edge {
	tb.Helper()
	g := gen.GNP(n, deg/float64(n), rng.New(1))
	return partition.HashK(g.Edges, k, 7)[0]
}

// vc Finish peels in the degree table the builder kept while the shard
// arrived, and a vc machine reuses the memory the machine before it handed
// back: its store's blocks (graph's free list) and its degree table
// (degTables). On the service shard shape (n = 20 000, four machines, degree
// 2 per machine), where no level fixes anybody, a second machine's whole
// lifecycle, Add and Finish, may allocate the residual (8 bytes an edge), one
// byte per vertex and a small constant: a fresh store or degree table does
// not fit, nor does a second table or a recount of the store in Finish.
// Under the race detector sync.Pool drops a random quarter of what it is
// handed, so there only Finish is held to the budget.
func TestVCFinishAllocationBudget(t *testing.T) {
	const n, k = 20_000, 4
	part := vcShard(t, n, 8, k)
	if len(part) < 19_000 || len(part) > 21_000 {
		t.Fatalf("shard has %d edges, want about 20 000", len(part))
	}
	machine := func() (s Summary, lifecycle, finish uint64) {
		var start, added, done runtime.MemStats
		runtime.ReadMemStats(&start)
		b := newVCBuilder(k, n)
		for _, e := range part {
			b.Add(e)
		}
		runtime.ReadMemStats(&added)
		s = b.Finish(n)
		runtime.ReadMemStats(&done)
		return s, done.TotalAlloc - start.TotalAlloc, done.TotalAlloc - added.TotalAlloc
	}
	machine() // leaves its blocks and degree table on the free lists
	// The best of three machines, so that a collection that empties the free
	// lists between two of them does not decide the test.
	s, lifecycle, finish := machine()
	for range 2 {
		_, l, f := machine()
		lifecycle, finish = min(lifecycle, l), min(finish, f)
	}
	if len(s.VC.Fixed) != 0 || len(s.VC.Residual) != len(part) {
		t.Fatalf("a level fired: %d fixed, %d of %d edges left", len(s.VC.Fixed), len(s.VC.Residual), len(part))
	}
	budget := uint64(8*len(s.VC.Residual) + n + 1024)
	t.Logf("a second machine allocated %d bytes on %d edges, %d of them in Finish (budget %d)", lifecycle, len(part), finish, budget)
	if finish > budget {
		t.Fatalf("Finish allocated %d bytes, budget %d", finish, budget)
	}
	if !raceEnabled && lifecycle > budget {
		t.Fatalf("a second machine's Add and Finish allocated %d bytes, budget %d", lifecycle, budget)
	}
}

// BenchmarkVCFinish runs a vc machine, Add and Finish, on the service shard
// shape (n = 20 000, degree 2 per machine, where no level fires) and on the
// dense cluster shape (n = 16 384, degree 64 per machine, where levels do).
func BenchmarkVCFinish(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		deg  float64
	}{
		{"service", 20_000, 8},
		{"dense", 16_384, 256},
	} {
		const k = 4
		part := vcShard(b, c.n, c.deg, k)
		b.Run(c.name, func(b *testing.B) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			alloc := ms.TotalAlloc
			b.ResetTimer()
			for range b.N {
				vb := newVCBuilder(k, c.n)
				for _, e := range part {
					vb.Add(e)
				}
				vb.Finish(c.n)
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			edges := float64(b.N * len(part))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/edges, "ns/edge")
			b.ReportMetric(float64(ms.TotalAlloc-alloc)/edges, "B/edge")
		})
	}
}
