package stream

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/vcover"
)

// The registered descriptors the tests run, resolved once.
var (
	matchingTask = task.MustGet("matching")
	vcTask       = task.MustGet("vc")
	edcsTask     = task.MustGet("edcs")
)

// parityGraph returns a deterministic test workload per seed.
func parityGraph(seed uint64, n int, deg float64) *graph.Graph {
	return gen.GNP(n, deg/float64(n), rng.New(seed))
}

// batchHashParts is the oracle: the same k-partitioning the runtime's
// sharder must induce, materialized by the batch path.
func batchHashParts(g *graph.Graph, k int, seed uint64) [][]graph.Edge {
	return partition.ByAssignment(g.Edges, k, partition.HashAssignAll(g.Edges, k, seed))
}

// TestShardParity: the streaming sharder must deliver, to every machine,
// exactly the edge sequence the partition.ByAssignment oracle assigns it —
// same multiset AND same order, across seeds and batch sizes.
func TestShardParity(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := parityGraph(seed, 600, 7)
		for _, bs := range []int{0, 1, 7, 4096} {
			k := 5
			parts, st, err := Shard(NewGraphSource(g), Config{K: k, Seed: seed, BatchSize: bs})
			if err != nil {
				t.Fatalf("seed %d bs %d: %v", seed, bs, err)
			}
			want := batchHashParts(g, k, seed)
			for i := range want {
				if len(want[i]) == 0 && len(parts[i]) == 0 {
					continue
				}
				if !reflect.DeepEqual(parts[i], want[i]) {
					t.Fatalf("seed %d bs %d machine %d: stream shard differs from ByAssignment oracle", seed, bs, i)
				}
			}
			if !partition.Verify(g.Edges, parts) {
				t.Fatalf("seed %d bs %d: shards are not an exact multiset partition", seed, bs)
			}
			if st.EdgesTotal != g.M() || st.N != g.N {
				t.Fatalf("seed %d: stats EdgesTotal=%d N=%d, want %d %d", seed, st.EdgesTotal, st.N, g.M(), g.N)
			}
		}
	}
}

// TestMatchingParity: the streaming Theorem 1 pipeline must reproduce the
// batch pipeline run on the same hash k-partitioning bit for bit — identical
// per-machine coresets, identical composed matching — across >= 5 seeds.
func TestMatchingParity(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := parityGraph(seed, 800, 8)
		k := 6
		mSol, st, err := Solve(context.Background(), NewGraphSource(g), Config{K: k, Seed: seed}, matchingTask, task.Params{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m := mSol.Matching
		if err := matching.Verify(g.N, g.Edges, m); err != nil {
			t.Fatalf("seed %d: streamed matching invalid: %v", seed, err)
		}

		parts := batchHashParts(g, k, seed)
		coresets := make([][]graph.Edge, k)
		for i, p := range parts {
			coresets[i] = core.MatchingCoreset(g.N, p)
			if st.CoresetEdges[i] != len(coresets[i]) {
				t.Fatalf("seed %d machine %d: coreset size %d, batch %d", seed, i, st.CoresetEdges[i], len(coresets[i]))
			}
			if st.PartEdges[i] != len(p) {
				t.Fatalf("seed %d machine %d: routed %d edges, batch part has %d", seed, i, st.PartEdges[i], len(p))
			}
		}
		want := core.ComposeMatching(g.N, coresets)
		if m.Size() != want.Size() {
			t.Fatalf("seed %d: streamed matching %d, batch %d", seed, m.Size(), want.Size())
		}
		if !reflect.DeepEqual(m.Edges(), want.Edges()) {
			t.Fatalf("seed %d: streamed matching edges differ from batch", seed)
		}
		// The live greedy telemetry is a maximal matching of the machine's
		// partition, hence at least half its maximum matching.
		for i := range parts {
			if 2*st.Live[i] < len(coresets[i]) {
				t.Fatalf("seed %d machine %d: greedy %d below half of maximum %d", seed, i, st.Live[i], len(coresets[i]))
			}
		}
	}
}

// hubInput is the workload on which online level-1 peeling fires: a shuffled
// hubs-and-noise multigraph (gen.HubNoise, self-loops and parallel edges
// included) whose hubs cross every machine's level-1 threshold mid-stream.
// On the G(n,p) parity graphs per-machine degrees never come near n/(4k).
func hubInput(seed uint64) (n, k int, edges []graph.Edge) {
	n, k = 1200+40*int(seed), 2+int(seed%3)
	return n, k, gen.HubNoise(n, 3+int(seed%4), n/2, 5*n, rng.New(seed))
}

// vcParity runs the streaming Theorem 2 pipeline on (n, edges) and holds it
// to the batch path on the same hash partitioning: per-machine coresets of
// the sizes core.ComputeVCCoreset gives, and the identical, feasible cover.
// It returns how many vertices the machines peeled online.
func vcParity(t *testing.T, name string, n int, edges []graph.Edge, k int, seed uint64) (peeledOnline int) {
	t.Helper()
	coverSol, st, err := Solve(context.Background(), NewSliceSource(n, edges), Config{K: k, Seed: seed}, vcTask, task.Params{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cover := coverSol.Cover
	if err := vcover.Verify(n, edges, cover); err != nil {
		t.Fatalf("%s: streamed cover infeasible: %v", name, err)
	}

	parts := batchHashParts(&graph.Graph{N: n, Edges: edges}, k, seed)
	coresets := make([]*core.VCCoreset, k)
	for i, p := range parts {
		coresets[i] = core.ComputeVCCoreset(n, k, p)
		if st.CoresetEdges[i] != len(coresets[i].Residual) || st.CoresetFixed[i] != len(coresets[i].Fixed) {
			t.Fatalf("%s machine %d: coreset (%d res, %d fixed), batch (%d, %d)",
				name, i, st.CoresetEdges[i], st.CoresetFixed[i], len(coresets[i].Residual), len(coresets[i].Fixed))
		}
		peeledOnline += st.Live[i]
		// Online peeling must only ever shrink what a machine stores.
		if st.StoredEdges[i] > st.PartEdges[i] {
			t.Fatalf("%s machine %d: stored %d > received %d", name, i, st.StoredEdges[i], st.PartEdges[i])
		}
	}
	want := core.ComposeVC(n, coresets)
	if !reflect.DeepEqual(cover, want) {
		t.Fatalf("%s: streamed cover differs from batch (got %d vertices, want %d)", name, len(cover), len(want))
	}
	return peeledOnline
}

// TestVertexCoverParity: the streaming Theorem 2 pipeline (with online
// level-1 peeling) must emit per-machine coresets deep-equal to batch
// core.ComputeVCCoreset on the same parts, and compose to the identical,
// feasible cover — on G(n,p), where the online path stays idle, and on the
// hub-heavy inputs, where it must have fired.
func TestVertexCoverParity(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		// High average degree so peeling actually fires several levels.
		g := parityGraph(seed, 700, 40)
		vcParity(t, "gnp seed "+strconv.FormatUint(seed, 10), g.N, g.Edges, 4, seed)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		n, k, edges := hubInput(seed)
		// A whole run takes a graph without self-loops (graph.Validate; the
		// composed cover ignores them). The machines themselves are held to
		// the loops too, in TestVCBuilderDeepParity.
		edges = slices.DeleteFunc(edges, func(e graph.Edge) bool { return e.U == e.V })
		name := "hubs seed " + strconv.FormatUint(seed, 10)
		if vcParity(t, name, n, edges, k, seed) == 0 {
			t.Fatalf("%s: no machine peeled a vertex online", name)
		}
	}
}

// TestVCBuilderDeepParity drives the vc machine directly against batch
// ComputeVCCoreset: with the vertex count known upfront the online-peeling
// path must produce a field-for-field identical coreset, for every machine —
// on G(n,p) shards and on hub-heavy ones, where every machine must have
// peeled online and dropped edges it had stored. (The threshold-selection
// internals are pinned by internal/task's tests; here we check the hosted
// Machine facade end to end.)
func TestVCBuilderDeepParity(t *testing.T) {
	check := func(name string, n, k int, parts [][]graph.Edge) (live []int) {
		for i, p := range parts {
			m := NewMachine(vcTask.NewBuilder(k, n, task.Params{}))
			for _, e := range p {
				m.Add(e)
			}
			s := m.Finish(n)
			want := core.ComputeVCCoreset(n, k, p)
			if !reflect.DeepEqual(s.VC, want) {
				t.Fatalf("%s machine %d: online-peel coreset differs from batch:\ngot  %+v\nwant %+v", name, i, s.VC, want)
			}
			live = append(live, s.Live)
		}
		return live
	}
	for seed := uint64(1); seed <= 5; seed++ {
		g := parityGraph(seed, 500, 60)
		check("gnp seed "+strconv.FormatUint(seed, 10), g.N, 3, batchHashParts(g, 3, seed))
	}
	for seed := uint64(1); seed <= 20; seed++ {
		n, k, edges := hubInput(seed)
		name := "hubs seed " + strconv.FormatUint(seed, 10)
		for i, live := range check(name, n, k, batchHashParts(&graph.Graph{N: n, Edges: edges}, k, seed)) {
			if live == 0 {
				t.Fatalf("%s machine %d: peeled nothing online", name, i)
			}
		}
	}
}

// TestReaderSourceParity: streaming from the text format (with header: n
// known upfront) must match streaming from the in-memory slice.
func TestReaderSourceParity(t *testing.T) {
	g := parityGraph(11, 400, 10)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 4, Seed: 11}
	fromFileSol, stF, err := Solve(context.Background(), NewReaderSource(bytes.NewReader(buf.Bytes())), cfg, matchingTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	fromFile := fromFileSol.Matching
	fromSliceSol, stS, err := Solve(context.Background(), NewGraphSource(g), cfg, matchingTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	fromSlice := fromSliceSol.Matching
	if fromFile.Size() != fromSlice.Size() || stF.N != stS.N || stF.EdgesTotal != stS.EdgesTotal {
		t.Fatalf("reader (%d edges, n=%d) differs from slice (%d edges, n=%d)",
			fromFile.Size(), stF.N, fromSlice.Size(), stS.N)
	}
}

// TestHeaderlessReader: without a header the vertex count is only known at
// end of stream; the vc path must fall back to batch peeling and still agree
// with the batch pipeline.
func TestHeaderlessReader(t *testing.T) {
	g := parityGraph(13, 300, 30)
	var sb strings.Builder
	for _, e := range g.Edges {
		sb.WriteString(strconv.Itoa(int(e.U)) + " " + strconv.Itoa(int(e.V)) + "\n")
	}
	src := NewReaderSource(strings.NewReader(sb.String()))
	if src.KnownUpfront() {
		t.Fatal("headerless source claims to know n upfront")
	}
	cfg := Config{K: 4, Seed: 13}
	coverSol, st, err := Solve(context.Background(), src, cfg, vcTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	cover := coverSol.Cover
	// Headerless n is 1 + max id seen, which can be < g.N if the top ids are
	// isolated; the composed cover must still match batch on that universe.
	parts := partition.ByAssignment(g.Edges, cfg.K, partition.HashAssignAll(g.Edges, cfg.K, cfg.Seed))
	coresets := make([]*core.VCCoreset, cfg.K)
	for i, p := range parts {
		coresets[i] = core.ComputeVCCoreset(st.N, cfg.K, p)
	}
	want := core.ComposeVC(st.N, coresets)
	if !reflect.DeepEqual(cover, want) {
		t.Fatalf("headerless streamed cover differs from batch")
	}
	if err := vcover.Verify(st.N, g.Edges, cover); err != nil {
		t.Fatalf("headerless cover infeasible: %v", err)
	}
}

// TestIterSourceMatchesGraphSource: the generator source streams exactly the
// edges the materializing generator produces.
func TestIterSourceMatchesGraphSource(t *testing.T) {
	const n, seed = 500, 17
	p := 8.0 / n
	g := gen.GNP(n, p, rng.New(seed))
	src := NewIterSource(n, func() gen.EdgeIter { return gen.GNPIter(n, p, rng.New(seed)) })
	parts, _, err := Shard(src, Config{K: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	want := batchHashParts(g, 3, 17)
	for i := range want {
		if len(want[i])+len(parts[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(parts[i], want[i]) {
			t.Fatalf("machine %d: generator-streamed shard differs from materialized oracle", i)
		}
	}
}

// TestCollect: draining any source yields the graph it streams; an unread
// slice source hands back its own slice (no copy — what keeps a batch job on
// an uploaded graph from doubling it), a partly read one the rest; a source
// error surfaces instead of a truncated graph.
func TestCollect(t *testing.T) {
	const n, seed = 300, 5
	g := gen.GNP(n, 8.0/n, rng.New(seed))
	got, err := Collect(NewIterSource(n, func() gen.EdgeIter { return gen.GNPIter(n, 8.0/n, rng.New(seed)) }))
	if err != nil {
		t.Fatal(err)
	}
	if got.N != g.N || !reflect.DeepEqual(got.Edges, g.Edges) {
		t.Fatalf("collected n=%d m=%d, generator made n=%d m=%d", got.N, got.M(), g.N, g.M())
	}

	src := NewGraphSource(g)
	got, err = Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != g.N || got.M() != g.M() || &got.Edges[0] != &g.Edges[0] {
		t.Fatal("an unread slice source must hand back its backing slice")
	}
	if c, err := src.Next(make([]graph.Edge, 4)); c != 0 || err == nil {
		t.Fatalf("collected source still delivers (%d, %v)", c, err)
	}

	src = NewGraphSource(g)
	if _, err := src.Next(make([]graph.Edge, 10)); err != nil {
		t.Fatal(err)
	}
	got, err = Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Edges, g.Edges[10:]) {
		t.Fatalf("a partly read source collected %d edges, want the remaining %d", got.M(), g.M()-10)
	}

	if _, err := Collect(NewReaderSource(strings.NewReader("p 4 3\n0 1\n0 9\n"))); err == nil || !strings.Contains(err.Error(), "out of declared range") {
		t.Fatalf("source error lost: %v", err)
	}
}

// TestEmptyStream: a zero-edge stream must compose empty answers, not hang
// or panic.
func TestEmptyStream(t *testing.T) {
	mSol, st, err := Solve(context.Background(), NewSliceSource(0, nil), Config{K: 3, Seed: 1}, matchingTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	m := mSol.Matching
	if m.Size() != 0 || st.EdgesTotal != 0 {
		t.Fatalf("empty stream produced size %d, %d edges", m.Size(), st.EdgesTotal)
	}
	coverSol, _, err := Solve(context.Background(), NewSliceSource(0, nil), Config{K: 3, Seed: 1}, vcTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	cover := coverSol.Cover
	if len(cover) != 0 {
		t.Fatalf("empty stream produced cover of %d", len(cover))
	}
}

// TestSourceErrorAborts: an invalid input must surface its parse error and
// shut the machine goroutines down cleanly (no deadlock, no summary).
func TestSourceErrorAborts(t *testing.T) {
	in := "p 4 3\n0 1\n2 3\n0 9\n" // third edge out of declared range
	_, _, err := Solve(context.Background(), NewReaderSource(strings.NewReader(in)), Config{K: 2, Seed: 1}, matchingTask, task.Params{})
	if err == nil {
		t.Fatal("invalid input accepted")
	}
	if !strings.Contains(err.Error(), "out of declared range") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestConfigValidation: bad configs and sources are rejected.
func TestConfigValidation(t *testing.T) {
	if _, _, err := Solve(context.Background(), nil, Config{K: 2}, matchingTask, task.Params{}); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, _, err := Solve(context.Background(), NewSliceSource(0, nil), Config{K: 0}, matchingTask, task.Params{}); err == nil {
		t.Fatal("K = 0 accepted")
	}
}

// TestStatsAccounting: communication accounting must agree with the encoded
// sizes of the summaries.
func TestStatsAccounting(t *testing.T) {
	g := parityGraph(19, 400, 8)
	k := 4
	_, st, err := Solve(context.Background(), NewGraphSource(g), Config{K: k, Seed: 19}, matchingTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	parts := batchHashParts(g, k, 19)
	wantTotal, wantMax := 0, 0
	for _, p := range parts {
		b := core.CoresetSizeBytes(core.MatchingCoreset(g.N, p))
		wantTotal += b
		if b > wantMax {
			wantMax = b
		}
	}
	if st.TotalCommBytes != wantTotal || st.MaxMachineBytes != wantMax {
		t.Fatalf("comm accounting (%d, %d), want (%d, %d)", st.TotalCommBytes, st.MaxMachineBytes, wantTotal, wantMax)
	}
	if st.EdgesPerSec() <= 0 {
		t.Fatal("throughput not reported")
	}
}

// cancelSource wraps a source and cancels the context after a fixed number
// of Next calls, then keeps producing: the pipeline, not the source, must
// notice the cancellation and stop early.
type cancelSource struct {
	inner  EdgeSource
	cancel func()
	after  int
	calls  int
}

func (s *cancelSource) Next(buf []graph.Edge) (int, error) {
	s.calls++
	if s.calls == s.after {
		s.cancel()
	}
	return s.inner.Next(buf)
}

func (s *cancelSource) NumVertices() int   { return s.inner.NumVertices() }
func (s *cancelSource) KnownUpfront() bool { return s.inner.KnownUpfront() }

func TestMatchingContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.GNP(200, 0.05, rng.New(1))
	_, _, err := Solve(ctx, NewGraphSource(g), Config{K: 3, Seed: 1}, matchingTask, task.Params{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMatchingContextCanceledMidStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := gen.GNP(2000, 0.01, rng.New(2))
	src := &cancelSource{inner: NewGraphSource(g), cancel: cancel, after: 2}
	_, _, err := Solve(ctx, src, Config{K: 4, Seed: 2, BatchSize: 64}, matchingTask, task.Params{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestVertexCoverContextCanceledMidStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := gen.GNP(2000, 0.01, rng.New(3))
	src := &cancelSource{inner: NewGraphSource(g), cancel: cancel, after: 2}
	_, _, err := Solve(ctx, src, Config{K: 4, Seed: 3, BatchSize: 64}, vcTask, task.Params{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A background context (nil Done channel) and a cancelable one that is never
// canceled must leave the pipeline's behavior untouched.
func TestMatchingContextBackgroundMatchesMatching(t *testing.T) {
	g := gen.GNP(1500, 0.008, rng.New(4))
	wantSol, _, err := Solve(context.Background(), NewGraphSource(g), Config{K: 3, Seed: 4}, matchingTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	want := wantSol.Matching
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gotSol, _, err := Solve(ctx, NewGraphSource(g), Config{K: 3, Seed: 4}, matchingTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	got := gotSol.Matching
	if want.Size() != got.Size() {
		t.Fatalf("sizes differ: %d vs %d", want.Size(), got.Size())
	}
}
