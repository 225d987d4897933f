package cluster

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
	"repro/internal/vcover"
)

// The registered descriptors the tests run, resolved once.
var (
	matchingTask  = task.MustGet("matching")
	vcTask        = task.MustGet("vc")
	edcsTask      = task.MustGet("edcs")
	diversityTask = task.MustGet("diversity")
)

// startWorkers brings up k in-process workers on loopback TCP and returns
// their addresses; they are torn down when the test ends.
func startWorkers(t *testing.T, k int) []string {
	t.Helper()
	addrs, shutdown, err := ServeLoopback(k)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	return addrs
}

func parityGraph(seed uint64, n int, deg float64) *graph.Graph {
	return gen.GNP(n, deg/float64(n), rng.New(seed))
}

func batchHashParts(g *graph.Graph, k int, seed uint64) [][]graph.Edge {
	return partition.ByAssignment(g.Edges, k, partition.HashAssignAll(g.Edges, k, seed))
}

// TestSeedParityAcrossRuntimes is the acceptance gate for the cluster
// runtime: for a fixed (graph, seed, k), the batch pipeline on the hash
// k-partitioning, the in-process stream pipeline, and the cluster runtime
// must produce deep-equal per-machine coresets and identical composed
// solutions — for both tasks, across several seeds. (go test -race keeps it
// race-clean.)
func TestSeedParityAcrossRuntimes(t *testing.T) {
	const k = 4
	addrs := startWorkers(t, k)
	ctx := context.Background()
	edcsP := edcs.ParamsForBeta(16)
	for _, tc := range []struct {
		task string
		n    int
		deg  float64
	}{
		{"matching", 800, 8},
		{"vc", 700, 40},          // high degree so VC peeling fires several levels
		{"edcs", 600, 30},        // dense enough that the EDCS actually trims
		{"edcs-rounds", 600, 30}, // multi-round: reused connections, per-round parity
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			g := parityGraph(seed, tc.n, tc.deg)
			cfg := Config{Workers: addrs, Seed: seed}
			parts := batchHashParts(g, k, seed)
			src := stream.NewGraphSource(g)

			switch tc.task {
			case "matching":
				sums, _, err := summaries(ctx, src, cfg, matchingTask, task.Params{})
				if err != nil {
					t.Fatalf("matching seed %d: %v", seed, err)
				}
				// Per-machine coresets survive the wire deep-equal to the
				// batch oracle on the same partition.
				for i, p := range parts {
					want := core.MatchingCoreset(g.N, p)
					if !reflect.DeepEqual(sums[i].Coreset, want) {
						t.Fatalf("seed %d machine %d: cluster coreset differs from batch", seed, i)
					}
					if sums[i].Edges != len(p) {
						t.Fatalf("seed %d machine %d: worker received %d edges, oracle part has %d", seed, i, sums[i].Edges, len(p))
					}
				}
				// Composed solutions agree across all three runtimes.
				cm, cst, err := Solve(ctx, stream.NewGraphSource(g), cfg, matchingTask, task.Params{})
				if err != nil {
					t.Fatalf("matching seed %d: %v", seed, err)
				}
				if err := matching.Verify(g.N, g.Edges, cm.Matching); err != nil {
					t.Fatalf("seed %d: cluster matching invalid: %v", seed, err)
				}
				sm, sst, err := stream.Solve(ctx, stream.NewGraphSource(g), stream.Config{K: k, Seed: seed}, matchingTask, task.Params{})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !reflect.DeepEqual(cm.Matching.Edges(), sm.Matching.Edges()) {
					t.Fatalf("seed %d: cluster matching differs from stream", seed)
				}
				checkMeasuredBytes(t, cst, sst.TotalCommBytes)

			case "edcs":
				sums, _, err := summaries(ctx, src, cfg, edcsTask, task.Params{EDCS: edcsP})
				if err != nil {
					t.Fatalf("edcs seed %d: %v", seed, err)
				}
				// Per-machine EDCSs survive the wire deep-equal to the batch
				// oracle on the same partition.
				for i, p := range parts {
					want := edcs.Coreset(g.N, p, edcsP)
					if !reflect.DeepEqual(sums[i].Coreset, want) {
						t.Fatalf("seed %d machine %d: cluster EDCS differs from batch", seed, i)
					}
				}
				cm, cst, err := Solve(ctx, stream.NewGraphSource(g), cfg, edcsTask, task.Params{EDCS: edcsP})
				if err != nil {
					t.Fatalf("edcs seed %d: %v", seed, err)
				}
				if err := matching.Verify(g.N, g.Edges, cm.Matching); err != nil {
					t.Fatalf("seed %d: cluster EDCS matching invalid: %v", seed, err)
				}
				sm, sst, err := stream.Solve(ctx, stream.NewGraphSource(g), stream.Config{K: k, Seed: seed}, edcsTask, task.Params{EDCS: edcsP})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !reflect.DeepEqual(cm.Matching.Edges(), sm.Matching.Edges()) {
					t.Fatalf("seed %d: cluster EDCS matching differs from stream", seed)
				}
				checkMeasuredBytes(t, cst, sst.TotalCommBytes)

			case "edcs-rounds":
				// Multi-round MPC: one session, one HELLO, two rounds over the
				// same reused connections. Every round must deep-equal the
				// in-process streaming oracle for the same (input, k, seed) —
				// including round 1, whose input is round 0's union — and every
				// round's bytes are measured.
				sess, err := Open(ctx, cfg, edcsTask, task.Params{EDCS: edcsP}, 2, g.N)
				if err != nil {
					t.Fatalf("edcs-rounds seed %d: %v", seed, err)
				}
				input := g.Edges
				for round, rk := range []int{k, 2} {
					rseed := seed + uint64(round)*977
					sums, rst, err := sess.Round(ctx, stream.NewSliceSource(g.N, input), rk, rseed)
					if err != nil {
						t.Fatalf("edcs-rounds seed %d round %d: %v", seed, round, err)
					}
					osums, ost, err := stream.Summaries(ctx, stream.NewSliceSource(g.N, input),
						stream.Config{K: rk, Seed: rseed}, edcsTask, task.Params{EDCS: edcsP})
					if err != nil {
						t.Fatalf("edcs-rounds seed %d round %d oracle: %v", seed, round, err)
					}
					var union []graph.Edge
					for i := range sums {
						if !reflect.DeepEqual(sums[i].Coreset, osums[i].Coreset) {
							t.Fatalf("seed %d round %d machine %d: session EDCS differs from stream", seed, round, i)
						}
						if sums[i].Edges != osums[i].Edges || sums[i].Stored != osums[i].Stored {
							t.Fatalf("seed %d round %d machine %d: accounting differs (%d/%d vs %d/%d)",
								seed, round, i, sums[i].Edges, sums[i].Stored, osums[i].Edges, osums[i].Stored)
						}
						union = append(union, sums[i].Coreset...)
					}
					checkMeasuredBytes(t, rst, ost.TotalCommBytes)
					input = union
				}
				if sess.roundsRun != 2 {
					t.Fatalf("seed %d: session ran %d rounds, want 2", seed, sess.roundsRun)
				}
				// The cap is exhausted: a third round must be refused without
				// touching the wire.
				if _, _, err := sess.Round(ctx, stream.NewSliceSource(g.N, input), 1, seed); err == nil {
					t.Fatalf("seed %d: round beyond the cap accepted", seed)
				}
				if err := sess.Close(); err != nil {
					t.Fatalf("seed %d: close: %v", seed, err)
				}

			case "vc":
				sums, _, err := summaries(ctx, src, cfg, vcTask, task.Params{})
				if err != nil {
					t.Fatalf("vc seed %d: %v", seed, err)
				}
				for i, p := range parts {
					want := core.ComputeVCCoreset(g.N, k, p)
					if !reflect.DeepEqual(sums[i].VC, want) {
						t.Fatalf("seed %d machine %d: cluster VC coreset differs from batch:\ngot  %+v\nwant %+v", seed, i, sums[i].VC, want)
					}
				}
				cc, cst, err := Solve(ctx, stream.NewGraphSource(g), cfg, vcTask, task.Params{})
				if err != nil {
					t.Fatalf("vc seed %d: %v", seed, err)
				}
				if err := vcover.Verify(g.N, g.Edges, cc.Cover); err != nil {
					t.Fatalf("seed %d: cluster cover infeasible: %v", seed, err)
				}
				sc, sst, err := stream.Solve(ctx, stream.NewGraphSource(g), stream.Config{K: k, Seed: seed}, vcTask, task.Params{})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !reflect.DeepEqual(cc.Cover, sc.Cover) {
					t.Fatalf("seed %d: cluster cover differs from stream (%d vs %d vertices)", seed, cc.Size, sc.Size)
				}
				checkMeasuredBytes(t, cst, sst.TotalCommBytes)
			}
		}
	}
}

// checkMeasuredBytes asserts the acceptance criterion on wire accounting:
// the estimate is the in-process runtime's accounting exactly, and the
// measured bytes are that plus, per machine, the CORESET frame's header and
// trailer and its three stats varints — to the byte, because the estimate is
// the length of the encoded bodies and not an approximation of it.
func checkMeasuredBytes(t *testing.T, st *core.PipelineStats, streamEstimate int) {
	t.Helper()
	if st.EstCommBytes != streamEstimate {
		t.Fatalf("cluster estimate %d differs from stream accounting %d", st.EstCommBytes, streamEstimate)
	}
	overhead := 0
	for m := 0; m < st.K; m++ {
		overhead += frameOverhead
		for _, stat := range []int{st.PartEdges[m], st.StoredEdges[m], st.Live[m]} {
			overhead += graph.UvarintLen(uint64(stat))
		}
	}
	if st.TotalCommBytes-overhead != st.EstCommBytes {
		t.Fatalf("measured %d bytes less %d of frame headers, trailers and stats is %d, estimate %d",
			st.TotalCommBytes, overhead, st.TotalCommBytes-overhead, st.EstCommBytes)
	}
	if st.MaxMachineBytes < st.EstMaxMachineBytes {
		t.Fatalf("measured max %d below estimated max %d", st.MaxMachineBytes, st.EstMaxMachineBytes)
	}
	if st.ShardBytes <= 0 {
		t.Fatal("no coordinator-to-worker bytes measured")
	}
}

// TestCanonicalOrderParity: a summary is a set, and leaves every runtime in
// the one order the codec carries, whatever order its shard arrived in. On
// shuffled hub-noise multigraphs (gen.HubNoise: nothing arrives sorted,
// parallel edges, either endpoint order, self-loops) the batch peel over the
// hash partitioning, the stream machines and the cluster workers must emit
// deep-equal VC summaries whose residual is sorted by (U, V), and compose the
// same feasible cover.
func TestCanonicalOrderParity(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 6; seed++ {
		n, k := 1200+40*int(seed), 2+int(seed%3)
		edges := gen.HubNoise(n, 3+int(seed%4), n/2, 5*n, rng.New(seed))
		for i := range edges {
			if i%3 == 0 {
				edges[i].U, edges[i].V = edges[i].V, edges[i].U
			}
		}
		if graph.EdgesSorted(edges) {
			t.Fatalf("seed %d: the input arrives sorted", seed)
		}
		cfg := Config{Workers: startWorkers(t, k), Seed: seed, BatchSize: 97}
		parts := batchHashParts(&graph.Graph{N: n, Edges: edges}, k, seed)

		csums, _, err := summaries(ctx, stream.NewSliceSource(n, edges), cfg, vcTask, task.Params{})
		if err != nil {
			t.Fatalf("seed %d: cluster: %v", seed, err)
		}
		ssums, _, err := stream.Summaries(ctx, stream.NewSliceSource(n, edges), stream.Config{K: k, Seed: seed}, vcTask, task.Params{})
		if err != nil {
			t.Fatalf("seed %d: stream: %v", seed, err)
		}
		loops, copies := 0, 0
		for i, part := range parts {
			before := slices.Clone(part)
			want := core.ComputeVCCoreset(n, k, part)
			if !slices.Equal(part, before) {
				t.Fatalf("seed %d machine %d: ComputeVCCoreset reordered its input", seed, i)
			}
			if !graph.EdgesSorted(want.Residual) {
				t.Fatalf("seed %d machine %d: batch residual is not sorted", seed, i)
			}
			if !reflect.DeepEqual(ssums[i].VC, want) {
				t.Fatalf("seed %d machine %d: stream VC summary differs from batch", seed, i)
			}
			if !reflect.DeepEqual(csums[i], ssums[i]) {
				t.Fatalf("seed %d machine %d: cluster summary differs from stream:\ngot  %+v\nwant %+v", seed, i, csums[i], ssums[i])
			}
			for j, e := range want.Residual {
				if e.U == e.V {
					loops++
				}
				if j > 0 && e == want.Residual[j-1] {
					copies++
				}
			}
		}
		if loops == 0 || copies == 0 {
			t.Fatalf("seed %d: residuals carry %d self-loops and %d parallel copies; the input is too tame", seed, loops, copies)
		}

		// A whole run takes a graph without self-loops (graph.Validate; the
		// composed cover ignores them): the machines above were held to them.
		simple := slices.DeleteFunc(slices.Clone(edges), func(e graph.Edge) bool { return e.U == e.V })
		cc, cst, err := Solve(ctx, stream.NewSliceSource(n, simple), cfg, vcTask, task.Params{})
		if err != nil {
			t.Fatalf("seed %d: cluster solve: %v", seed, err)
		}
		if err := vcover.Verify(n, simple, cc.Cover); err != nil {
			t.Fatalf("seed %d: cluster cover infeasible: %v", seed, err)
		}
		sc, sst, err := stream.Solve(ctx, stream.NewSliceSource(n, simple), stream.Config{K: k, Seed: seed}, vcTask, task.Params{})
		if err != nil {
			t.Fatalf("seed %d: stream solve: %v", seed, err)
		}
		if !reflect.DeepEqual(cc.Cover, sc.Cover) {
			t.Fatalf("seed %d: cluster cover differs from stream (%d vs %d vertices)", seed, cc.Size, sc.Size)
		}
		coresets := make([]*core.VCCoreset, k)
		for i, part := range batchHashParts(&graph.Graph{N: n, Edges: simple}, k, seed) {
			coresets[i] = core.ComputeVCCoreset(n, k, part)
		}
		if want := core.ComposeVC(n, coresets); !reflect.DeepEqual(sc.Cover, want) {
			t.Fatalf("seed %d: stream cover differs from batch (%d vs %d vertices)", seed, len(sc.Cover), len(want))
		}
		checkMeasuredBytes(t, cst, sst.TotalCommBytes)
	}
}

// TestOrientationIsNotInformation: an undirected edge's orientation is not
// part of the input. Every task fed one shard — a sorted, canonical
// hub-and-noise graph — the same shard with every edge reversed, and the
// same shard with a random half reversed, through the batch reference (the
// hash parts fed to the builders), the stream runtime and loopback cluster
// workers, must emit deep-equal summaries and byte-identical CORESET bodies
// in all nine runs.
func TestOrientationIsNotInformation(t *testing.T) {
	const n, k, seed = 2000, 3, 7
	ctx := context.Background()
	addrs := startWorkers(t, k)
	r := rng.New(seed)
	seen := make(map[graph.Edge]bool)
	var sorted []graph.Edge
	for _, e := range gen.HubNoise(n, 4, n/2, 5*n, r) {
		if e = e.Canon(); e.U != e.V && !seen[e] {
			seen[e] = true
			sorted = append(sorted, e)
		}
	}
	graph.SortEdges(sorted)
	reversed, half := slices.Clone(sorted), slices.Clone(sorted)
	for i, e := range sorted {
		reversed[i] = graph.Edge{U: e.V, V: e.U}
		if r.Intn(2) == 0 {
			half[i] = reversed[i]
		}
	}
	inputs := map[string][]graph.Edge{"sorted": sorted, "reversed": reversed, "half reversed": half}
	// A small β keeps the EDCS repairing, where the order endpoints turn
	// dirty in would show.
	p := task.Params{EDCS: edcs.ParamsForBeta(4)}

	for _, name := range task.Names() {
		d := task.MustGet(name)
		runs := map[string]func(edges []graph.Edge) []task.Summary{
			"batch": func(edges []graph.Edge) []task.Summary {
				sums := make([]task.Summary, k)
				for i, part := range partition.HashK(edges, k, seed) {
					b := d.NewBuilder(k, n, p)
					for _, e := range part {
						b.Add(e)
					}
					sums[i] = b.Finish(n)
					sums[i].Edges = len(part)
				}
				return sums
			},
			"stream": func(edges []graph.Edge) []task.Summary {
				sums, _, err := stream.Summaries(ctx, stream.NewSliceSource(n, edges), stream.Config{K: k, Seed: seed}, d, p)
				if err != nil {
					t.Fatalf("%s stream: %v", name, err)
				}
				return sums
			},
			"cluster": func(edges []graph.Edge) []task.Summary {
				sums, _, err := summaries(ctx, stream.NewSliceSource(n, edges), Config{Workers: addrs, Seed: seed}, d, p)
				if err != nil {
					t.Fatalf("%s cluster: %v", name, err)
				}
				return sums
			},
		}
		want := runs["batch"](sorted)
		for input, edges := range inputs {
			for runtime, run := range runs {
				got := run(edges)
				for m := range want {
					if !reflect.DeepEqual(got[m], want[m]) {
						t.Fatalf("%s, %s input, %s: machine %d's summary differs from the sorted batch run's", name, input, runtime, m)
					}
					if a, b := task.AppendSummary(nil, d, got[m]), task.AppendSummary(nil, d, want[m]); !bytes.Equal(a, b) {
						t.Fatalf("%s, %s input, %s: machine %d's CORESET body differs", name, input, runtime, m)
					}
				}
			}
		}
		if name == "vc" && len(want[0].VC.Fixed) == 0 {
			t.Fatal("vc: no vertex peeled; the input is too tame")
		}
	}
}

// unknownNSource hides the vertex count until end of stream, like a
// headerless edge-list file.
type unknownNSource struct{ inner stream.EdgeSource }

func (s *unknownNSource) Next(buf []graph.Edge) (int, error) { return s.inner.Next(buf) }
func (s *unknownNSource) NumVertices() int                   { return s.inner.NumVertices() }
func (s *unknownNSource) KnownUpfront() bool                 { return false }

// TestClusterUnknownN: when n is not declared upfront the workers must fall
// back to the batch peel at EOS (same as the in-process builders) and still
// match the stream pipeline exactly.
func TestClusterUnknownN(t *testing.T) {
	const k = 3
	g := parityGraph(9, 400, 30)
	addrs := startWorkers(t, k)
	cc, _, err := Solve(context.Background(), &unknownNSource{stream.NewGraphSource(g)}, Config{Workers: addrs, Seed: 9}, vcTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := stream.Solve(context.Background(), &unknownNSource{stream.NewGraphSource(g)}, stream.Config{K: k, Seed: 9}, vcTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cc.Cover, sc.Cover) {
		t.Fatal("cluster cover differs from stream with undeclared n")
	}
}

// TestClusterEmptyStream: zero edges must compose empty answers through the
// full wire protocol, not hang or error.
func TestClusterEmptyStream(t *testing.T) {
	addrs := startWorkers(t, 2)
	cfg := Config{Workers: addrs, Seed: 1}
	m, st, err := Solve(context.Background(), stream.NewSliceSource(0, nil), cfg, matchingTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Matching.Size() != 0 || st.EdgesTotal != 0 {
		t.Fatalf("empty stream produced size %d, %d edges", m.Matching.Size(), st.EdgesTotal)
	}
	if st.TotalCommBytes <= 0 {
		t.Fatal("even empty coresets cross the wire; measured bytes must be nonzero")
	}
	cover, _, err := Solve(context.Background(), stream.NewSliceSource(0, nil), cfg, vcTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cover.Cover) != 0 {
		t.Fatalf("empty stream produced cover of %d", len(cover.Cover))
	}
}

// TestClusterBatchSizes: routing is independent of SHARD frame sizing.
func TestClusterBatchSizes(t *testing.T) {
	g := parityGraph(5, 500, 8)
	addrs := startWorkers(t, 3)
	var want []graph.Edge
	for i, bs := range []int{0, 1, 7, 4096} {
		m, _, err := Solve(context.Background(), stream.NewGraphSource(g), Config{Workers: addrs, Seed: 5, BatchSize: bs}, matchingTask, task.Params{})
		if err != nil {
			t.Fatalf("batch %d: %v", bs, err)
		}
		if i == 0 {
			want = m.Matching.Edges()
			continue
		}
		if !reflect.DeepEqual(m.Matching.Edges(), want) {
			t.Fatalf("batch %d: matching differs from default batch size", bs)
		}
	}
}

// TestWorkerServesManyRuns: one resident worker set serves many sequential
// and concurrent runs without state bleeding between them.
func TestWorkerServesManyRuns(t *testing.T) {
	const k = 2
	addrs := startWorkers(t, k)
	g := parityGraph(7, 400, 8)
	want, _, err := stream.Solve(context.Background(), stream.NewGraphSource(g), stream.Config{K: k, Seed: 7}, matchingTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 6)
	for i := 0; i < 6; i++ {
		go func() {
			m, _, err := Solve(context.Background(), stream.NewGraphSource(g), Config{Workers: addrs, Seed: 7}, matchingTask, task.Params{})
			if err == nil && m.Matching.Size() != want.Matching.Size() {
				err = &WorkerError{Err: errNotEqual}
			}
			errs <- err
		}()
	}
	for i := 0; i < 6; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var errNotEqual = errSentinel("concurrent run diverged")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

func TestConfigValidation(t *testing.T) {
	if _, _, err := Solve(context.Background(), nil, Config{Workers: []string{"x"}}, matchingTask, task.Params{}); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, _, err := Solve(context.Background(), stream.NewSliceSource(0, nil), Config{}, matchingTask, task.Params{}); err == nil {
		t.Fatal("empty worker list accepted")
	}
}
