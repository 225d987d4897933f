package rounds

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

var edcsTask = task.MustGet("edcs")

// batchRound is the round function of the materialized reference the
// runtimes are checked against: it collects its input, splits it with
// partition.HashK and feeds each part, in order, to its own builder of the
// edcs task. It shares only Drive with the runtimes, not their router.
func batchRound(p task.Params) Round {
	return func(_ context.Context, input stream.EdgeSource, k int, seed uint64) ([]task.Summary, *core.PipelineStats, error) {
		in, err := stream.Collect(input)
		if err != nil {
			return nil, nil, err
		}
		sums := make([]task.Summary, k)
		for i, part := range partition.HashK(in.Edges, k, seed) {
			b := edcsTask.NewBuilder(k, in.N, p)
			for _, e := range part {
				b.Add(e)
			}
			sums[i] = b.Finish(in.N)
			sums[i].Edges = len(part)
		}
		st := &core.PipelineStats{N: in.N, EdgesTotal: in.M()}
		edcsTask.FoldStats(st, sums)
		return sums, st, nil
	}
}

// streamRound is the in-process round function, as the engine builds it.
func streamRound(p task.Params) Round {
	return func(ctx context.Context, input stream.EdgeSource, k int, seed uint64) ([]task.Summary, *core.PipelineStats, error) {
		return stream.Summaries(ctx, input, stream.Config{K: k, Seed: seed}, edcsTask, p)
	}
}

// drive runs the schedule over g with round and composes the final round's
// union as the engine does.
func drive(ctx context.Context, g *graph.Graph, cfg Config, round Round) ([]task.Summary, *matching.Matching, *Stats, error) {
	sums, st, err := Drive(ctx, stream.NewGraphSource(g), cfg, round)
	if err != nil {
		return nil, nil, nil, err
	}
	return sums, edcsTask.Compose(st.N, sums).Matching, st, nil
}

// batchReference is the multi-round schedule over the materialized
// reference.
func batchReference(ctx context.Context, g *graph.Graph, cfg Config) (*matching.Matching, *Stats, error) {
	_, m, st, err := drive(ctx, g, cfg, batchRound(task.Params{EDCS: cfg.Params}))
	return m, st, err
}

// coresets projects summaries onto their edge-list coresets.
func coresets(sums []task.Summary) [][]graph.Edge {
	out := make([][]graph.Edge, len(sums))
	for i, s := range sums {
		out[i] = s.Coreset
	}
	return out
}

func TestNextK(t *testing.T) {
	for _, tc := range []struct{ k, want int }{
		{1, 1}, {2, 1}, {3, 1}, {4, 2}, {9, 3}, {10, 3}, {16, 4}, {64, 8}, {100, 10}, {0, 1},
	} {
		if got := NextK(tc.k); got != tc.want {
			t.Fatalf("NextK(%d) = %d, want %d", tc.k, got, tc.want)
		}
	}
	// The recursion reaches 1 from any realistic fleet in O(log log k) steps.
	k, steps := 1<<16, 0
	for k > 1 {
		k = NextK(k)
		steps++
	}
	if steps > 5 {
		t.Fatalf("NextK took %d steps from 65536 to 1", steps)
	}
}

func TestSeedForRound(t *testing.T) {
	if SeedForRound(42, 0) != 42 {
		t.Fatal("round 0 must use the root seed verbatim (single-round parity)")
	}
	seen := map[uint64]int{42: 0}
	for r := 1; r <= 8; r++ {
		s := SeedForRound(42, r)
		if prev, dup := seen[s]; dup {
			t.Fatalf("rounds %d and %d share seed %d", prev, r, s)
		}
		seen[s] = r
	}
}

func TestConfigValidate(t *testing.T) {
	p := edcs.ParamsForBeta(8)
	for _, cfg := range []Config{
		{K: 0, Rounds: 1, Params: p},
		{K: 4, Rounds: 0, Params: p},
		{K: 4, Rounds: MaxRounds + 1, Params: p},
		{K: 4, Rounds: 2, Params: edcs.Params{Beta: 1, BetaMinus: 0}},
	} {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if err := (Config{K: 4, Rounds: 2, Params: p}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRoundsOneMatchesSingleRound: a Rounds=1 run is the single-round EDCS
// pipeline — deep-equal per-machine coresets and the identical composed
// matching, for the batch reference and the stream runtime alike. This is
// the spine of the multi-round design: round 0 shards with the root seed
// through the very same code path.
func TestRoundsOneMatchesSingleRound(t *testing.T) {
	p := edcs.ParamsForBeta(16)
	for seed := uint64(1); seed <= 3; seed++ {
		g := gen.GNP(500, 24.0/500, rng.New(seed))
		const k = 4
		// The single-round oracle, independent of the runtimes: hash
		// k-partitioning, one EDCS per part, exact compose of the union.
		want := make([][]graph.Edge, k)
		wantBytes, wantMax := 0, 0
		for i, part := range partition.HashK(g.Edges, k, seed) {
			want[i] = edcs.Coreset(g.N, part, p)
			b := core.CoresetSizeBytes(want[i])
			wantBytes, wantMax = wantBytes+b, max(wantMax, b)
		}
		wantM := core.ComposeMatching(g.N, want)

		cfg := Config{K: k, Rounds: 1, Seed: seed, Params: p}
		sums, m, st, err := drive(context.Background(), g, cfg, batchRound(task.Params{EDCS: p}))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.RoundsRun != 1 || len(st.Rounds) != 1 {
			t.Fatalf("seed %d: Rounds=1 ran %d rounds", seed, st.RoundsRun)
		}
		if len(sums) != k {
			t.Fatalf("seed %d: %d coresets, want %d", seed, len(sums), k)
		}
		for i, cs := range coresets(sums) {
			if !reflect.DeepEqual(cs, want[i]) {
				t.Fatalf("seed %d machine %d: coreset (%d edges) differs from the single-round EDCS (%d edges)",
					seed, i, len(cs), len(want[i]))
			}
		}
		if !reflect.DeepEqual(m.Edges(), wantM.Edges()) {
			t.Fatalf("seed %d: Rounds=1 matching differs from the single-round compose", seed)
		}
		if st.TotalCommBytes != wantBytes || st.MaxMachineBytes != wantMax {
			t.Fatalf("seed %d: comm accounting diverged: %d/%d vs %d/%d", seed,
				st.TotalCommBytes, st.MaxMachineBytes, wantBytes, wantMax)
		}

		ssums, _, _, err := drive(context.Background(), g, cfg, streamRound(task.Params{EDCS: p}))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(coresets(ssums), coresets(sums)) {
			t.Fatalf("seed %d: stream Rounds=1 coresets differ from batch", seed)
		}
		sm, _, err := Stream(context.Background(), stream.NewGraphSource(g), cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(sm.Edges(), m.Edges()) {
			t.Fatalf("seed %d: stream Rounds=1 matching differs from batch", seed)
		}
	}
}

// TestMultiRoundParityAcrossRuntimes is the multi-round seed-parity gate:
// the batch reference and the in-process round function — through Drive and
// through Stream — must run the identical schedule and produce deep-equal
// per-round breakdowns and final coresets for the same
// (graph, seed, k, β, rounds). The cluster runtime's leg runs through
// engine.Run (internal/engine), which owns the session.
func TestMultiRoundParityAcrossRuntimes(t *testing.T) {
	p := edcs.ParamsForBeta(8) // aggressive trimming so several rounds shrink
	for seed := uint64(1); seed <= 3; seed++ {
		g := gen.GNP(400, 40.0/400, rng.New(seed))
		cfg := Config{K: 4, Rounds: 3, Seed: seed, Params: p}

		bsums, bm, bst, err := drive(context.Background(), g, cfg, batchRound(task.Params{EDCS: p}))
		if err != nil {
			t.Fatalf("seed %d batch: %v", seed, err)
		}
		ssums, _, sst, err := drive(context.Background(), g, cfg, streamRound(task.Params{EDCS: p}))
		if err != nil {
			t.Fatalf("seed %d stream: %v", seed, err)
		}
		sm, _, err := Stream(context.Background(), stream.NewGraphSource(g), cfg)
		if err != nil {
			t.Fatalf("seed %d Stream: %v", seed, err)
		}

		if !reflect.DeepEqual(coresets(bsums), coresets(ssums)) {
			t.Fatalf("seed %d: final coresets differ across runtimes", seed)
		}
		if !reflect.DeepEqual(bm.Edges(), sm.Edges()) {
			t.Fatalf("seed %d: composed matchings differ across runtimes", seed)
		}
		// The final matching uses only coreset edges, all of which are input
		// edges, so it must verify against the input graph.
		if err := matching.Verify(g.N, g.Edges, bm); err != nil {
			t.Fatalf("seed %d: composed matching invalid: %v", seed, err)
		}
		if bst.RoundsRun != sst.RoundsRun {
			t.Fatalf("seed %d: round counts differ: batch %d stream %d", seed, bst.RoundsRun, sst.RoundsRun)
		}
		for r := range bst.Rounds {
			b, s := bst.Rounds[r], sst.Rounds[r]
			if b.K != s.K || b.Seed != s.Seed || b.InputEdges != s.InputEdges || b.UnionEdges != s.UnionEdges ||
				!reflect.DeepEqual(b.CoresetEdges, s.CoresetEdges) || b.TotalCommBytes != s.TotalCommBytes {
				t.Fatalf("seed %d round %d: breakdown differs: batch %+v vs %+v", seed, r, b, s)
			}
		}
	}
}

// TestScheduleShrinks: on a dense input with a small β the union shrinks
// every round, k follows the ⌊√k⌋ recursion, and the composed matching is
// still a valid, large matching of the original graph.
func TestScheduleShrinks(t *testing.T) {
	g := gen.GNP(300, 0.4, rng.New(7))
	opt := matching.Maximum(g.N, g.Edges).Size()
	cfg := Config{K: 16, Rounds: 4, Seed: 7, Params: edcs.ParamsForBeta(8)}
	m, st, err := batchReference(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.RoundsRun < 2 {
		t.Fatalf("dense input ran only %d rounds", st.RoundsRun)
	}
	wantK := 16
	for r, rs := range st.Rounds {
		if rs.K != wantK {
			t.Fatalf("round %d ran k=%d, schedule says %d", r, rs.K, wantK)
		}
		if r > 0 && rs.InputEdges != st.Rounds[r-1].UnionEdges {
			t.Fatalf("round %d input %d != round %d union %d", r, rs.InputEdges, r-1, st.Rounds[r-1].UnionEdges)
		}
		wantK = NextK(wantK)
	}
	last := st.Rounds[len(st.Rounds)-1]
	if st.RoundsRun < cfg.Rounds && last.UnionEdges < last.InputEdges {
		t.Fatal("driver stopped early although the union was still shrinking")
	}
	if err := matching.Verify(g.N, g.Edges, m); err != nil {
		t.Fatalf("composed matching invalid: %v", err)
	}
	if 2*m.Size() < opt {
		t.Fatalf("multi-round matching %d below half of optimum %d", m.Size(), opt)
	}
}

// The run-level stats of a run of several rounds: the per-machine slices are
// the final round's, as graph.RunReport documents, and batches sum over the
// rounds like the byte counts do.
func TestStatsDescribeFinalRound(t *testing.T) {
	g := gen.GNP(300, 0.4, rng.New(7))
	cfg := Config{K: 16, Rounds: 4, Seed: 7, Params: edcs.ParamsForBeta(8)}
	_, _, st, err := drive(context.Background(), g, cfg, streamRound(task.Params{EDCS: cfg.Params}))
	if err != nil {
		t.Fatal(err)
	}
	if st.RoundsRun < 2 {
		t.Fatalf("dense input ran only %d rounds", st.RoundsRun)
	}
	last := st.Rounds[len(st.Rounds)-1].RunCounts
	if !reflect.DeepEqual(st.PartEdges, last.PartEdges) || !reflect.DeepEqual(st.StoredEdges, last.StoredEdges) ||
		!reflect.DeepEqual(st.Live, last.Live) || !reflect.DeepEqual(st.CoresetEdges, last.CoresetEdges) ||
		!reflect.DeepEqual(st.CoresetFixed, last.CoresetFixed) || st.CompositionEdges != st.Rounds[len(st.Rounds)-1].UnionEdges {
		t.Fatalf("run-level per-machine stats are not the final round's:\n got %+v\nwant %+v", st.RunCounts, last)
	}
	batches, shardBytes := 0, 0
	for _, rs := range st.Rounds {
		batches += rs.Batches
		shardBytes += rs.ShardBytes
	}
	if batches <= st.Rounds[0].Batches || st.Batches != batches || st.ShardBytes != shardBytes {
		t.Fatalf("batches %d, want the rounds' sum %d (round 0 read %d)", st.Batches, batches, st.Rounds[0].Batches)
	}
}

// TestEarlyExit: a bounded-degree input the EDCS keeps whole (P2 forces
// every edge in) cannot shrink, so the driver must stop after round 0
// regardless of the cap.
func TestEarlyExit(t *testing.T) {
	var path []graph.Edge
	for v := graph.ID(0); v < 199; v++ {
		path = append(path, graph.Edge{U: v, V: v + 1})
	}
	g := &graph.Graph{N: 200, Edges: path}
	_, st, err := batchReference(context.Background(), g, Config{K: 4, Rounds: 8, Seed: 1, Params: edcs.ParamsForBeta(8)})
	if err != nil {
		t.Fatal(err)
	}
	if st.RoundsRun != 1 {
		t.Fatalf("non-shrinking input ran %d rounds, want 1", st.RoundsRun)
	}
	if st.Rounds[0].UnionEdges != len(path) {
		t.Fatalf("path union %d edges, want all %d", st.Rounds[0].UnionEdges, len(path))
	}
}

// TestEmptyGraph: degenerate inputs terminate immediately with an empty
// matching and a single zero-edge round.
func TestEmptyGraph(t *testing.T) {
	g := &graph.Graph{N: 10}
	m, st, err := batchReference(context.Background(), g, Config{K: 4, Rounds: 3, Seed: 1, Params: edcs.ParamsForBeta(8)})
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 0 || st.RoundsRun != 1 || st.TotalCommBytes == 0 {
		t.Fatalf("empty graph: size=%d rounds=%d comm=%d", m.Size(), st.RoundsRun, st.TotalCommBytes)
	}
}

// TestBatchHonorsCancellation: drive checks the caller's context at every
// round boundary, even over a round (the batch reference's) that never
// looks at it. A pre-canceled context runs no round at all; one canceled
// as round 0 returns stops at that boundary (the input of
// TestScheduleShrinks keeps shrinking, so without the check the run would
// go on to round 1).
func TestBatchHonorsCancellation(t *testing.T) {
	g := gen.GNP(300, 0.4, rng.New(7))
	cfg := Config{K: 16, Rounds: 4, Seed: 7, Params: edcs.ParamsForBeta(8)}
	for _, tc := range []struct {
		name       string
		preCancel  bool
		wantRounds int
	}{
		{"pre-canceled", true, 0},
		{"canceled after round 0", false, 1},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		if tc.preCancel {
			cancel()
		}
		inner, rounds := batchRound(task.Params{EDCS: cfg.Params}), 0
		round := func(ctx context.Context, input stream.EdgeSource, k int, seed uint64) ([]task.Summary, *core.PipelineStats, error) {
			rounds++
			defer cancel() // the cancellation lands exactly on the round boundary
			return inner(ctx, input, k, seed)
		}
		_, _, _, err := drive(ctx, g, cfg, round)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if rounds != tc.wantRounds {
			t.Fatalf("%s: %d rounds ran, want %d", tc.name, rounds, tc.wantRounds)
		}
	}
}

// TestRoundMetricsLandInFiniteBuckets: the driver's two distributions are
// readable. After a multi-round run with a registry attached, each round's
// union size and shrink ratio fall in a finite bucket of their histogram,
// not only in +Inf, and the counters agree with the run's stats.
func TestRoundMetricsLandInFiniteBuckets(t *testing.T) {
	g := gen.GNP(300, 0.4, rng.New(7))
	reg := obs.NewRegistry()
	cfg := Config{K: 16, Rounds: 4, Seed: 7, Params: edcs.ParamsForBeta(8), Metrics: reg}
	_, st, err := batchReference(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.RoundsRun < 2 {
		t.Fatalf("dense input ran only %d rounds", st.RoundsRun)
	}
	var text bytes.Buffer
	if _, err := reg.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(&text)
	if err != nil {
		t.Fatal(err)
	}
	if got := samples[MetricRounds]; got != float64(st.RoundsRun) {
		t.Errorf("%s = %g, want %d", MetricRounds, got, st.RoundsRun)
	}
	if got := samples[MetricCommBytes]; got != float64(st.TotalCommBytes) {
		t.Errorf("%s = %g, want %d", MetricCommBytes, got, st.TotalCommBytes)
	}
	for _, name := range []string{MetricUnionEdges, MetricShrinkRatio} {
		count := samples[name+"_count"]
		if count != float64(st.RoundsRun) {
			t.Fatalf("%s_count = %g, want %d", name, count, st.RoundsRun)
		}
		finite := 0.0 // the largest cumulative count of a finite bucket
		for key, v := range samples {
			if strings.HasPrefix(key, name+"_bucket{") && !strings.Contains(key, `le="+Inf"`) {
				finite = max(finite, v)
			}
		}
		if finite != count {
			t.Errorf("%s: finite buckets hold %g of %g observations", name, finite, count)
		}
	}
}
