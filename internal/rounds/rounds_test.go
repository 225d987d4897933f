package rounds

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/stream"
)

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
// matching, in batch and stream mode alike. This is the spine of the
// multi-round design: round 0 shards with the root seed through the very
// same code path.
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

		m, st, err := Batch(context.Background(), g, Config{K: k, Rounds: 1, Seed: seed, Params: p})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.RoundsRun != 1 || len(st.Rounds) != 1 {
			t.Fatalf("seed %d: Rounds=1 ran %d rounds", seed, st.RoundsRun)
		}
		if len(st.Coresets) != k {
			t.Fatalf("seed %d: %d coresets, want %d", seed, len(st.Coresets), k)
		}
		for i, cs := range st.Coresets {
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

		sm, sst, err := Stream(context.Background(), stream.NewGraphSource(g), Config{K: k, Rounds: 1, Seed: seed, Params: p})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(sst.Coresets, st.Coresets) {
			t.Fatalf("seed %d: stream Rounds=1 coresets differ from batch", seed)
		}
		if !reflect.DeepEqual(sm.Edges(), m.Edges()) {
			t.Fatalf("seed %d: stream Rounds=1 matching differs from batch", seed)
		}
	}
}

// TestMultiRoundParityAcrossRuntimes is the multi-round seed-parity gate:
// batch, stream and a real TCP cluster must run the identical schedule and
// produce deep-equal per-round breakdowns and final coresets for the same
// (graph, seed, k, β, rounds).
func TestMultiRoundParityAcrossRuntimes(t *testing.T) {
	addrs, shutdown, err := cluster.ServeLoopback(4)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	p := edcs.ParamsForBeta(8) // aggressive trimming so several rounds shrink
	for seed := uint64(1); seed <= 3; seed++ {
		g := gen.GNP(400, 40.0/400, rng.New(seed))
		cfg := Config{K: 4, Rounds: 3, Seed: seed, Params: p}

		bm, bst, err := Batch(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("seed %d batch: %v", seed, err)
		}
		sm, sst, err := Stream(context.Background(), stream.NewGraphSource(g), cfg)
		if err != nil {
			t.Fatalf("seed %d stream: %v", seed, err)
		}
		cm, cst, err := Cluster(context.Background(), stream.NewGraphSource(g), cluster.Config{Workers: addrs, Seed: seed}, cfg)
		if err != nil {
			t.Fatalf("seed %d cluster: %v", seed, err)
		}

		if !reflect.DeepEqual(bst.Coresets, sst.Coresets) || !reflect.DeepEqual(bst.Coresets, cst.Coresets) {
			t.Fatalf("seed %d: final coresets differ across runtimes", seed)
		}
		if !reflect.DeepEqual(bm.Edges(), sm.Edges()) || !reflect.DeepEqual(bm.Edges(), cm.Edges()) {
			t.Fatalf("seed %d: composed matchings differ across runtimes", seed)
		}
		if err := matching.Verify(g.N, g.Edges, bm); err == nil {
			// The final matching uses only coreset edges, all of which are
			// input edges, so it must verify against the input graph.
		} else {
			t.Fatalf("seed %d: composed matching invalid: %v", seed, err)
		}
		if bst.RoundsRun != sst.RoundsRun || bst.RoundsRun != cst.RoundsRun {
			t.Fatalf("seed %d: round counts differ: batch %d stream %d cluster %d",
				seed, bst.RoundsRun, sst.RoundsRun, cst.RoundsRun)
		}
		for r := range bst.Rounds {
			b, s, c := bst.Rounds[r], sst.Rounds[r], cst.Rounds[r]
			for _, o := range []RoundStat{s, c} {
				if b.K != o.K || b.Seed != o.Seed || b.InputEdges != o.InputEdges ||
					b.UnionEdges != o.UnionEdges || !reflect.DeepEqual(b.CoresetEdges, o.CoresetEdges) {
					t.Fatalf("seed %d round %d: breakdown differs: batch %+v vs %+v", seed, r, b, o)
				}
			}
			// Cluster rounds measure the wire; the measured bytes must cover
			// the simulated estimate and stay within frame-header slack.
			if c.TotalCommBytes < c.EstCommBytes {
				t.Fatalf("seed %d round %d: measured %d below estimate %d", seed, r, c.TotalCommBytes, c.EstCommBytes)
			}
			if c.EstCommBytes > 0 && float64(c.TotalCommBytes) > 1.1*float64(c.EstCommBytes) {
				t.Fatalf("seed %d round %d: measured %d not ~= estimate %d", seed, r, c.TotalCommBytes, c.EstCommBytes)
			}
			if b.TotalCommBytes != c.EstCommBytes {
				t.Fatalf("seed %d round %d: batch estimate %d differs from cluster estimate %d",
					seed, r, b.TotalCommBytes, c.EstCommBytes)
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
	m, st, err := Batch(context.Background(), g, cfg)
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

// TestEarlyExit: a bounded-degree input the EDCS keeps whole (P2 forces
// every edge in) cannot shrink, so the driver must stop after round 0
// regardless of the cap.
func TestEarlyExit(t *testing.T) {
	var path []graph.Edge
	for v := graph.ID(0); v < 199; v++ {
		path = append(path, graph.Edge{U: v, V: v + 1})
	}
	g := &graph.Graph{N: 200, Edges: path}
	_, st, err := Batch(context.Background(), g, Config{K: 4, Rounds: 8, Seed: 1, Params: edcs.ParamsForBeta(8)})
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
	m, st, err := Batch(context.Background(), g, Config{K: 4, Rounds: 3, Seed: 1, Params: edcs.ParamsForBeta(8)})
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 0 || st.RoundsRun != 1 || st.TotalCommBytes == 0 {
		t.Fatalf("empty graph: size=%d rounds=%d comm=%d", m.Size(), st.RoundsRun, st.TotalCommBytes)
	}
}

// roundSink counts the rounds the driver reports and, when cancel is set,
// cancels on the first one — a cancellation landing exactly on the round
// boundary.
type roundSink struct {
	rounds int
	cancel context.CancelFunc
}

func (s *roundSink) Count(name string, _ int64) {
	if name != MetricRounds {
		return
	}
	s.rounds++
	if s.cancel != nil {
		s.cancel()
	}
}
func (*roundSink) Observe(string, float64) {}

// TestBatchHonorsCancellation: the batch driver runs under the caller's
// context. A pre-canceled context runs no round at all; one canceled after
// round 0 stops at that boundary (the input of TestScheduleShrinks keeps
// shrinking, so without the check the run would go on to round 1).
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
		sink := &roundSink{cancel: cancel}
		if tc.preCancel {
			cancel()
		}
		cfg.Obs = sink
		_, _, err := Batch(ctx, g, cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if sink.rounds != tc.wantRounds {
			t.Fatalf("%s: %d rounds ran, want %d", tc.name, sink.rounds, tc.wantRounds)
		}
	}
}

// TestClusterSessionReuse: one session serves every round over the same
// connections — the per-round shard accounting proves the conversation
// shape (one HELLO, several rounds) rather than per-round redials.
func TestClusterSessionReuse(t *testing.T) {
	addrs, shutdown, err := cluster.ServeLoopback(4)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	g := gen.GNP(300, 0.4, rng.New(9))
	_, st, err := Cluster(context.Background(), stream.NewGraphSource(g),
		cluster.Config{Workers: addrs, Seed: 9}, Config{K: 4, Rounds: 3, Seed: 9, Params: edcs.ParamsForBeta(8)})
	if err != nil {
		t.Fatal(err)
	}
	if st.RoundsRun < 2 {
		t.Fatalf("expected a multi-round run, got %d rounds", st.RoundsRun)
	}
	// Only round 0 pays the handshake: later rounds' shard traffic must not
	// re-include HELLO bytes (ShardBytes strictly dominated by round 0 per
	// sharded edge is hard to assert; instead check every round charged some
	// shard traffic and the sum matches the aggregate).
	sum := 0
	for _, rs := range st.Rounds {
		if rs.ShardBytes <= 0 {
			t.Fatalf("round %d has no shard traffic", rs.Round)
		}
		sum += rs.ShardBytes
	}
	if sum != st.ShardBytes {
		t.Fatalf("per-round shard bytes %d do not sum to %d", sum, st.ShardBytes)
	}
}
