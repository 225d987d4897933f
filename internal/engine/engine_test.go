package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/rounds"
	"repro/internal/stream"
	"repro/internal/task"
)

// zeroPhases drops the worker-clock phase times, the only part of a
// MachineStats entry that differs between two identical runs.
func zeroPhases(ms []graph.MachineStats) []graph.MachineStats {
	out := append([]graph.MachineStats(nil), ms...)
	for i := range out {
		out[i].DecodeMS, out[i].BuildMS, out[i].EncodeMS = 0, 0, 0
	}
	return out
}

// checkStats asserts that the report carries the run stats: the header
// counts, the RunCounts block and the machine telemetry.
func checkStats(t *testing.T, rep *graph.RunReport, st *core.PipelineStats) {
	t.Helper()
	got := core.PipelineStats{K: rep.K, N: rep.N, EdgesTotal: rep.M, RunCounts: rep.RunCounts, MachineStats: zeroPhases(rep.MachineStats)}
	want := *st
	want.MachineStats, want.Duration = zeroPhases(st.MachineStats), 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report does not carry the run stats:\n got %+v\nwant %+v", got, want)
	}
	if rep.DurationMS <= 0 || rep.EdgesPerSec <= 0 {
		t.Fatalf("report has no wall clock: durationMs=%v edgesPerSec=%v", rep.DurationMS, rep.EdgesPerSec)
	}
}

// TestRunMatchesLibrary: for every registered task, runtime and round mode,
// engine.Run reports exactly what the direct library call yields. The
// single-round batch row is held to the materialized HashK reference
// (task.Descriptor.Batch), not to a second runtime.
func TestRunMatchesLibrary(t *testing.T) {
	const k, seed = 4, 11
	addrs, shutdown, err := cluster.ServeLoopback(k)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	g := gen.GNP(400, 40.0/400, rng.New(seed))
	ctx := context.Background()
	src := func() stream.EdgeSource { return stream.NewGraphSource(g) }
	ccfg := cluster.Config{Workers: addrs, Seed: seed}

	for _, name := range task.Names() {
		d := task.MustGet(name)
		var p task.Params
		beta := 0
		if d.UsesBeta {
			beta = 8
			p.EDCS = edcs.ParamsForBeta(beta)
		}
		for _, runtime := range []string{Batch, Stream, Cluster} {
			for _, roundCap := range []int{0, 2} {
				if roundCap > 0 && d.WireRounds == 0 {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/rounds=%d", name, runtime, roundCap), func(t *testing.T) {
					sp := Spec{Task: name, Beta: beta, Rounds: roundCap, Runtime: runtime, K: k, Seed: seed,
						Cluster: cluster.Config{Workers: addrs}}
					rep, err := Run(ctx, sp, src())
					if err != nil {
						t.Fatal(err)
					}
					if rep.Task != name || rep.Mode != runtime || rep.Seed != seed || rep.Beta != beta {
						t.Fatalf("report header wrong: %+v", rep)
					}
					if roundCap == 0 {
						var (
							sol task.Solution
							st  *core.PipelineStats
						)
						switch runtime {
						case Batch:
							// The reference does not batch; the pipeline reads
							// the graph in default-size batches.
							sol, st = d.Batch(g, k, 0, seed, p)
							st.Batches = (g.M() + stream.DefaultBatchSize - 1) / stream.DefaultBatchSize
						case Stream:
							sol, st, err = stream.Solve(ctx, src(), stream.Config{K: k, Seed: seed}, d, p)
						default:
							sol, st, err = cluster.Solve(ctx, src(), ccfg, d, p)
						}
						if err != nil {
							t.Fatal(err)
						}
						if rep.SolutionSize != sol.Size || rep.Rounds != 0 || rep.RoundStats != nil {
							t.Fatalf("solution %d rounds %d, want %d and a single-round report", rep.SolutionSize, rep.Rounds, sol.Size)
						}
						checkStats(t, rep, st)
						return
					}
					rcfg := rounds.Config{K: k, Rounds: roundCap, Seed: seed, Params: p.EDCS}
					var (
						m  *matching.Matching
						st *rounds.Stats
					)
					if runtime == Cluster {
						var sums []task.Summary
						if sums, st, err = clusterRounds(ctx, src(), ccfg, d, p, rcfg); err == nil {
							m = d.Compose(st.N, sums).Matching
						}
					} else {
						m, st, err = rounds.Stream(ctx, src(), rcfg)
					}
					if err != nil {
						t.Fatal(err)
					}
					if rep.SolutionSize != m.Size() || rep.Rounds != roundCap || rep.RoundsRun != st.RoundsRun || len(rep.RoundStats) != st.RoundsRun {
						t.Fatalf("solution %d, rounds %d/%d with %d breakdowns; want %d, %d/%d",
							rep.SolutionSize, rep.RoundsRun, rep.Rounds, len(rep.RoundStats), m.Size(), st.RoundsRun, roundCap)
					}
					checkStats(t, rep, &st.PipelineStats)
					for i, rr := range rep.RoundStats {
						rs := st.Rounds[i]
						rr.DurationMS = 0
						want := graph.RoundReport{
							Round: rs.Round, K: rs.K, Seed: rs.Seed, InputEdges: rs.InputEdges, UnionEdges: rs.UnionEdges,
							TotalCommBytes: rs.TotalCommBytes, MaxMachineBytes: rs.MaxMachineBytes,
							EstCommBytes: rs.EstCommBytes, EstMaxMachineBytes: rs.EstMaxMachineBytes, ShardBytes: rs.ShardBytes,
							Retries: rs.Retries, ReplayedMachines: rs.ReplayedMachines, MachineStats: zeroPhases(rs.MachineStats),
						}
						rr.MachineStats = zeroPhases(rr.MachineStats)
						if !reflect.DeepEqual(rr, want) {
							t.Fatalf("round %d:\n got %+v\nwant %+v", i, rr, want)
						}
					}
				})
			}
		}
	}
}

// clusterRounds is the multi-round schedule on one cluster session opened
// for the whole run, the library calls engine.Run's cluster runtime makes.
func clusterRounds(ctx context.Context, src stream.EdgeSource, ccfg cluster.Config, d *task.Descriptor, p task.Params, cfg rounds.Config) ([]task.Summary, *rounds.Stats, error) {
	sess, err := cluster.Open(ctx, ccfg, d, p, cfg.Rounds, src.NumVertices())
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	return rounds.Drive(ctx, src, cfg, sess.Round)
}

// TestMultiRoundClusterParity is the multi-round seed-parity gate of the
// cluster runtime: through engine.Run, batch, stream and a real TCP cluster
// run the identical schedule — the same per-round breakdowns and answer —
// and the round functions Run builds for them leave deep-equal final
// coresets, for the same (graph, seed, k, β, rounds).
func TestMultiRoundClusterParity(t *testing.T) {
	addrs, shutdown, err := cluster.ServeLoopback(4)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	ctx := context.Background()
	for seed := uint64(1); seed <= 3; seed++ {
		g := gen.GNP(400, 40.0/400, rng.New(seed))
		reps := map[string]*graph.RunReport{}
		finals := map[string][][]graph.Edge{}
		for _, runtime := range []string{Batch, Stream, Cluster} {
			sp := Spec{Task: "edcs", Beta: 8, Rounds: 3, Runtime: runtime, K: 4, Seed: seed, Cluster: cluster.Config{Workers: addrs}}
			rep, err := Run(ctx, sp, stream.NewGraphSource(g))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, runtime, err)
			}
			reps[runtime] = rep

			d, p, err := sp.resolve()
			if err != nil {
				t.Fatal(err)
			}
			round, done, err := sp.runtime(ctx, d, p, stream.NewGraphSource(g))
			if err != nil {
				t.Fatal(err)
			}
			sums, _, err := rounds.Drive(ctx, stream.NewGraphSource(g), rounds.Config{K: 4, Rounds: 3, Seed: seed, Params: p.EDCS}, round)
			done()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, runtime, err)
			}
			for _, s := range sums {
				finals[runtime] = append(finals[runtime], s.Coreset)
			}
		}
		b, s, c := reps[Batch], reps[Stream], reps[Cluster]
		if !reflect.DeepEqual(finals[Batch], finals[Stream]) || !reflect.DeepEqual(finals[Batch], finals[Cluster]) {
			t.Fatalf("seed %d: final coresets differ across runtimes", seed)
		}
		if b.SolutionSize != s.SolutionSize || b.SolutionSize != c.SolutionSize {
			t.Fatalf("seed %d: matchings differ: batch %d stream %d cluster %d", seed, b.SolutionSize, s.SolutionSize, c.SolutionSize)
		}
		if b.RoundsRun < 2 || b.RoundsRun != s.RoundsRun || b.RoundsRun != c.RoundsRun {
			t.Fatalf("seed %d: round counts: batch %d stream %d cluster %d, want equal and at least 2",
				seed, b.RoundsRun, s.RoundsRun, c.RoundsRun)
		}
		for r := range b.RoundStats {
			br, cr := b.RoundStats[r], c.RoundStats[r]
			for _, o := range []graph.RoundReport{s.RoundStats[r], cr} {
				if br.K != o.K || br.Seed != o.Seed || br.InputEdges != o.InputEdges || br.UnionEdges != o.UnionEdges {
					t.Fatalf("seed %d round %d: breakdown differs: batch %+v vs %+v", seed, r, br, o)
				}
			}
			// Cluster rounds measure the wire; the measured bytes must cover
			// the simulated estimate and stay within frame-header slack.
			if cr.TotalCommBytes < cr.EstCommBytes {
				t.Fatalf("seed %d round %d: measured %d below estimate %d", seed, r, cr.TotalCommBytes, cr.EstCommBytes)
			}
			if cr.EstCommBytes > 0 && float64(cr.TotalCommBytes) > 1.1*float64(cr.EstCommBytes) {
				t.Fatalf("seed %d round %d: measured %d not ~= estimate %d", seed, r, cr.TotalCommBytes, cr.EstCommBytes)
			}
			if br.TotalCommBytes != cr.EstCommBytes {
				t.Fatalf("seed %d round %d: batch estimate %d differs from cluster estimate %d",
					seed, r, br.TotalCommBytes, cr.EstCommBytes)
			}
		}
		if !reflect.DeepEqual(b.CoresetEdges, c.CoresetEdges) {
			t.Fatalf("seed %d: final coreset sizes differ: batch %v cluster %v", seed, b.CoresetEdges, c.CoresetEdges)
		}
	}
}

// TestClusterSessionReuse: one session serves every round of a multi-round
// cluster run over the same connections — the per-round shard accounting
// proves the conversation shape (one HELLO, several rounds) rather than
// per-round redials.
func TestClusterSessionReuse(t *testing.T) {
	addrs, shutdown, err := cluster.ServeLoopback(4)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	g := gen.GNP(300, 0.4, rng.New(9))
	rep, err := Run(context.Background(), Spec{Task: "edcs", Beta: 8, Rounds: 3, Runtime: Cluster, K: 4, Seed: 9,
		Cluster: cluster.Config{Workers: addrs}}, stream.NewGraphSource(g))
	if err != nil {
		t.Fatal(err)
	}
	if rep.RoundsRun < 2 {
		t.Fatalf("expected a multi-round run, got %d rounds", rep.RoundsRun)
	}
	// Only round 0 pays the handshake: every round charges some shard
	// traffic of its own, and the rounds sum to the run's total.
	sum := 0
	for _, rr := range rep.RoundStats {
		if rr.ShardBytes <= 0 {
			t.Fatalf("round %d has no shard traffic", rr.Round)
		}
		sum += rr.ShardBytes
	}
	if sum != rep.ShardBytes {
		t.Fatalf("per-round shard bytes %d do not sum to %d", sum, rep.ShardBytes)
	}
}

// TestBatchMatchesStream: batch and stream split with the same hash
// k-partitioning and feed each part, in order, to the task's own builder, so
// for every task their reports agree on everything but what is the
// runtime's own — mode, the batch count and the wall clock — on one
// machine, on more machines than edges and on an empty graph too.
func TestBatchMatchesStream(t *testing.T) {
	gnp := gen.GNP(300, 12.0/300, rng.New(7))
	dense := gen.GNP(200, 0.4, rng.New(8)) // peels: vc fixes vertices online
	stars := gen.StarForest(12, 30)
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
		seed uint64
	}{
		{"gnp/k=1", gnp, 1, 3},
		{"gnp/k=4", gnp, 4, 7},
		{"gnp/k=7/seed=11", gnp, 7, 11},
		{"gnp/k=7/seed=12", gnp, 7, 12},
		{"dense/k=2", dense, 2, 5},
		{"stars/k=3", stars, 3, 9},
		{"k>m", graph.New(6, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}}), 16, 2},
		{"empty", &graph.Graph{N: 10}, 4, 1},
	}
	runtimeFree := func(rep *graph.RunReport) *graph.RunReport {
		rep.Mode, rep.Batches, rep.DurationMS, rep.EdgesPerSec = "", 0, 0, 0
		return rep
	}
	for _, name := range task.Names() {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				sp := Spec{Task: name, Runtime: Stream, K: tc.k, Seed: tc.seed}
				want, err := Run(context.Background(), sp, stream.NewGraphSource(tc.g))
				if err != nil {
					t.Fatal(err)
				}
				sp.Runtime = Batch
				got, err := Run(context.Background(), sp, stream.NewGraphSource(tc.g))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(runtimeFree(got), runtimeFree(want)) {
					t.Fatalf("batch report differs from stream:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestSpecRejections: a Spec no runtime can run fails before any work, and
// parameter errors read exactly as task.ValidateParams words them — the one
// vocabulary of every frontend.
func TestSpecRejections(t *testing.T) {
	g := &graph.Graph{N: 4, Edges: []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}}
	ok := Spec{Task: "matching", Runtime: Stream, K: 2, Seed: 1}
	for name, tc := range map[string]struct {
		mutate func(*Spec)
		want   string
	}{
		"unknown task":    {func(sp *Spec) { sp.Task = "nope" }, `unknown task "nope" (known tasks: ` + strings.Join(task.Names(), ", ") + `)`},
		"unknown runtime": {func(sp *Spec) { sp.Runtime = "mapreduce" }, `unknown runtime "mapreduce" (known runtimes: batch, stream, cluster)`},
		"k zero":          {func(sp *Spec) { sp.K = 0 }, "k must be at least 1 (got 0)"},
		"k negative":      {func(sp *Spec) { sp.K = -3 }, "k must be at least 1 (got -3)"},
		"beta on matching": {func(sp *Spec) { sp.Beta = 16 },
			task.ValidateParams("matching", 16, 0).Error()},
		"beta out of range": {func(sp *Spec) { sp.Task, sp.Beta = "edcs", 1 },
			task.ValidateParams("edcs", 1, 0).Error()},
		"rounds on vc": {func(sp *Spec) { sp.Task, sp.Rounds = "vc", 2 },
			task.ValidateParams("vc", 0, 2).Error()},
		"rounds out of range": {func(sp *Spec) { sp.Task, sp.Rounds = "edcs", task.MaxRounds+1 },
			task.ValidateParams("edcs", 0, task.MaxRounds+1).Error()},
		"k is not the fleet": {func(sp *Spec) { sp.Runtime, sp.Cluster.Workers = Cluster, []string{"a:1", "b:2", "c:3"} },
			"cluster runtime runs one machine per worker: k = 2 but the fleet has 3"},
	} {
		sp := ok
		tc.mutate(&sp)
		_, err := Run(context.Background(), sp, stream.NewGraphSource(g))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
	if _, err := Run(context.Background(), ok, stream.NewGraphSource(g)); err != nil {
		t.Fatalf("the unmutated spec must run: %v", err)
	}
}

// TestBatchSelfChecks: the batch runtime has the materialized graph in hand
// and refuses a structurally invalid one, whichever frontend supplied it.
func TestBatchSelfChecks(t *testing.T) {
	bad := &graph.Graph{N: 3, Edges: []graph.Edge{{U: 0, V: 1}, {U: 2, V: 2}}}
	for _, roundCap := range []int{0, 2} {
		_, err := Run(context.Background(), Spec{Task: "edcs", Rounds: roundCap, Runtime: Batch, K: 2, Seed: 1}, stream.NewGraphSource(bad))
		if err == nil || !strings.HasPrefix(err.Error(), "invalid input: ") || !strings.Contains(err.Error(), "self-loop") {
			t.Fatalf("rounds=%d: err = %v, want an invalid-input error naming the self-loop", roundCap, err)
		}
	}
}

// TestBatchHonorsCancellation: a canceled context stops a batch run as it
// stops a stream run — here, before the first batch is routed.
func TestBatchHonorsCancellation(t *testing.T) {
	g := gen.GNP(200, 0.1, rng.New(3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, roundCap := range []int{0, 2} {
		if _, err := Run(ctx, Spec{Task: "edcs", Rounds: roundCap, Runtime: Batch, K: 2, Seed: 1}, stream.NewGraphSource(g)); err != context.Canceled {
			t.Fatalf("rounds=%d: err = %v, want context.Canceled", roundCap, err)
		}
	}
}

// TestReport: the JSON-able report carries the multi-round fields and the
// per-round breakdown, and the aggregates tie out against the rounds.
func TestReport(t *testing.T) {
	g := gen.GNP(300, 0.3, rng.New(5))
	rep, err := Run(context.Background(), Spec{Task: "edcs", Beta: 8, Rounds: 3, Runtime: Batch, K: 9, Seed: 5}, stream.NewGraphSource(g))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Task != "edcs" || rep.Mode != "batch" || rep.Beta != 8 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if rep.Rounds != 3 || rep.RoundsRun < 1 || len(rep.RoundStats) != rep.RoundsRun {
		t.Fatalf("round fields wrong: rounds=%d roundsRun=%d stats=%d", rep.Rounds, rep.RoundsRun, len(rep.RoundStats))
	}
	sum := 0
	for _, rr := range rep.RoundStats {
		sum += rr.TotalCommBytes
	}
	if sum != rep.TotalCommBytes {
		t.Fatalf("per-round comm %d does not sum to total %d", sum, rep.TotalCommBytes)
	}
	if last := rep.RoundStats[rep.RoundsRun-1]; len(rep.CoresetEdges) != last.K {
		t.Fatalf("top-level coreset slice describes %d machines, final round had %d", len(rep.CoresetEdges), last.K)
	}
}

// TestClusterReportLayout pins the JSON layout of a cluster-mode report, the
// one shape the CLI's JSON goldens (batch, stream and multi-round runs) never
// print: the measured-versus-estimated byte split, the shard traffic and the
// per-machine telemetry with the EDCS build counters. Times are zeroed first;
// what is pinned is the key order a consumer of -json output reads.
func TestClusterReportLayout(t *testing.T) {
	addrs, shutdown, err := cluster.ServeLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	g := gen.GNP(300, 0.3, rng.New(4))
	rep, err := Run(context.Background(), Spec{Task: "edcs", Beta: 8, Runtime: Cluster, K: 2, Seed: 4,
		Cluster: cluster.Config{Workers: addrs}}, stream.NewGraphSource(g))
	if err != nil {
		t.Fatal(err)
	}
	rep.DurationMS, rep.EdgesPerSec = 0, 0
	rep.MachineStats = zeroPhases(rep.MachineStats)
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := objectKeys(t, buf)
	wantKeys := []string{"task", "mode", "n", "m", "k", "seed", "beta", "solutionSize",
		"partEdges", "storedEdges", "live", "coresetEdges",
		"totalCommBytes", "maxMachineBytes", "estCommBytes", "estMaxMachineBytes", "shardBytes",
		"compositionEdges", "batches", "durationMs", "machineStats"}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Fatalf("report keys:\n got %q\nwant %q", keys, wantKeys)
	}
	var machines []json.RawMessage
	if err := json.Unmarshal(vals["machineStats"], &machines); err != nil {
		t.Fatal(err)
	}
	if len(machines) != 2 {
		t.Fatalf("%d machineStats entries, want one per machine", len(machines))
	}
	wantMachine := []string{"machine", "decodeMs", "buildMs", "encodeMs", "edgesIn", "repairIters", "removals", "peakCoreset"}
	for i, m := range machines {
		if got, _ := objectKeys(t, m); !reflect.DeepEqual(got, wantMachine) {
			t.Fatalf("machineStats[%d] keys:\n got %q\nwant %q", i, got, wantMachine)
		}
	}
}

// objectKeys returns a JSON object's keys in encoding order and its values
// by key.
func objectKeys(t *testing.T, obj []byte) ([]string, map[string]json.RawMessage) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(obj))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", obj)
	}
	var keys []string
	vals := map[string]json.RawMessage{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		vals[tok.(string)] = v
	}
	return keys, vals
}
