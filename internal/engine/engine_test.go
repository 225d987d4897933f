package engine

import (
	"context"
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

// checkStats asserts that every run-stats field reached the report — the
// one constructor must not drop what a runtime observed.
func checkStats(t *testing.T, rep *graph.RunReport, st *core.PipelineStats) {
	t.Helper()
	got := core.PipelineStats{
		K: rep.K, N: rep.N, EdgesTotal: rep.M, Batches: rep.Batches,
		PartEdges: rep.PartEdges, StoredEdges: rep.StoredEdges, Live: rep.Live,
		CoresetEdges: rep.CoresetEdges, CoresetFixed: rep.CoresetFixed,
		TotalCommBytes: rep.TotalCommBytes, MaxMachineBytes: rep.MaxMachineBytes,
		EstCommBytes: rep.EstCommBytes, EstMaxMachineBytes: rep.EstMaxMachineBytes,
		ShardBytes: rep.ShardBytes, Retries: rep.Retries, ReplayedMachines: rep.ReplayedMachines,
		MachineStats: zeroPhases(rep.MachineStats), CompositionEdges: rep.CompositionEdges,
	}
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
// engine.Run reports exactly what the direct library call yields.
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
							sol, st = d.Batch(g, k, 0, seed, p)
							st.N, st.EdgesTotal = g.N, g.M()
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
					switch runtime {
					case Batch:
						m, st, err = rounds.Batch(ctx, g, rcfg)
					case Stream:
						m, st, err = rounds.Stream(ctx, src(), rcfg)
					default:
						m, st, err = rounds.Cluster(ctx, src(), ccfg, rcfg)
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

// TestBatchHonorsCancellation: a canceled context stops a batch run at the
// next point the uninterruptible pipeline allows — here, before it starts.
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
