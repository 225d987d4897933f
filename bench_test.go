// Go benchmarks: one per experiment (E1..E22, the paper's "tables and
// figures" plus the systems experiments) and micro-benchmarks of the hot
// kernels. Each experiment benchmark executes the same code path as
//
//	go run ./cmd/coreset experiments -quick -run E<n>
//
// and reports that table's headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every quantity the experiment tables print, at reduced scale.
// These are for measuring while working on a kernel. The repository's
// benchmark — fixed workloads, end-to-end metrics with regression bounds and
// the per-layer ledger — is bench/ (see BENCHMARK.json and bench/README.md).
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edcs"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/rounds"
	"repro/internal/stream"
	"repro/internal/task"
)

// benchExperiment runs a registered experiment end-to-end per iteration.
func benchExperiment(b *testing.B, id string) {
	e, ok := expt.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := expt.Config{Seed: 1, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.Run(cfg)
		if len(res.Tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkE1MatchingCoreset(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2VCCoreset(b *testing.B)            { benchExperiment(b, "E2") }
func BenchmarkE3GreedyCoresetGap(b *testing.B)     { benchExperiment(b, "E3") }
func BenchmarkE4MinVCCoresetGap(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5MatchingLB(b *testing.B)           { benchExperiment(b, "E5") }
func BenchmarkE6VCLB(b *testing.B)                 { benchExperiment(b, "E6") }
func BenchmarkE7SubsampledProtocol(b *testing.B)   { benchExperiment(b, "E7") }
func BenchmarkE8GroupedVC(b *testing.B)            { benchExperiment(b, "E8") }
func BenchmarkE9MapReduce(b *testing.B)            { benchExperiment(b, "E9") }
func BenchmarkE10RandomVsAdversarial(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11Weighted(b *testing.B)            { benchExperiment(b, "E11") }
func BenchmarkE12Concentration(b *testing.B)       { benchExperiment(b, "E12") }
func BenchmarkE13Parallel(b *testing.B)            { benchExperiment(b, "E13") }
func BenchmarkE14ExactKernels(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15WeightedVC(b *testing.B)          { benchExperiment(b, "E15") }
func BenchmarkE16HVPGame(b *testing.B)             { benchExperiment(b, "E16") }
func BenchmarkE17GreedyTrajectory(b *testing.B)    { benchExperiment(b, "E17") }
func BenchmarkE18PeelingSandwich(b *testing.B)     { benchExperiment(b, "E18") }
func BenchmarkE19StreamVsBatch(b *testing.B)       { benchExperiment(b, "E19") }
func BenchmarkE20ClusterComm(b *testing.B)         { benchExperiment(b, "E20") }
func BenchmarkE21EDCS(b *testing.B)                { benchExperiment(b, "E21") }
func BenchmarkE22MultiRoundMPC(b *testing.B)       { benchExperiment(b, "E22") }

// --- kernel micro-benchmarks -------------------------------------------

func benchGraph(n int, avgDeg float64, seed uint64) *graph.Graph {
	return gen.GNP(n, avgDeg/float64(n), rng.New(seed))
}

func BenchmarkKernelMatchingCoreset(b *testing.B) {
	g := benchGraph(16384, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MatchingCoreset(g.N, g.Edges)
	}
}

func BenchmarkKernelVCCoreset(b *testing.B) {
	g := benchGraph(16384, 32, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeVCCoreset(g.N, 8, g.Edges)
	}
}

func BenchmarkKernelRandomPartition(b *testing.B) {
	g := benchGraph(16384, 16, 3)
	r := rng.New(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.RandomK(g.Edges, 16, r)
	}
}

func BenchmarkKernelComposeMatching(b *testing.B) {
	g := benchGraph(16384, 8, 5)
	parts := partition.RandomK(g.Edges, 8, rng.New(6))
	coresets := make([][]graph.Edge, len(parts))
	for i, p := range parts {
		coresets[i] = core.MatchingCoreset(g.N, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComposeMatching(g.N, coresets)
	}
}

func BenchmarkKernelGreedyMatchCombine(b *testing.B) {
	g := benchGraph(16384, 8, 7)
	parts := partition.RandomK(g.Edges, 8, rng.New(8))
	coresets := make([][]graph.Edge, len(parts))
	for i, p := range parts {
		coresets[i] = core.MatchingCoreset(g.N, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GreedyMatchCombine(g.N, coresets)
	}
}

func BenchmarkPipelineDistributedMatching(b *testing.B) {
	g := benchGraph(16384, 8, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _ := core.DistributedMatching(g, 16, 0, uint64(i))
		if m.Size() == 0 {
			b.Fatal("empty matching")
		}
	}
}

func BenchmarkPipelineDistributedVC(b *testing.B) {
	g := benchGraph(16384, 16, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cover, _ := core.DistributedVertexCover(g, 16, 0, uint64(i))
		if len(cover) == 0 {
			b.Fatal("empty cover")
		}
	}
}

func BenchmarkProtocolMatchingEndToEnd(b *testing.B) {
	g := benchGraph(16384, 8, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := protocol.Run(g, 16, protocol.MatchingCoresetProtocol{}, uint64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TotalBytes), "bytes/op")
	}
}

func BenchmarkMapReduceCoreset(b *testing.B) {
	g := benchGraph(4096, 16, 12)
	k := mapreduce.DefaultK(g.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapreduce.CoresetMatchingMR(g, k, false, uint64(i), 0)
	}
}

func BenchmarkMapReduceFiltering(b *testing.B) {
	g := benchGraph(4096, 16, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapreduce.FilteringMatching(g, g.N, uint64(i))
	}
}

// BenchmarkEDCSVsMatchingCoreset prices the two per-machine summaries on
// the same partition: the EDCS (insertion + degree-constraint repair, edge
// list of ~beta*n/2 edges) against the Theorem 1 maximum matching (exact
// matcher, <= n/2 edges). Reported metrics: per-op wall time plus the
// coreset sizes in edges and encoded bytes (the communication the paper
// counts).
func BenchmarkEDCSVsMatchingCoreset(b *testing.B) {
	g := benchGraph(16384, 24, 31)
	part := partition.HashK(g.Edges, 8, 31)[0] // one machine's share
	p := edcs.ParamsForBeta(16)
	b.Run("edcs", func(b *testing.B) {
		b.ReportAllocs()
		var cs []graph.Edge
		for i := 0; i < b.N; i++ {
			cs = edcs.Coreset(g.N, part, p)
		}
		b.ReportMetric(float64(len(cs)), "coresetedges")
		b.ReportMetric(float64(core.CoresetSizeBytes(cs)), "coresetbytes")
	})
	b.Run("matching", func(b *testing.B) {
		b.ReportAllocs()
		var cs []graph.Edge
		for i := 0; i < b.N; i++ {
			cs = core.MatchingCoreset(g.N, part)
		}
		b.ReportMetric(float64(len(cs)), "coresetedges")
		b.ReportMetric(float64(core.CoresetSizeBytes(cs)), "coresetbytes")
	})
}

// BenchmarkMultiRoundEDCS prices the multi-round MPC driver
// (internal/rounds) at increasing round caps on one dense input: every extra
// round adds per-machine EDCS rebuild work and another wave of coreset
// messages (commbytes grows) but shrinks the union the coordinator must run
// the exact matcher over (composeedges falls) — which is why deeper runs can
// be FASTER end to end: the exact matcher dominates, and it now sees a far
// smaller graph.
func BenchmarkMultiRoundEDCS(b *testing.B) {
	g := benchGraph(16384, 24, 31)
	p := edcs.ParamsForBeta(8)
	for _, rc := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("rounds=%d", rc), func(b *testing.B) {
			b.ReportAllocs()
			var st *rounds.Stats
			for i := 0; i < b.N; i++ {
				m, rst, err := rounds.Batch(context.Background(), g, rounds.Config{K: 16, Rounds: rc, Seed: 31, Params: p})
				if err != nil {
					b.Fatal(err)
				}
				if m.Size() == 0 {
					b.Fatal("empty matching")
				}
				st = rst
			}
			b.ReportMetric(float64(st.RoundsRun), "rounds")
			b.ReportMetric(float64(st.CompositionEdges), "composeedges")
			b.ReportMetric(float64(st.TotalCommBytes), "commbytes")
		})
	}
}

// BenchmarkStreamPipeline measures the streaming sharded runtime end to end
// (source -> hash sharder -> k machines -> coordinator) and reports edge
// throughput.
func BenchmarkStreamPipeline(b *testing.B) {
	g := benchGraph(16384, 8, 21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := stream.Solve(context.Background(), stream.NewGraphSource(g),
			stream.Config{K: 16, Seed: uint64(i + 1)}, task.MustGet("matching"), task.Params{})
		if err != nil {
			b.Fatal(err)
		}
		if m.Size == 0 {
			b.Fatal("empty matching")
		}
	}
	b.ReportMetric(float64(g.M())*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
}

// BenchmarkClusterVsStream compares the cluster runtime (k worker processes'
// worth of machines behind real TCP on loopback, measured wire bytes)
// against the in-process streaming runtime on the same (graph, seed, k).
// The answers are identical by construction; the benchmark prices the wire.
func BenchmarkClusterVsStream(b *testing.B) {
	g := benchGraph(16384, 8, 23)
	const k = 8
	addrs, shutdown, err := cluster.ServeLoopback(k)
	if err != nil {
		b.Fatal(err)
	}
	defer shutdown()
	b.Run("cluster", func(b *testing.B) {
		comm := 0
		for i := 0; i < b.N; i++ {
			m, st, err := cluster.Solve(context.Background(), stream.NewGraphSource(g),
				cluster.Config{Workers: addrs, Seed: uint64(i + 1)}, task.MustGet("matching"), task.Params{})
			if err != nil {
				b.Fatal(err)
			}
			if m.Size == 0 {
				b.Fatal("empty matching")
			}
			comm = st.TotalCommBytes
		}
		b.ReportMetric(float64(g.M())*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
		b.ReportMetric(float64(comm), "commbytes")
	})
	b.Run("stream", func(b *testing.B) {
		comm := 0
		for i := 0; i < b.N; i++ {
			m, st, err := stream.Solve(context.Background(), stream.NewGraphSource(g),
				stream.Config{K: k, Seed: uint64(i + 1)}, task.MustGet("matching"), task.Params{})
			if err != nil {
				b.Fatal(err)
			}
			if m.Size == 0 {
				b.Fatal("empty matching")
			}
			comm = st.TotalCommBytes
		}
		b.ReportMetric(float64(g.M())*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
		b.ReportMetric(float64(comm), "commbytes")
	})
}

// BenchmarkStreamVsBatchSharding isolates the sharder: hash routing through
// the concurrent pipeline vs single-RNG RandomK on a materialized list.
func BenchmarkStreamVsBatchSharding(b *testing.B) {
	g := benchGraph(16384, 16, 22)
	b.Run("hash-stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parts, _, err := stream.Shard(stream.NewGraphSource(g), stream.Config{K: 16, Seed: 1})
			if err != nil || len(parts) != 16 {
				b.Fatal("shard failed")
			}
		}
		b.ReportMetric(float64(g.M())*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
	})
	b.Run("hash-batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.HashK(g.Edges, 16, 1)
		}
		b.ReportMetric(float64(g.M())*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
	})
	b.Run("randomk-batch", func(b *testing.B) {
		r := rng.New(2)
		for i := 0; i < b.N; i++ {
			partition.RandomK(g.Edges, 16, r)
		}
		b.ReportMetric(float64(g.M())*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
	})
}

// Ablation: per-partition maximum matching via blossom vs Hopcroft-Karp on
// the same bipartite input (the win matching.Maximum takes by dispatching
// bipartite inputs to Hopcroft-Karp).
func BenchmarkAblationHopcroftKarpVsBlossom(b *testing.B) {
	bip := gen.BipartiteGNP(4096, 4096, 8.0/4096, rng.New(14))
	g := bip.ToGraph()
	b.Run("hopcroft-karp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matching.HopcroftKarp(bip)
		}
	})
	b.Run("blossom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matching.Blossom(g.N, g.Edges)
		}
	})
}

// Ablation: exact composition vs one-pass GreedyMatch at the coordinator
// (quality is compared in E1; this compares cost).
func BenchmarkAblationComposeVsGreedy(b *testing.B) {
	g := benchGraph(32768, 8, 15)
	parts := partition.RandomK(g.Edges, 16, rng.New(16))
	coresets := make([][]graph.Edge, len(parts))
	for i, p := range parts {
		coresets[i] = core.MatchingCoreset(g.N, p)
	}
	b.Run("exact-compose", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ComposeMatching(g.N, coresets)
		}
	})
	b.Run("greedy-combine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.GreedyMatchCombine(g.N, coresets)
		}
	})
}

// Ablation: parallel workers for the per-machine summary phase (E13's
// metric as a bench).
func BenchmarkAblationWorkers(b *testing.B) {
	g := benchGraph(32768, 8, 17)
	parts := partition.RandomK(g.Edges, 32, rng.New(18))
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.MapParts(parts, w, func(j int, part []graph.Edge) int {
					return len(core.MatchingCoreset(g.N, part))
				})
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return fmt.Sprintf("%s-%d", prefix, v)
}
