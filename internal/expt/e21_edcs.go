package expt

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/task"
)

func init() {
	register(Experiment{
		ID:    "E21",
		Title: "EDCS coreset vs Theorem-1 matching coreset (approximation, coreset bytes, measured cluster communication)",
		Paper: "Coresets Meet EDCS (arXiv:1711.03076): a per-machine edge-degree constrained subgraph is a randomized composable coreset with a 3/2+eps matching approximation — strictly better than the O(1) of the SPAA'17 maximum-matching coreset — at O(n*polylog) size. The experiment composes both coresets from the same hash k-partitioning, prices both summaries with the shared sorted-set codec (core.CoresetSizeBytes = graph.EdgeSetBytes: Golomb–Rice coded gaps, the exact length of the CORESET body), and measures the EDCS coreset's real wire cost through the cluster runtime, whose estimate must agree with the simulated accounting exactly.",
		Run:   runE21,
	})
}

func runE21(cfg Config) *Result {
	ns := pick(cfg, []int{1500, 2500}, []int{10000, 20000})
	k := pick(cfg, 4, 8)
	beta := 16 // small enough that the EDCS genuinely trims these densities

	type workload struct {
		name string
		make func(n int, r *rng.RNG) *graph.Graph
	}
	workloads := []workload{
		{"gnp-deg24", func(n int, r *rng.RNG) *graph.Graph { return gen.GNP(n, 24/float64(n), r) }},
		{"powerlaw", func(n int, r *rng.RNG) *graph.Graph { return gen.ChungLu(n, 2.0, n/8+1, r) }},
	}

	tb := stats.NewTable(
		fmt.Sprintf("E21: EDCS (beta=%d) vs Theorem-1 coreset at k=%d (same hash k-partitioning; ratios vs exact maximum matching)", beta, k),
		"workload", "n", "opt", "edcs ratio", "t1-exact ratio", "t1-greedy ratio", "edcs KB", "t1 KB", "cluster meas KB", "meas/est")
	root := rng.New(cfg.Seed)
	ctx := context.Background()
	p := edcs.ParamsForBeta(beta)
	violations := 0
	for _, wl := range workloads {
		for _, n := range ns {
			r := root.Split(uint64(hash2("e21"+wl.name, n, k)))
			g := wl.make(n, r)
			if g.M() == 0 {
				continue
			}
			hashSeed := r.Uint64()
			opt := matching.Maximum(g.N, g.Edges).Size()
			if opt == 0 {
				continue
			}

			// EDCS pipeline on the hash k-partitioning (batch runtime).
			edcsM, edcsSt := edcs.Distributed(g, k, cfg.Workers, hashSeed, p)

			// Theorem-1 coresets on the SAME partitioning, composed both ways.
			parts := partition.HashK(g.Edges, k, hashSeed)
			coresets := core.MapParts(parts, cfg.Workers, func(i int, part []graph.Edge) []graph.Edge {
				return core.MatchingCoreset(g.N, part)
			})
			t1Bytes := 0
			for _, cs := range coresets {
				t1Bytes += core.CoresetSizeBytes(cs)
			}
			t1Exact := core.ComposeMatching(g.N, coresets).Size()
			t1Greedy := core.GreedyMatchCombine(g.N, coresets).Size()

			// The EDCS coreset's measured wire cost through the cluster runtime.
			addrs, shutdown, err := cluster.ServeLoopback(k)
			if err != nil {
				panic(err) // experiments fail loudly
			}
			cm, cst, err := cluster.Solve(ctx, stream.NewGraphSource(g), cluster.Config{Workers: addrs, Seed: hashSeed},
				task.MustGet("edcs"), task.Params{EDCS: p})
			shutdown()
			if err != nil {
				panic(err)
			}
			if cm.Size != edcsM.Size() || cst.EstCommBytes != edcsSt.TotalCommBytes {
				violations++ // seed parity broke: the runtimes disagree
			}

			edcsRatio := ratio(float64(edcsM.Size()), float64(opt))
			greedyRatio := ratio(float64(t1Greedy), float64(opt))
			// The acceptance envelope: the EDCS composition must not lose to
			// the one-pass greedy combiner over the Theorem-1 coresets.
			if edcsRatio < greedyRatio {
				violations++
			}
			tb.AddRow(wl.name, n, opt,
				fmt.Sprintf("%.4f", edcsRatio),
				fmt.Sprintf("%.4f", ratio(float64(t1Exact), float64(opt))),
				fmt.Sprintf("%.4f", greedyRatio),
				fmt.Sprintf("%.1f", float64(edcsSt.TotalCommBytes)/1024),
				fmt.Sprintf("%.1f", float64(t1Bytes)/1024),
				fmt.Sprintf("%.1f", float64(cst.TotalCommBytes)/1024),
				fmt.Sprintf("%.3f", ratio(float64(cst.TotalCommBytes), float64(cst.EstCommBytes))))
		}
	}
	notes := []string{
		"the EDCS union retains far more of each partition than a maximum matching does (beta*n/2 vs n/2 edges per machine), which is what buys its better approximation: here it matches or beats the Theorem-1 greedy combiner on every input, at a coreset-byte cost the table prices honestly",
		"t1-exact composes an exact maximum matching over the union of per-machine maximum matchings (the paper's Theorem 1 pipeline); t1-greedy is the one-pass GreedyMatch combiner of Section 3.1 — the EDCS ratio is required to dominate the greedy column (acceptance criterion), and its gap to t1-exact narrows as beta grows",
		"cluster meas KB is the EDCS CORESET frames read off loopback TCP; meas/est stays near 1 because the wire and the simulated accounting share one codec (graph.AppendEdgeSet): the gap is the 5-byte frame header and three stats varints per machine",
	}
	if violations > 0 {
		notes = append(notes, fmt.Sprintf("ENVELOPE VIOLATION: %d cells broke seed parity or lost to the greedy combiner", violations))
	}
	return &Result{
		ID:     "E21",
		Title:  "EDCS vs Theorem-1 matching coreset",
		Tables: []*stats.Table{tb},
		Notes:  notes,
	}
}
