package expt

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/task"
)

func init() {
	register(Experiment{
		ID:    "E20",
		Title: "Simulated vs measured communication (cluster runtime, bytes per machine as n and k scale)",
		Paper: "Deployment check: the communication the paper bounds per machine — O~(n) coreset messages — is measured on real TCP connections by the cluster runtime (internal/cluster) and compared against the simulated estimate the in-process pipelines report. The two must share one codec (the sorted-set codec, graph.AppendEdgeSet / AppendIDSet), so measured exceeds estimated only by the fixed frame overhead, and both scale with n while the per-machine maximum shrinks as k grows.",
		Run:   runE20,
	})
}

func runE20(cfg Config) *Result {
	ns := pick(cfg, []int{2000, 4000}, []int{10000, 20000, 40000})
	ks := pick(cfg, []int{4, 8}, []int{8, 16, 32})

	tb := stats.NewTable(
		"E20: measured wire bytes vs simulated estimate (gnp deg 8; measured = CORESET frames off TCP, est = shared codec)",
		"task", "n", "k", "est KB", "meas KB", "meas/est", "est max B", "meas max B", "shard KB")
	root := rng.New(cfg.Seed)
	ctx := context.Background()
	violations := 0
	for _, n := range ns {
		for _, k := range ks {
			r := root.Split(uint64(hash2("e20", n, k)))
			g := gen.GNP(n, 8/float64(n), r)
			hashSeed := r.Uint64()

			addrs, shutdown, err := cluster.ServeLoopback(k)
			if err != nil {
				panic(err) // experiments fail loudly
			}
			ccfg := cluster.Config{Workers: addrs, Seed: hashSeed}

			for _, name := range []string{"matching", "vc"} {
				_, st, err := cluster.Solve(ctx, stream.NewGraphSource(g), ccfg, task.MustGet(name), task.Params{})
				if err != nil {
					shutdown()
					panic(err)
				}
				ratio := ratio(float64(st.TotalCommBytes), float64(st.EstCommBytes))
				// The acceptance envelope: measured is real (nonzero) and
				// within 2x of the simulated estimate.
				if st.TotalCommBytes <= 0 || ratio > 2 {
					violations++
				}
				tb.AddRow(name, n, k,
					fmt.Sprintf("%.1f", float64(st.EstCommBytes)/1024),
					fmt.Sprintf("%.1f", float64(st.TotalCommBytes)/1024),
					fmt.Sprintf("%.3f", ratio),
					st.EstMaxMachineBytes, st.MaxMachineBytes,
					st.ShardBytes/1024)
			}
			shutdown()
		}
	}
	notes := []string{
		"measured and estimated sizes share one codec (graph.AppendEdgeSet), so meas/est stays near 1: the gap is 9 B of frame header and checksum trailer plus three stats varints per machine — largest in relative terms at large k, where messages are many and small",
		"total coreset communication grows with n (the paper's O~(n) per machine times k) while the per-machine maximum falls as k grows: each machine's partition, and hence its maximum matching / residual, shrinks",
		"shard traffic (coordinator to workers) is the edge stream itself and dwarfs the coreset messages — the asymmetry the simultaneous model is about",
	}
	if violations > 0 {
		notes = append(notes, fmt.Sprintf("ENVELOPE VIOLATION: %d cells measured zero or beyond 2x the estimate", violations))
	}
	return &Result{
		ID:     "E20",
		Title:  "Simulated vs measured communication",
		Tables: []*stats.Table{tb},
		Notes:  notes,
	}
}
