// Streaming pipeline demo: the deployment shape of the paper's model.
//
// A G(n, p) workload is *generated edge by edge* — the full graph never
// exists in memory — and flows through the streaming sharded runtime:
//
//	generator --> hash sharder --> k machine goroutines --> coordinator
//
// Each machine maintains its coreset incrementally as its share arrives
// (greedy matching telemetry for Theorem 1, online degree peeling for
// Theorem 2) and ships only the summary. The demo prints what each stage
// cost: edges routed, edges stored vs received (vertex cover's online
// peeling discards covered edges on the fly), live vs exact summary sizes,
// communication bytes and end-to-end throughput.
//
// Run: go run ./examples/streaming_pipeline
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

func main() {
	const (
		n    = 200000
		deg  = 8.0
		k    = 16
		seed = 1
	)
	p := deg / float64(n)
	fmt.Printf("input: streaming G(n=%d, p=%.2g) — never materialized — into k=%d machines\n\n", n, p, k)

	// --- Theorem 1: matching coresets over the stream.
	src := stream.NewIterSource(n, func() gen.EdgeIter { return gen.GNPIter(n, p, rng.New(seed)) })
	m, st, err := stream.Solve(context.Background(), src, stream.Config{K: k, Seed: seed}, task.MustGet("matching"), task.Params{})
	if err != nil {
		log.Fatal(err)
	}
	partLo, partHi := minmax(st.PartEdges)
	liveLo, liveHi := minmax(st.Live)
	csLo, csHi := minmax(st.CoresetEdges)
	fmt.Println("maximum matching (Theorem 1):")
	fmt.Printf("  routed:        %d edges in %d batches\n", st.EdgesTotal, st.Batches)
	fmt.Printf("  per machine:   %d..%d edges received\n", partLo, partHi)
	fmt.Printf("  live greedy:   %d..%d matched online (>= 1/2 of each machine's optimum)\n", liveLo, liveHi)
	fmt.Printf("  summaries:     %d..%d edges, %d bytes total, %d bytes max machine\n",
		csLo, csHi, st.TotalCommBytes, st.MaxMachineBytes)
	fmt.Printf("  composed:      %d edges\n", m.Size)
	fmt.Printf("  throughput:    %.2f Medges/sec end to end\n\n", st.EdgesPerSec()/1e6)

	// --- Theorem 2: VC coresets with online peeling, on the paper's star
	// example (Section 3.2). Online level-1 peeling fires for vertices whose
	// per-machine degree reaches n/(4k) — hubs with Θ(n) global degree. Each
	// machine fixes the star's center the moment its share of the center's
	// edges crosses the threshold, then discards the rest of the stream.
	fmt.Printf("input: streaming star K_{1,%d} into k=%d machines\n\n", n-1, k)
	src = stream.NewIterSource(n, func() gen.EdgeIter { return gen.StarIter(n) })
	cover, st2, err := stream.Solve(context.Background(), src, stream.Config{K: k, Seed: seed}, task.MustGet("vc"), task.Params{})
	if err != nil {
		log.Fatal(err)
	}
	stored, received := 0, 0
	for i := range st2.PartEdges {
		stored += st2.StoredEdges[i]
		received += st2.PartEdges[i]
	}
	peelLo, peelHi := minmax(st2.Live)
	fmt.Println("minimum vertex cover (Theorem 2):")
	fmt.Printf("  peeled online: %d..%d vertices per machine fixed into the cover mid-stream\n", peelLo, peelHi)
	fmt.Printf("  memory:        machines stored %d of %d routed edges (online peeling dropped %.1f%%)\n",
		stored, received, 100*float64(received-stored)/float64(max(received, 1)))
	fmt.Printf("  summaries:     %d bytes total communication\n", st2.TotalCommBytes)
	fmt.Printf("  composed:      %d vertices\n", cover.Size)
	fmt.Printf("  throughput:    %.2f Medges/sec end to end\n", st2.EdgesPerSec()/1e6)
}

func minmax(xs []int) (int, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
