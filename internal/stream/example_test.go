package stream_test

import (
	"context"
	"fmt"
	"log"
	"slices"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// The deployment shape of the paper's model. A workload is generated edge
// by edge — the graph never exists in memory — and flows
//
//	generator --> hash sharder --> k machine goroutines --> coordinator
//
// Each machine keeps its coreset incrementally as its share arrives (a
// greedy matching as it goes for Theorem 1, online degree peeling for
// Theorem 2) and ships only the summary.
func ExampleSolve() {
	const n, k, seed = 5000, 8, 1
	ctx := context.Background()
	cfg := stream.Config{K: k, Seed: seed}

	src := stream.NewIterSource(n, func() gen.EdgeIter { return gen.GNPIter(n, 8.0/n, rng.New(seed)) })
	m, st, err := stream.Solve(ctx, src, cfg, task.MustGet("matching"), task.Params{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("maximum matching (Theorem 1):")
	fmt.Printf("  routed:      %d edges in %d batches\n", st.EdgesTotal, st.Batches)
	fmt.Printf("  per machine: %d..%d edges received\n", slices.Min(st.PartEdges), slices.Max(st.PartEdges))
	fmt.Printf("  live greedy: %d..%d matched online\n", slices.Min(st.Live), slices.Max(st.Live))
	fmt.Printf("  summaries:   %d..%d edges, %d bytes in total\n",
		slices.Min(st.CoresetEdges), slices.Max(st.CoresetEdges), st.TotalCommBytes)
	fmt.Printf("  composed:    %d edges\n", m.Size)

	// The paper's star example (Section 3.2): level-1 peeling fixes a vertex
	// whose degree on one machine reaches n/(4k), so every machine fixes the
	// center early in the stream and drops the rest of its share.
	src = stream.NewIterSource(n, func() gen.EdgeIter { return gen.StarIter(n) })
	cover, st, err := stream.Solve(ctx, src, cfg, task.MustGet("vc"), task.Params{})
	if err != nil {
		log.Fatal(err)
	}
	stored, received := 0, 0
	for i := range st.PartEdges {
		stored += st.StoredEdges[i]
		received += st.PartEdges[i]
	}
	fmt.Println("minimum vertex cover (Theorem 2), star K_{1,n-1}:")
	fmt.Printf("  peeled:      %d..%d vertices fixed online per machine\n", slices.Min(st.Live), slices.Max(st.Live))
	fmt.Printf("  memory:      machines stored %d of %d routed edges\n", stored, received)
	fmt.Printf("  composed:    cover of size %d, %d bytes sent\n", cover.Size, st.TotalCommBytes)
	// Output:
	// maximum matching (Theorem 1):
	//   routed:      20217 edges in 20 batches
	//   per machine: 2379..2650 edges received
	//   live greedy: 1257..1312 matched online
	//   summaries:   1333..1409 edges, 20130 bytes in total
	//   composed:    2493 edges
	// minimum vertex cover (Theorem 2), star K_{1,n-1}:
	//   peeled:      1..1 vertices fixed online per machine
	//   memory:      machines stored 1248 of 4999 routed edges
	//   composed:    cover of size 1, 56 bytes sent
}
