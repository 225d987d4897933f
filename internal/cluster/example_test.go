package cluster_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// Theorem 1 over real sockets: k workers serve the wire protocol on
// loopback TCP, the coordinator hash-shards a generated graph across them
// and composes a maximum matching whose communication is measured off the
// connections. The same run through the in-process streaming runtime gives
// the same answer, and its simulated bytes are exactly the coreset bodies the
// workers sent; each CORESET frame adds a 5-byte header and three stats
// varints on top.
func ExampleSolve() {
	const n, k, seed = 5000, 4, 42
	addrs, shutdown, err := cluster.ServeLoopback(k)
	if err != nil {
		log.Fatal(err)
	}
	defer shutdown()
	edges := func() stream.EdgeSource {
		return stream.NewIterSource(n, func() gen.EdgeIter { return gen.GNPIter(n, 8.0/n, rng.New(seed)) })
	}
	matching := task.MustGet("matching")

	m, st, err := cluster.Solve(context.Background(), edges(), cluster.Config{Workers: addrs, Seed: seed}, matching, task.Params{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster:    matching %d edges over %d input edges\n", m.Size, st.EdgesTotal)
	fmt.Printf("            measured %d B of coresets (bodies %d B), %d B of shards\n",
		st.TotalCommBytes, st.EstCommBytes, st.ShardBytes)

	sm, sst, err := stream.Solve(context.Background(), edges(), stream.Config{K: k, Seed: seed}, matching, task.Params{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in-process: matching %d edges, simulated %d B\n", sm.Size, sst.TotalCommBytes)
	// Output:
	// cluster:    matching 2493 edges over 20092 input edges
	//             measured 14794 B of coresets (bodies 14750 B), 60030 B of shards
	// in-process: matching 2493 edges, simulated 14750 B
}
