// Example cluster_matching runs the paper's Theorem 1 pipeline over the
// cluster runtime: k workers serving the wire protocol on loopback TCP, a
// coordinator hash-sharding a generated graph across them, and a composed
// maximum matching whose communication cost is measured — actual bytes off
// the sockets — rather than estimated. It then replays the identical run
// through the in-process streaming runtime to show the answers match bit
// for bit and the measured bytes sit just above the simulated estimate
// (frame headers are the only overhead).
package main

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

func main() {
	const (
		n    = 20000
		deg  = 8.0
		k    = 4
		seed = 42
	)
	addrs, shutdown, err := cluster.ServeLoopback(k)
	if err != nil {
		log.Fatal(err)
	}
	defer shutdown()
	fmt.Printf("started %d workers: %v\n", k, addrs)

	src := stream.NewIterSource(n, func() gen.EdgeIter { return gen.GNPIter(n, deg/n, rng.New(seed)) })
	matching := task.MustGet("matching")
	m, st, err := cluster.Solve(context.Background(), src, cluster.Config{Workers: addrs, Seed: seed}, matching, task.Params{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster:    matching %d edges over %d edges total\n", m.Size, st.EdgesTotal)
	fmt.Printf("            measured comm %d B (max machine %d B), estimate %d B, shard traffic %d B\n",
		st.TotalCommBytes, st.MaxMachineBytes, st.EstCommBytes, st.ShardBytes)

	src = stream.NewIterSource(n, func() gen.EdgeIter { return gen.GNPIter(n, deg/n, rng.New(seed)) })
	sm, sst, err := stream.Solve(context.Background(), src, stream.Config{K: k, Seed: seed}, matching, task.Params{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in-process: matching %d edges, simulated comm %d B\n", sm.Size, sst.TotalCommBytes)
	fmt.Printf("answers identical: %v; estimate identical: %v\n",
		m.Size == sm.Size, st.EstCommBytes == sst.TotalCommBytes)
}
