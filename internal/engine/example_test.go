package engine_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// The smallest end-to-end use of the library: a random graph, k simulated
// machines over a random edge partition, the paper's coresets — Theorem 1
// for matching, Theorem 2 for vertex cover — composed into final answers,
// and those answers next to centralized references. The batch runtime
// verifies each composed solution before it reports it.
func ExampleRun() {
	const n, k, seed = 2000, 8, 1
	g := gen.GNP(n, 10.0/n, rng.New(seed))
	fmt.Printf("input: G(n=%d, m=%d), k=%d machines\n", g.N, g.M(), k)

	for _, name := range []string{"matching", "vc"} {
		rep, err := engine.Run(context.Background(),
			engine.Spec{Task: name, Runtime: engine.Batch, K: k, Seed: seed}, stream.NewGraphSource(g))
		if err != nil {
			log.Fatal(err)
		}
		d := task.MustGet(name)
		fmt.Printf("%s: %d %s, composed over %d coreset edges, %d bytes sent\n",
			d.SolutionNoun, rep.SolutionSize, d.SolutionUnit, rep.CompositionEdges, rep.TotalCommBytes)
	}
	// A maximum matching is the optimum for the first and, since a cover
	// needs a vertex per matched edge, a lower bound for the second.
	fmt.Println("maximum matching:", matching.Maximum(g.N, g.Edges).Size())
	// Output:
	// input: G(n=2000, m=10068), k=8 machines
	// matching: 998 edges, composed over 4930 coreset edges, 8684 bytes sent
	// vertex cover: 1816 vertices, composed over 10068 coreset edges, 16500 bytes sent
	// maximum matching: 1000
}

// The multi-round MPC algorithm of "Coresets Meet EDCS" (arXiv:1711.03076):
// each round shards the current graph, builds one EDCS per machine, unions
// the coresets into a much smaller graph and reshards it over ⌊√k⌋
// machines, until the union stops shrinking or the round cap is hit. The
// same schedule runs in process and over a loopback-TCP cluster — one
// session, one HELLO per worker — and the answers agree exactly.
func ExampleRun_multiRound() {
	const n, k, seed = 2000, 16, 42
	g := gen.GNP(n, 24.0/n, rng.New(seed))
	addrs, shutdown, err := cluster.ServeLoopback(k)
	if err != nil {
		log.Fatal(err)
	}
	defer shutdown()

	spec := engine.Spec{Task: "edcs", Beta: 8, Rounds: 3, Runtime: engine.Batch, K: k, Seed: seed}
	batch, err := engine.Run(context.Background(), spec, stream.NewGraphSource(g))
	if err != nil {
		log.Fatal(err)
	}
	for _, rs := range batch.RoundStats {
		fmt.Printf("round %d: k=%-2d input %5d edges -> union %5d edges\n", rs.Round, rs.K, rs.InputEdges, rs.UnionEdges)
	}
	fmt.Printf("batch:   matching %d after %d rounds\n", batch.SolutionSize, batch.RoundsRun)

	spec.Runtime, spec.Cluster = engine.Cluster, cluster.Config{Workers: addrs}
	clu, err := engine.Run(context.Background(), spec, stream.NewGraphSource(g))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster: matching %d after %d rounds\n", clu.SolutionSize, clu.RoundsRun)
	// Output:
	// round 0: k=16 input 24104 edges -> union 23635 edges
	// round 1: k=4  input 23635 edges -> union 13254 edges
	// round 2: k=2  input 13254 edges -> union  6890 edges
	// batch:   matching 1000 after 3 rounds
	// cluster: matching 1000 after 3 rounds
}
