// Example multiround_mpc walks the multi-round MPC algorithm of "Coresets
// Meet EDCS" (arXiv:1711.03076) end to end: starting from k machines, each
// round shards the current graph, builds one EDCS per machine, unions the
// coresets into a much smaller graph, and reshards it over ⌊√k⌋ machines —
// until the union stops shrinking or the round cap is hit. The example runs
// the identical schedule three ways:
//
//  1. single-round (the baseline everyone else composes against),
//  2. multi-round over the in-process batch driver, printing the per-round
//     shrink, and
//  3. multi-round over a real loopback-TCP cluster through one reused
//     session (one HELLO per run), where every round's communication is
//     measured off the sockets.
//
// The composed matchings agree bit for bit across all three, while the
// graph the coordinator's exact matcher must chew through shrinks
// geometrically with each round — the whole point of spending rounds.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/rounds"
	"repro/internal/stream"
)

func main() {
	const (
		n     = 20000
		deg   = 24.0
		k     = 16
		seed  = 42
		beta  = 8
		rcCap = 3
	)
	g := gen.GNP(n, deg/n, rng.New(seed))
	opt := matching.Maximum(g.N, g.Edges).Size()
	p := edcs.ParamsForBeta(beta)
	fmt.Printf("graph: n=%d m=%d, maximum matching %d\n\n", g.N, g.M(), opt)

	// 1. Single-round EDCS pipeline: the baseline.
	m1, st1 := edcs.Distributed(g, k, 0, seed, p)
	fmt.Printf("single round:  matching %d (ratio %.4f), composed over %d union edges, comm %d B\n\n",
		m1.Size(), float64(m1.Size())/float64(opt), st1.CompositionEdges, st1.TotalCommBytes)

	// 2. Multi-round driver, in process: same round-0 seed (so rounds=1
	// would reproduce the baseline exactly), then union → reshard → rebuild
	// with the ⌊√k⌋ schedule.
	cfg := rounds.Config{K: k, Rounds: rcCap, Seed: seed, Params: p}
	ctx := context.Background()
	m2, st2, err := rounds.Batch(ctx, g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multi-round (batch driver, cap %d):\n", rcCap)
	for _, rs := range st2.Rounds {
		fmt.Printf("  round %d: k=%-2d input %6d edges -> union %6d edges (%.1f%% kept), comm %d B\n",
			rs.Round, rs.K, rs.InputEdges, rs.UnionEdges,
			100*float64(rs.UnionEdges)/float64(rs.InputEdges), rs.TotalCommBytes)
	}
	fmt.Printf("  matching %d (ratio %.4f); exact matcher composed %d edges instead of %d\n\n",
		m2.Size(), float64(m2.Size())/float64(opt), st2.CompositionEdges, st1.CompositionEdges)

	// 3. The same schedule over a real TCP cluster: one session, one HELLO,
	// the connections reused across rounds, every round's bytes measured.
	addrs, shutdown, err := cluster.ServeLoopback(k)
	if err != nil {
		log.Fatal(err)
	}
	defer shutdown()
	m3, st3, err := rounds.Cluster(ctx, stream.NewGraphSource(g),
		cluster.Config{Workers: addrs, Seed: seed}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multi-round (cluster, %d workers on loopback TCP):\n", k)
	for _, rs := range st3.Rounds {
		fmt.Printf("  round %d: k=%-2d measured %6d B (est %6d B, meas/est %.3f), shard traffic %d B\n",
			rs.Round, rs.K, rs.TotalCommBytes, rs.EstCommBytes,
			float64(rs.TotalCommBytes)/float64(rs.EstCommBytes), rs.ShardBytes)
	}
	fmt.Printf("  matching %d\n\n", m3.Size())

	switch {
	case m2.Size() != m3.Size():
		log.Fatal("BUG: batch and cluster multi-round runs disagree")
	case st2.RoundsRun != st3.RoundsRun:
		log.Fatal("BUG: batch and cluster ran different round counts")
	default:
		fmt.Printf("parity: batch and cluster agree (%d rounds, matching %d); ", st2.RoundsRun, m2.Size())
		fmt.Printf("rounds traded %d extra comm bytes for a %.1fx smaller composition input\n",
			st2.TotalCommBytes-st1.TotalCommBytes,
			float64(st1.CompositionEdges)/float64(st2.CompositionEdges))
	}
}
