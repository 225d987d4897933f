package engine

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/stream"
)

// A warm vc run recycles what it allocates per edge. On the service shape
// (n = 20 000, degree 8, four machines, where no level fires and each
// machine's residual is its whole shard) the store blocks and routing
// batches, the degree tables, the residuals and the composer's table all come
// from free lists an earlier run filled, and engine.Run hands the residuals
// back once it has reported. So a run may allocate under 2 bytes per edge
// plus 8 per vertex (the cover, the report, the pipeline's fixed cost): a
// residual copied into a fresh slice (8 bytes an edge) does not fit. The
// figure is the least of five runs, so that a collection that empties the
// free lists during one of them does not decide the test. Under the race
// detector sync.Pool drops a random quarter of what it is handed, so there
// the warm runs are only held to the first run's answer.
func TestVCRunAllocationBudget(t *testing.T) {
	const n, k = 20_000, 4
	g := gen.GNP(n, 8.0/n, rng.New(1))
	sp := Spec{Task: "vc", Runtime: Stream, K: k, Seed: 7}
	run := func() (size int, alloc uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := Run(context.Background(), sp, stream.NewGraphSource(g))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if rep.CoresetEdges[0] == 0 || rep.CoresetFixed[0] != 0 {
			t.Fatalf("machine 0 keeps %d residual edges and fixes %d vertices: not the service shape", rep.CoresetEdges[0], rep.CoresetFixed[0])
		}
		return rep.SolutionSize, after.TotalAlloc - before.TotalAlloc
	}
	size, _ := run() // fills the free lists
	least := ^uint64(0)
	for range 5 {
		s, a := run()
		if s != size {
			t.Fatalf("a warm run covers with %d vertices, the first with %d", s, size)
		}
		least = min(least, a)
	}
	m := len(g.Edges)
	budget := uint64(2*m + 8*n)
	t.Logf("a warm vc run allocated %d bytes on %d edges: %.2f B/edge (budget %.2f)", least, m, float64(least)/float64(m), float64(budget)/float64(m))
	if !raceEnabled && least > budget {
		t.Fatalf("a warm vc run allocated %d bytes, budget %d", least, budget)
	}
}
