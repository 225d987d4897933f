package edcs

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
)

// One machine of the dataset_edcs_stream shape: n vertices hash-split k ways,
// β = 16. The insert shapes below all build this machine's shard.
const (
	shapeN    = 32768
	shapeK    = 4
	shapeBeta = 16
)

// insertShape is one machine's arrival sequence, drawn once per process.
type insertShape struct {
	name     string
	arrivals func() []graph.Edge
}

// machineShard returns machine 0's part of g under the hash k-partitioning.
func machineShard(g *graph.Graph) []graph.Edge {
	return partition.HashK(g.Edges, shapeK, 7)[0]
}

// gnpShape is machine 0's shard of G(n, deg/n): a per-machine average degree
// of deg/k.
func gnpShape(deg float64) insertShape {
	return insertShape{
		name: fmt.Sprintf("gnp-deg%g", deg/shapeK),
		arrivals: sync.OnceValue(func() []graph.Edge {
			return machineShard(gen.GNP(shapeN, deg/shapeN, rng.New(1)))
		}),
	}
}

// starChordsGraph is a star on n vertices, centre 0 as every star edge's U,
// plus chords random leaf pairs, shuffled: the hub's chain is as long as the
// shard's leaf count, so twin lookups on it walk far.
func starChordsGraph(n, chords int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	edges := gen.Star(n).Edges
	for range chords {
		u, v := 1+r.Intn(n-1), 1+r.Intn(n-1)
		if u != v {
			edges = append(edges, graph.Edge{U: graph.ID(u), V: graph.ID(v)})
		}
	}
	for i := len(edges) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	return &graph.Graph{N: n, Edges: edges}
}

// The two densest rows, which TestInsertBytesPerStoredEdge budgets too:
// per-machine average degree 16 (the dataset_edcs_stream shape) and 64.
var gnpDeg16, gnpDeg64 = gnpShape(64), gnpShape(256)

// insertShapes sweeps shard density (per-machine average degree 1 to 64) and
// two skewed shapes: a star with chords and a Chung–Lu power-law shard.
var insertShapes = []insertShape{
	gnpShape(4), gnpShape(8), gnpShape(16), gnpShape(32), gnpDeg16, gnpDeg64,
	{"star-chords", sync.OnceValue(func() []graph.Edge {
		return machineShard(starChordsGraph(shapeN, 8*shapeN, 1))
	})},
	{"chunglu", sync.OnceValue(func() []graph.Edge {
		return machineShard(gen.ChungLu(shapeN, 2.0, shapeN/16+1, rng.New(1)))
	})},
}

// TestInsertBytesPerStoredEdge budgets the bytes New plus the inserts
// allocate per stored edge on one machine. The budgets sit 7–10 % above
// what the block chains spend (31.7 and 27.2 B) and below what the 20-byte
// arrival-order slots with per-endpoint next-links spent (37.8 and 36.4 B),
// so a return to per-edge records fails here.
func TestInsertBytesPerStoredEdge(t *testing.T) {
	for _, c := range []struct {
		shape  insertShape
		budget float64 // bytes per stored edge
	}{
		{gnpDeg16, 34},
		{gnpDeg64, 30},
	} {
		arrivals := c.shape.arrivals()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := New(shapeN, ParamsForBeta(shapeBeta))
		for _, e := range arrivals {
			s.Insert(e)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / float64(s.Stored())
		t.Logf("%s: %d stored edges, %.2f B each (budget %g)", c.shape.name, s.Stored(), got, c.budget)
		if got > c.budget {
			t.Errorf("shape %s (n %d, k %d, beta %d, one machine): %.2f B allocated per stored edge, budget %g",
				c.shape.name, shapeN, shapeK, shapeBeta, got, c.budget)
		}
	}
}

// BenchmarkInsert builds one machine's EDCS per shape and reports the cost
// per arriving edge and the bytes allocated per stored edge (New included).
func BenchmarkInsert(b *testing.B) {
	for _, sh := range insertShapes {
		b.Run(sh.name, func(b *testing.B) {
			arrivals := sh.arrivals()
			p := ParamsForBeta(shapeBeta)
			var stored int
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				s := New(shapeN, p)
				for _, e := range arrivals {
					s.Insert(e)
				}
				stored = s.Stored()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(arrivals)), "ns/edge")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*stored), "B/stored-edge")
		})
	}
}
