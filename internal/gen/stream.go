package gen

import (
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// EdgeIter is a pull iterator over generated edges: Next returns the next
// edge until the stream is exhausted. Iterators hold O(1) state, so the
// streaming runtime (internal/stream) can shard synthetic workloads of any
// size without ever materializing the graph — the regime the paper's
// per-machine space bounds are about.
type EdgeIter interface {
	Next() (graph.Edge, bool)
}

// GNPIter returns an iterator over the edges of G(n, p) using the same
// geometric skip-sampling and the same RNG draw sequence as GNP: for any
// seed, collecting GNPIter(n, p, rng.New(seed)) yields exactly
// GNP(n, p, rng.New(seed)).Edges. Panics on invalid parameters, like GNP.
func GNPIter(n int, p float64, r *rng.RNG) EdgeIter {
	if n < 0 || p < 0 || p > 1 {
		panic("gen: GNPIter with invalid parameters")
	}
	it := &gnpIter{n: n, p: p, r: r}
	if n < 2 || p == 0 {
		it.done = true
		return it
	}
	it.total = int64(n) * int64(n-1) / 2
	it.logq = math.Log1p(-p)
	it.cur = -1
	return it
}

type gnpIter struct {
	n        int
	p        float64
	logq     float64 // math.Log1p(-p), for rng.GeometricLog
	r        *rng.RNG
	total    int64
	cur      int64
	u        int
	rowStart int64 // linear index of pair (u, u+1)
	dv       int   // dense mode: next v for row u
	done     bool
}

func (it *gnpIter) Next() (graph.Edge, bool) {
	if it.done {
		return graph.Edge{}, false
	}
	if it.p >= 1 {
		// Dense mode: enumerate every pair in GNP's row order.
		if it.dv <= it.u {
			it.dv = it.u + 1
		}
		if it.dv >= it.n {
			it.u++
			if it.u >= it.n-1 {
				it.done = true
				return graph.Edge{}, false
			}
			it.dv = it.u + 1
		}
		e := graph.Edge{U: graph.ID(it.u), V: graph.ID(it.dv)}
		it.dv++
		return e, true
	}
	it.cur += int64(it.r.GeometricLog(it.logq)) + 1
	if it.cur >= it.total {
		it.done = true
		return graph.Edge{}, false
	}
	for it.cur >= it.rowStart+int64(it.n-1-it.u) {
		it.rowStart += int64(it.n - 1 - it.u)
		it.u++
	}
	v := it.u + 1 + int(it.cur-it.rowStart)
	return graph.Edge{U: graph.ID(it.u), V: graph.ID(v)}, true
}

// StarIter returns an iterator over the edges of the star K_{1,n-1} with
// center 0, in the same order as Star. Panics if n < 1, like Star.
func StarIter(n int) EdgeIter {
	if n < 1 {
		panic("gen: StarIter with n < 1")
	}
	return &starIter{n: n, v: 1}
}

type starIter struct{ n, v int }

func (it *starIter) Next() (graph.Edge, bool) {
	if it.v >= it.n {
		return graph.Edge{}, false
	}
	e := graph.Edge{U: 0, V: graph.ID(it.v)}
	it.v++
	return e, true
}

// PowerlawIter returns an iterator over the edges of a Chung-Lu power-law
// graph using the same Miller-Hagberg row skip-sampling and the same RNG
// draw sequence as ChungLu: for any seed, collecting
// PowerlawIter(n, exponent, maxWeight, rng.New(seed)) yields exactly
// ChungLu(n, exponent, maxWeight, rng.New(seed)).Edges. The iterator holds
// O(n) state (the sorted weight sequence and the relabeling permutation) but
// never the O(m) edge list, closing the one streaming gap the CLI used to
// have: powerlaw workloads now shard without being materialized. Panics on
// invalid parameters, like ChungLu.
func PowerlawIter(n int, exponent float64, maxWeight int, r *rng.RNG) EdgeIter {
	if n < 0 || maxWeight < 1 {
		panic("gen: PowerlawIter with invalid parameters")
	}
	it := &powerlawIter{n: n, r: r}
	if n < 2 {
		it.done = true
		return it
	}
	it.sorted, it.total, it.perm = chungLuWeights(n, exponent, maxWeight, r)
	it.u = -1 // first Next advances to row 0
	return it
}

// PowerlawSetupBytes is what PowerlawIter allocates before its first edge:
// 20 B per vertex (its drawn weight, the sorted copy and its label in the
// permutation) and 16 B per weight value (the Zipf table and the weight
// histogram).
func PowerlawSetupBytes(n, maxWeight int) int64 {
	return 20*int64(n) + 16*int64(maxWeight)
}

type powerlawIter struct {
	n      int
	r      *rng.RNG
	sorted []float64 // weights, descending
	total  float64   // sum of weights
	perm   []int32   // relabeling permutation
	u      int       // current row (-1 before the first row)
	v      int       // skip cursor within the row
	pMax   float64   // row upper-bound probability
	logq   float64   // math.Log1p(-pMax), for rng.GeometricLog
	inRow  bool
	done   bool
}

func (it *powerlawIter) Next() (graph.Edge, bool) {
	if it.done {
		return graph.Edge{}, false
	}
	for {
		if !it.inRow {
			it.u++
			if it.u >= it.n-1 {
				it.done = true
				return graph.Edge{}, false
			}
			// Row upper bound: weights are sorted descending, so the largest
			// pair probability in row u is with v = u+1 (as in ChungLu).
			pMax := it.sorted[it.u] * it.sorted[it.u+1] / it.total
			if pMax <= 0 {
				continue
			}
			if pMax > 1 {
				pMax = 1
			}
			it.pMax, it.logq = pMax, math.Log1p(-pMax)
			it.v = it.u
			it.inRow = true
		}
		it.v += it.r.GeometricLog(it.logq) + 1
		if it.v >= it.n {
			it.inRow = false
			continue
		}
		p := it.sorted[it.u] * it.sorted[it.v] / it.total
		if p > 1 {
			p = 1
		}
		if it.r.Bernoulli(p / it.pMax) {
			return graph.Edge{U: it.perm[it.u], V: it.perm[it.v]}.Canon(), true
		}
	}
}

// Collect drains an iterator into a slice (testing and small inputs).
func Collect(it EdgeIter) []graph.Edge {
	var out []graph.Edge
	for {
		e, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}
