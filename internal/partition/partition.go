// Package partition implements edge partitioning schemes for the
// simultaneous / coordinator model.
//
// The paper's central object is the random k-partitioning (its Definition in
// Section 1): every edge of G is assigned independently and uniformly at
// random to one of k machines. The package also provides adversarial
// partitioners used to reproduce the paper's motivating contrast (Section 1,
// Experiment E10): with adversarial partitioning, matching and vertex cover
// need Ω~(n^2)-size summaries, while random partitioning admits O~(n)-size
// coresets.
package partition

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/rng"
)

// RandomK assigns each edge independently and uniformly to one of k parts —
// the paper's random k-partitioning. The union of the parts is exactly the
// input edge multiset; the input slice is not modified. Panics if k <= 0.
func RandomK(edges []graph.Edge, k int, r *rng.RNG) [][]graph.Edge {
	if k <= 0 {
		panic("partition: RandomK with k <= 0")
	}
	parts := make([][]graph.Edge, k)
	// Pre-size parts to the expected load to avoid repeated growth.
	expect := len(edges)/k + 1
	for i := range parts {
		parts[i] = make([]graph.Edge, 0, expect+expect/4)
	}
	for _, e := range edges {
		i := r.Intn(k)
		parts[i] = append(parts[i], e)
	}
	return parts
}

// Assignment returns the machine index for every edge under a random
// k-partitioning, without materializing the parts. Used by experiments that
// need to know where a distinguished edge (e.g. e* in D_VC) landed.
func Assignment(m, k int, r *rng.RNG) []int {
	if k <= 0 {
		panic("partition: Assignment with k <= 0")
	}
	a := make([]int, m)
	for i := range a {
		a[i] = r.Intn(k)
	}
	return a
}

// mix64 is the splitmix64 finalizer: a bijective mixer with full avalanche,
// used to turn structured (seed, edge) keys into uniform machine choices.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashAssign returns the machine in [0, k) that edge e is routed to under a
// seeded hash partitioning. Unlike RandomK, which draws from a single
// sequential RNG and therefore depends on edge order, HashAssign is a pure
// function of (seed, canonical endpoints): any number of concurrent sharders
// can route disjoint slices of the stream and reproduce exactly the same
// k-partitioning, which is what the streaming runtime (internal/stream)
// needs. The per-edge choices are the splitmix64 finalizer over the mixed
// key, mapped to [0, k) by multiply-shift. Note that parallel edges share an
// identity and therefore a machine — the standard behaviour of hash-sharded
// deployments (and harmless for Theorems 1 and 2, whose guarantees are per
// edge-identity). Panics if k <= 0.
func HashAssign(e graph.Edge, k int, seed uint64) int {
	if k <= 0 {
		panic("partition: HashAssign with k <= 0")
	}
	c := e.Canon()
	key := mix64(seed) ^ (uint64(uint32(c.U))<<32 | uint64(uint32(c.V)))
	hi, _ := bits.Mul64(mix64(key), uint64(k))
	return int(hi)
}

// HashAssignAll returns the HashAssign machine index for every edge. It is
// the assignment-vector oracle the streaming/batch parity tests compare
// against.
func HashAssignAll(edges []graph.Edge, k int, seed uint64) []int {
	a := make([]int, len(edges))
	for i, e := range edges {
		a[i] = HashAssign(e, k, seed)
	}
	return a
}

// HashK materializes the hash k-partitioning of the edge multiset: the batch
// equivalent of streaming every edge through HashAssign. Within each part,
// edges keep their input order.
func HashK(edges []graph.Edge, k int, seed uint64) [][]graph.Edge {
	return ByAssignment(edges, k, HashAssignAll(edges, k, seed))
}

// ByAssignment materializes parts from an explicit assignment vector.
func ByAssignment(edges []graph.Edge, k int, assign []int) [][]graph.Edge {
	if len(assign) != len(edges) {
		panic("partition: assignment length mismatch")
	}
	parts := make([][]graph.Edge, k)
	for i, e := range edges {
		parts[assign[i]] = append(parts[assign[i]], e)
	}
	return parts
}

// Adversarial strategies. Each returns a k-partitioning designed to defeat
// summary-based protocols, illustrating why the paper's random-partition
// assumption is essential.

// AdversarialChunks splits the edge list into k contiguous chunks in input
// order. When the generator emits edges with locality (e.g. sorted by left
// endpoint), each machine sees a vertex-local subgraph.
func AdversarialChunks(edges []graph.Edge, k int) [][]graph.Edge {
	if k <= 0 {
		panic("partition: AdversarialChunks with k <= 0")
	}
	parts := make([][]graph.Edge, k)
	for i := range parts {
		lo := i * len(edges) / k
		hi := (i + 1) * len(edges) / k
		parts[i] = append([]graph.Edge(nil), edges[lo:hi]...)
	}
	return parts
}

// AdversarialByVertex routes all edges incident to the same lower endpoint
// to the same machine (round-robin over distinct endpoints after sorting).
// Each machine receives a union of full vertex neighborhoods: a classic
// worst case for matching coresets because machine-local maximum matchings
// can be forced to reuse the same few right vertices.
func AdversarialByVertex(edges []graph.Edge, k int) [][]graph.Edge {
	if k <= 0 {
		panic("partition: AdversarialByVertex with k <= 0")
	}
	sorted := append([]graph.Edge(nil), edges...)
	graph.SortEdges(sorted)
	parts := make([][]graph.Edge, k)
	for _, e := range sorted {
		i := int(e.U) % k
		parts[i] = append(parts[i], e)
	}
	return parts
}

// Verify checks that parts form an exact multiset partition of edges:
// every input edge appears in exactly one part, and no part contains an
// edge that was not in the input. Returns true iff the partition is valid.
func Verify(edges []graph.Edge, parts [][]graph.Edge) bool {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != len(edges) {
		return false
	}
	count := func(es []graph.Edge) map[graph.Edge]int {
		m := make(map[graph.Edge]int, len(es))
		for _, e := range es {
			m[e.Canon()]++
		}
		return m
	}
	want := count(edges)
	got := make(map[graph.Edge]int)
	for _, p := range parts {
		for _, e := range p {
			got[e.Canon()]++
		}
	}
	if len(want) != len(got) {
		return false
	}
	for e, c := range want {
		if got[e] != c {
			return false
		}
	}
	return true
}

// LoadStats returns the min, max and mean part sizes — used by tests to
// check the balance properties that the paper's Chernoff arguments rely on.
func LoadStats(parts [][]graph.Edge) (min, max int, mean float64) {
	if len(parts) == 0 {
		return 0, 0, 0
	}
	min = len(parts[0])
	total := 0
	for _, p := range parts {
		if len(p) < min {
			min = len(p)
		}
		if len(p) > max {
			max = len(p)
		}
		total += len(p)
	}
	return min, max, float64(total) / float64(len(parts))
}

// Names of the partitioning strategies, for experiment tables.
const (
	StrategyRandom   = "random"
	StrategyChunks   = "chunks"
	StrategyByVertex = "by-vertex"
)

// ByName partitions edges with the named strategy. Random uses r; the
// adversarial strategies are deterministic. Unknown names panic.
func ByName(name string, edges []graph.Edge, k int, r *rng.RNG) [][]graph.Edge {
	switch name {
	case StrategyRandom:
		return RandomK(edges, k, r)
	case StrategyChunks:
		return AdversarialChunks(edges, k)
	case StrategyByVertex:
		return AdversarialByVertex(edges, k)
	}
	panic("partition: unknown strategy " + name)
}
