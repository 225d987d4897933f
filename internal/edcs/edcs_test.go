package edcs

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
)

func TestParamsValidate(t *testing.T) {
	for _, p := range []Params{{Beta: 1, BetaMinus: 0}, {Beta: 4, BetaMinus: 4}, {Beta: 4, BetaMinus: 5}, {Beta: 0, BetaMinus: 0}} {
		if err := p.Validate(); err == nil {
			t.Fatalf("params %+v accepted", p)
		}
	}
	if err := (Params{Beta: 2, BetaMinus: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsForBeta(t *testing.T) {
	for _, beta := range []int{2, 3, 4, 16, 64, 1000} {
		p := ParamsForBeta(beta)
		if err := p.Validate(); err != nil {
			t.Fatalf("beta %d: %v", beta, err)
		}
		if p.Beta != beta {
			t.Fatalf("beta %d mangled to %d", beta, p.Beta)
		}
	}
	if p := ParamsForBeta(0); p.Beta != DefaultBeta {
		t.Fatalf("beta 0 should fall back to default, got %d", p.Beta)
	}
}

// TestInvariantsHold: after inserting an arbitrary edge sequence, both EDCS
// degree constraints must hold over every stored edge — across densities
// (sparse partitions where H swallows everything, dense ones where repair
// churns) and parameter choices.
func TestInvariantsHold(t *testing.T) {
	for _, tc := range []struct {
		n    int
		deg  float64
		p    Params
		seed uint64
	}{
		{300, 4, ParamsForBeta(8), 1},
		{300, 30, ParamsForBeta(8), 2},
		{200, 60, Params{Beta: 4, BetaMinus: 2}, 3},
		{500, 12, ParamsForBeta(DefaultBeta), 4},
		{120, 100, Params{Beta: 2, BetaMinus: 1}, 5},
	} {
		g := gen.GNP(tc.n, tc.deg/float64(tc.n), rng.New(tc.seed))
		s := New(g.N, tc.p)
		for _, e := range g.Edges {
			s.Insert(e)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("n=%d deg=%g %+v: %v", tc.n, tc.deg, tc.p, err)
		}
		if s.Stored() != g.M() {
			t.Fatalf("stored %d of %d edges", s.Stored(), g.M())
		}
		if s.Size() != len(s.Edges()) {
			t.Fatalf("Size %d != len(Edges) %d", s.Size(), len(s.Edges()))
		}
		// |H| <= n*beta/2: each H-edge consumes 2 units of total degree and
		// every vertex's H-degree is < beta (P1 with a positive partner).
		if 2*s.Size() > g.N*tc.p.Beta {
			t.Fatalf("|H| = %d exceeds n*beta/2 = %d", s.Size(), g.N*tc.p.Beta/2)
		}
	}
}

// TestDeterministic: the EDCS is a pure function of the arrival sequence.
func TestDeterministic(t *testing.T) {
	g := gen.GNP(250, 0.2, rng.New(7))
	p := ParamsForBeta(8)
	a := Coreset(g.N, g.Edges, p)
	b := Coreset(g.N, g.Edges, p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same arrival order produced different EDCSs")
	}
}

// TestDenseTrimming: on a dense partition the EDCS must actually discard
// edges (that is the point of the summary), while a bounded-degree partition
// is kept whole — P2 forces every edge into H when degree sums stay below β⁻.
func TestDenseTrimming(t *testing.T) {
	p := ParamsForBeta(8) // β⁻ = 6
	dense := gen.GNP(200, 0.5, rng.New(9))
	if cs := Coreset(dense.N, dense.Edges, p); len(cs) >= dense.M() {
		t.Fatalf("dense graph: EDCS kept all %d edges", dense.M())
	}
	// A path has maximum degree 2, so every degree sum is at most 4 < β⁻.
	var path []graph.Edge
	for v := graph.ID(0); v < 99; v++ {
		path = append(path, graph.Edge{U: v, V: v + 1})
	}
	if cs := Coreset(100, path, p); len(cs) != len(path) {
		t.Fatalf("path: EDCS dropped edges (%d of %d) although P2 forces them in", len(cs), len(path))
	}
}

// TestEmptyAndTiny: degenerate inputs produce sane, non-nil coresets.
func TestEmptyAndTiny(t *testing.T) {
	p := ParamsForBeta(DefaultBeta)
	cs := Coreset(0, nil, p)
	if cs == nil || len(cs) != 0 {
		t.Fatalf("empty input: coreset = %v", cs)
	}
	cs = Coreset(2, []graph.Edge{{U: 0, V: 1}}, p)
	if len(cs) != 1 {
		t.Fatalf("single edge not kept: %v", cs)
	}
}

// TestMatchingApproximation: the matching composed from per-machine EDCS
// coresets must be at least half the maximum (the union contains a maximal
// matching certificate far below what the 3/2+ε theory promises, so this is
// a conservative floor) and, with the default β, must not lose to the
// one-pass greedy combiner on the SPAA'17 coresets.
func TestMatchingApproximation(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g := gen.GNP(600, 20.0/600, rng.New(seed))
		opt := matching.Maximum(g.N, g.Edges).Size()
		if opt == 0 {
			t.Fatal("degenerate instance")
		}
		const k = 4
		parts := partition.HashK(g.Edges, k, seed)
		edcsCoresets := make([][]graph.Edge, k)
		for i, part := range parts {
			edcsCoresets[i] = Coreset(g.N, part, ParamsForBeta(DefaultBeta))
		}
		m := core.ComposeMatching(g.N, edcsCoresets)
		if err := matching.Verify(g.N, g.Edges, m); err != nil {
			t.Fatalf("seed %d: composed matching invalid: %v", seed, err)
		}
		if 2*m.Size() < opt {
			t.Fatalf("seed %d: EDCS matching %d below half of optimum %d", seed, m.Size(), opt)
		}

		// Same hash partitioning, SPAA'17 maximum-matching coresets, greedy
		// combiner: the EDCS exact-compose must match or beat it.
		coresets := make([][]graph.Edge, k)
		for i, part := range parts {
			coresets[i] = core.MatchingCoreset(g.N, part)
		}
		greedy := core.GreedyMatchCombine(g.N, coresets)
		if m.Size() < greedy.Size() {
			t.Fatalf("seed %d: EDCS matching %d below greedy-combine %d", seed, m.Size(), greedy.Size())
		}
	}
}

// TestCoresetComposesWithCombiners: EDCS coresets are plain edge lists, so
// both existing combiners consume them directly.
func TestCoresetComposesWithCombiners(t *testing.T) {
	g := gen.GNP(400, 30.0/400, rng.New(11))
	const k = 3
	parts := partition.HashK(g.Edges, k, 11)
	coresets := make([][]graph.Edge, k)
	for i, part := range parts {
		coresets[i] = Coreset(g.N, part, ParamsForBeta(16))
	}
	exact := core.ComposeMatching(g.N, coresets)
	greedy := core.GreedyMatchCombine(g.N, coresets)
	if exact.Size() == 0 || greedy.Size() == 0 {
		t.Fatal("combiners produced empty matchings")
	}
	if exact.Size() < greedy.Size() {
		t.Fatalf("exact compose %d below greedy %d on the same union", exact.Size(), greedy.Size())
	}
}

// TestRemovalsTelemetry: dense inputs must show repair churn; the counter is
// the EDCS analogue of the other builders' live telemetry.
func TestRemovalsTelemetry(t *testing.T) {
	// β⁻ = β − 1 makes insertions aggressive enough that later insertions
	// push earlier H-edges over β, forcing repair removals.
	g := gen.GNP(150, 0.6, rng.New(13))
	s := New(g.N, Params{Beta: 4, BetaMinus: 3})
	for _, e := range g.Edges {
		s.Insert(e)
	}
	if s.Removals() == 0 {
		t.Fatal("dense instance triggered no repair removals")
	}
}

// TestSelfLoopsDropped: a self-loop can never be used by a matching, and
// pre-fix it double-counted one endpoint's H-degree (addH incremented
// deg[e.U] and deg[e.V] even when they were the same vertex), skewing every
// P1/P2 sum that vertex participates in. Loops must be dropped at Insert:
// they never enter the store, never move a degree, and a build with loops
// interleaved is identical to the loop-free build.
func TestSelfLoopsDropped(t *testing.T) {
	p := ParamsForBeta(8)
	s := New(4, p)
	s.Insert(graph.Edge{U: 2, V: 2})
	if s.Size() != 0 || s.Stored() != 0 {
		t.Fatalf("self-loop entered the subgraph: |H|=%d stored=%d", s.Size(), s.Stored())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A star centered on vertex 0, with self-loops on the center interleaved
	// between every real arrival: the loop-free build is the oracle. Pre-fix,
	// each loop added 2 to deg[0] and P2 stopped forcing later star edges
	// into H, so the coresets diverged.
	const n = 20
	loopy, clean := New(n, p), New(n, p)
	for v := graph.ID(1); v < n; v++ {
		loopy.Insert(graph.Edge{U: 0, V: 0})
		loopy.Insert(graph.Edge{U: 0, V: v})
		clean.Insert(graph.Edge{U: 0, V: v})
	}
	if err := loopy.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loopy.Edges(), clean.Edges()) {
		t.Fatalf("self-loops changed the coreset: %v vs %v", loopy.Edges(), clean.Edges())
	}
}

// TestDuplicateEdgesDropped: pre-fix, parallel copies of an edge got
// distinct indices and could all enter H, inflating both endpoints'
// H-degrees and the coreset byte charge. Duplicates (in either orientation)
// must be dropped at Insert — which the multi-round driver depends on, since
// round-r unions can re-feed edges.
func TestDuplicateEdgesDropped(t *testing.T) {
	p := ParamsForBeta(8) // β⁻ = 6 admits several parallel copies pre-fix
	s := New(2, p)
	for i := 0; i < 3; i++ {
		s.Insert(graph.Edge{U: 0, V: 1})
		s.Insert(graph.Edge{U: 1, V: 0}) // reversed orientation, same edge
	}
	if s.Size() != 1 || s.Stored() != 1 {
		t.Fatalf("duplicates entered the subgraph: |H|=%d stored=%d", s.Size(), s.Stored())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if cs := s.Edges(); len(cs) != 1 || cs[0] != (graph.Edge{U: 0, V: 1}) {
		t.Fatalf("coreset = %v, want the single canonical edge", cs)
	}

	// Replaying a whole graph twice must be a no-op — exactly the multi-round
	// situation where a union is re-fed into a fresh build mid-stream.
	g := gen.GNP(200, 0.2, rng.New(3))
	once, twice := New(g.N, p), New(g.N, p)
	for _, e := range g.Edges {
		once.Insert(e)
		twice.Insert(e)
	}
	for _, e := range g.Edges {
		twice.Insert(e)
	}
	if err := twice.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(once.Edges(), twice.Edges()) {
		t.Fatal("replaying the edge list changed the coreset")
	}
}

// TestCheckInvariantsCatchesHygieneViolations: the oracle must reject a
// store containing a self-loop or a duplicate, and a tracked degree table
// that disagrees with a recount — the symptoms the Insert hygiene exists to
// prevent — and, now that the storage is blocks, an index, a chain or an
// entry that disagrees with the rest. store is Insert minus the hygiene
// check and the index entry of an edge between two vertices that were
// already heavy, so it plants exactly the arrivals Insert would have
// dropped. The fixture's hubs 0, 1 and 2 are joined pairwise and then each
// gain heavyDeg leaves, so their chains run to three blocks and the index
// holds exactly the three joins, entered by the walks as the hubs turned
// heavy.
func TestCheckInvariantsCatchesHygieneViolations(t *testing.T) {
	p := ParamsForBeta(8)
	corrupt := func(mutate func(s *Subgraph)) error {
		s := New(64, p)
		s.Insert(graph.Edge{U: 0, V: 1})
		s.Insert(graph.Edge{U: 2, V: 0})
		s.Insert(graph.Edge{U: 1, V: 2})
		for v := graph.ID(3); v < 3+heavyDeg; v++ {
			for h := graph.ID(0); h < 3; h++ {
				s.Insert(graph.Edge{U: h, V: v})
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("uncorrupted subgraph rejected: %v", err)
		}
		if s.head[0] == s.tail[0] || s.Size() == 0 || s.Size() == s.Stored() || s.indexed != 3 {
			t.Fatal("fixture lost its shape: want multi-block hub chains, three indexed joins and edges both in and out of H")
		}
		mutate(s)
		return s.CheckInvariants()
	}
	// slotAfter returns the empty slot that a probe for c ends on.
	slotAfter := func(s *Subgraph, c graph.Edge) uint64 {
		i, found := s.find(c)
		for found {
			i = (i + 1) & uint64(len(s.index)-1)
			found = s.index[i] != 0
		}
		return i
	}
	plant := func(s *Subgraph, i uint64, l loc) {
		s.index[i] = l
		s.indexed++
	}
	for _, tc := range []struct {
		name   string
		mutate func(s *Subgraph)
	}{
		{"stored self-loop", func(s *Subgraph) { s.store(graph.Edge{U: 3, V: 3}) }},
		{"stored duplicate", func(s *Subgraph) { s.store(graph.Edge{U: 1, V: 0}) }},
		{"indexed duplicate", func(s *Subgraph) {
			// A stored duplicate that the index knows about too (in the
			// slot a probe for it ends on) names its edge a second time.
			lu, _ := s.store(graph.Edge{U: 1, V: 0})
			plant(s, slotAfter(s, graph.Edge{U: 0, V: 1}), lu)
		}},
		// Skewed bookkeeping, the pre-fix self-loop symptom.
		{"skewed H-degree table", func(s *Subgraph) { s.deg[60] = 2 }},
		{"skewed stored-degree table", func(s *Subgraph) { s.sdeg[3]++ }},
		{"edge counter off by one", func(s *Subgraph) { s.stored++ }},
		{"index counter off by one", func(s *Subgraph) { s.indexed++ }},
		{"heavy–heavy edge missing from the index", func(s *Subgraph) {
			i, _ := s.find(graph.Edge{U: 1, V: 2})
			s.index[i] = 0
			s.indexed--
		}},
		{"index entry naming the wrong edge", func(s *Subgraph) {
			i, _ := s.find(graph.Edge{U: 1, V: 2})
			j, _ := s.find(graph.Edge{U: 0, V: 1})
			s.index[i] = s.index[j]
		}},
		{"heavy–heavy edge indexed from both sides", func(s *Subgraph) {
			plant(s, slotAfter(s, graph.Edge{U: 0, V: 1}), s.twin(1, ^0))
		}},
		{"stale index entry", func(s *Subgraph) {
			// The entry sits half the table away from where it was put, past
			// empty slots a probe for its edge stops at.
			i, _ := s.find(graph.Edge{U: 0, V: 1})
			far := (i + uint64(len(s.index))/2) & uint64(len(s.index)-1)
			if s.index[far] != 0 || s.index[(i+1)&uint64(len(s.index)-1)] != 0 {
				t.Fatal("fixture lost its shape: want empty slots after and across from the 0–1 entry")
			}
			s.index[i], s.index[far] = 0, s.index[i]
		}},
		{"light edge in the index", func(s *Subgraph) {
			plant(s, slotAfter(s, graph.Edge{U: 0, V: 5}), s.twin(0, 5))
		}},
		{"twins disagreeing on the H bit", func(s *Subgraph) {
			b, j := s.entry(s.twin(1, 2))
			b.inH ^= 1 << j
		}},
		{"flipped orientation", func(s *Subgraph) {
			b, j := s.entry(s.twin(1, 2))
			b.ent[j] = ^b.ent[j]
		}},
		{"lost entry", func(s *Subgraph) { s.at(s.tail[0]).count-- }},
		{"wrong block owner", func(s *Subgraph) { s.at(s.head[0]).owner = 5 }},
		{"count past capacity", func(s *Subgraph) { s.at(s.tail[0]).count = blockCap + 1 }},
		{"partly filled block before the tail", func(s *Subgraph) { s.at(s.head[0]).count-- }},
		{"H bit past the count", func(s *Subgraph) { s.at(s.tail[0]).inH |= 1 << (blockCap - 1) }},
		{"broken chain link", func(s *Subgraph) { s.at(s.head[0]).next = 0 }},
		{"chain running into another vertex's block", func(s *Subgraph) { s.at(s.tail[0]).next = s.head[1] }},
		{"wrong tail pointer", func(s *Subgraph) { s.tail[0] = s.head[0] }},
		{"edge missing from an endpoint's chain", func(s *Subgraph) { s.head[3], s.tail[3] = 0, 0 }},
	} {
		if err := corrupt(tc.mutate); err == nil {
			t.Errorf("%s passed CheckInvariants", tc.name)
		} else if testing.Verbose() {
			t.Logf("%s: %v", tc.name, err)
		}
	}
}

// arrivalStream draws a hostile arrival sequence: endpoints from a universe
// of nVerts (so duplicates, in both orientations, and self-loops are
// common), with an occasional vertex far beyond it.
func arrivalStream(r *rng.RNG, count, nVerts int) []graph.Edge {
	edges := make([]graph.Edge, 0, count)
	for len(edges) < count {
		e := graph.Edge{U: graph.ID(r.Intn(nVerts)), V: graph.ID(r.Intn(nVerts))}
		switch r.Intn(16) {
		case 0:
			e.V = e.U
		case 1:
			e.V = graph.ID(nVerts + r.Intn(4*nVerts))
		case 2:
			if len(edges) > 0 {
				e = edges[r.Intn(len(edges))]
			}
		case 3:
			if len(edges) > 0 {
				d := edges[r.Intn(len(edges))]
				e = graph.Edge{U: d.V, V: d.U}
			}
		}
		edges = append(edges, e)
	}
	return edges
}

// hubStream is arrivalStream with about half the edges moved onto hub vertex
// 0, as their U or their V: the hub's chain grows long and holds entries of
// both orientations, so flips look up twins in it from either side.
func hubStream(r *rng.RNG, count, nVerts int) []graph.Edge {
	edges := arrivalStream(r, count, nVerts)
	for i := range edges {
		switch r.Intn(4) {
		case 0:
			edges[i].U = 0
		case 1:
			edges[i].V = 0
		}
	}
	return edges
}

// crossingStream drives vertices across heavyDeg with duplicates, in both
// orientations, before, at and after each crossing. Hubs 0 and 1 gain
// heavyDeg−1 edges each, one of them to hub 2; duplicates of their edges
// arrive while they sit one short of heavy; then the edge 0–1 turns both
// heavy on one arrival (crossingJoin is its place in the stream) and comes
// again both ways. Hub 2 turns heavy next, its walk indexing its edges to
// the two heavy hubs, and a tail of random edges over 60 vertices takes
// more of them across. Every new edge is followed by a random earlier
// arrival, reversed half the time. All IDs are below 64, so the stream is a
// FuzzEDCSInsert seed as it stands.
func crossingStream(r *rng.RNG) []graph.Edge {
	var edges []graph.Edge
	feed := func(u, v graph.ID) {
		edges = append(edges, graph.Edge{U: u, V: v})
		d := edges[r.Intn(len(edges))]
		if r.Intn(2) == 0 {
			d = graph.Edge{U: d.V, V: d.U}
		}
		edges = append(edges, d)
	}
	feed(2, 0)
	feed(1, 2)
	for i := graph.ID(0); i < heavyDeg-2; i++ {
		feed(0, 3+2*i)
		feed(4+2*i, 1)
	}
	edges = append(edges, graph.Edge{U: 0, V: 2}, graph.Edge{U: 2, V: 0}, graph.Edge{U: 1, V: 2}, graph.Edge{U: 2, V: 1})
	edges = append(edges, graph.Edge{U: 1, V: 0}, graph.Edge{U: 0, V: 1}, graph.Edge{U: 1, V: 0})
	for i := graph.ID(0); i < heavyDeg-2; i++ {
		feed(2, 3+i)
	}
	edges = append(edges, graph.Edge{U: 0, V: 2}, graph.Edge{U: 2, V: 1})
	for range 400 {
		feed(graph.ID(r.Intn(60)), graph.ID(r.Intn(60)))
	}
	return edges
}

// crossingJoin is the place of the arrival 1–0 in crossingStream: two
// leading edges and heavyDeg−2 leaves per hub, each followed by a
// duplicate, then four duplicates at the crossing.
const crossingJoin = 2*(2+2*(heavyDeg-2)) + 4

// TestCrossingStreamShape: the arrival at crossingJoin turns hubs 0 and 1
// heavy together, and the one after it is dropped as a duplicate by the
// index.
func TestCrossingStreamShape(t *testing.T) {
	arrivals := crossingStream(rng.New(1))
	s := New(0, ParamsForBeta(16))
	for _, e := range arrivals[:crossingJoin] {
		s.Insert(e)
	}
	if s.sdeg[0] != heavyDeg-1 || s.sdeg[1] != heavyDeg-1 || s.indexed != 0 {
		t.Fatalf("before the join: stored degrees %d and %d, %d indexed; want %d, %d, 0", s.sdeg[0], s.sdeg[1], s.indexed, heavyDeg-1, heavyDeg-1)
	}
	s.Insert(arrivals[crossingJoin])
	if s.sdeg[0] != heavyDeg || s.sdeg[1] != heavyDeg || s.indexed != 1 {
		t.Fatalf("after the join: stored degrees %d and %d, %d indexed; want %d, %d, 1", s.sdeg[0], s.sdeg[1], s.indexed, heavyDeg, heavyDeg)
	}
	stored := s.Stored()
	s.Insert(arrivals[crossingJoin+1])
	if s.Stored() != stored {
		t.Fatal("the join's duplicate was stored")
	}
}

// TestDifferentialAgainstReference: the block-chain Subgraph and the
// map-based reference it replaced must be indistinguishable from outside —
// same H, same counters — on arrival sequences full of duplicates,
// self-loops and vertices past the hint (and with no hint at all); on short
// runs the comparison and the invariant oracle run after every prefix. Long
// runs cross several chunk boundaries, and the dense one index doublings;
// the sparse one with a hint has about one edge per vertex, so nearly every
// block is a chain's only, partly filled one, and the hub run walks chains
// hundreds of blocks long. The crossing run re-feeds edges in both
// orientations as their endpoints turn heavy, one at a time and two at once.
func TestDifferentialAgainstReference(t *testing.T) {
	same := func(t *testing.T, s *Subgraph, ref *refSubgraph, at int) {
		t.Helper()
		if !reflect.DeepEqual(s.Edges(), ref.Edges()) {
			t.Fatalf("after %d arrivals: H diverged from the reference", at)
		}
		got := [5]int{s.Size(), s.Stored(), s.Removals(), s.RepairIters(), s.PeakSize()}
		want := [5]int{ref.size, len(ref.edges), ref.removals, ref.repairIters, ref.peak}
		if got != want {
			t.Fatalf("after %d arrivals: {size stored removals repairIters peak} = %v, reference %v", at, got, want)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after %d arrivals: %v", at, err)
		}
		if err := ref.CheckInvariants(); err != nil {
			t.Fatalf("after %d arrivals: %v", at, err)
		}
	}
	crossing := func(r *rng.RNG, _, _ int) []graph.Edge { return crossingStream(r) }
	for _, tc := range []struct {
		name                 string
		count, nVerts, nHint int
		p                    Params
		everyPrefix          bool
		draw                 func(r *rng.RNG, count, nVerts int) []graph.Edge
	}{
		{"short-no-hint", 400, 12, 0, Params{Beta: 4, BetaMinus: 3}, true, arrivalStream},
		{"short-hint", 400, 12, 12, ParamsForBeta(8), true, arrivalStream},
		{"short-small-hint", 600, 40, 7, Params{Beta: 2, BetaMinus: 1}, true, arrivalStream},
		{"long-dense", 40000, 240, 240, Params{Beta: 6, BetaMinus: 5}, false, arrivalStream},
		{"long-sparse-no-hint", 20480, 4000, 0, ParamsForBeta(16), false, arrivalStream},
		{"long-sparse-hint", 20480, 40960, 40960, ParamsForBeta(16), false, arrivalStream},
		{"star-chords", 20480, 3000, 3000, ParamsForBeta(16), false, hubStream},
		{"crossing", 0, 0, 0, ParamsForBeta(16), true, crossing},
		{"crossing-small-beta", 0, 0, 8, Params{Beta: 4, BetaMinus: 3}, true, crossing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				arrivals := tc.draw(rng.New(seed), tc.count, tc.nVerts)
				s, ref := New(tc.nHint, tc.p), newRef(tc.nHint, tc.p)
				for i, e := range arrivals {
					s.Insert(e)
					ref.Insert(e)
					if tc.everyPrefix {
						same(t, s, ref, i+1)
					}
				}
				same(t, s, ref, len(arrivals))
				if !tc.everyPrefix && len(s.chunks) < 2 {
					t.Fatalf("long run stored %d edges in %d blocks: no chunk boundary crossed", s.Stored(), s.blocks)
				}
			}
		})
	}
}

// TestInsertAllocations guards the builder's memory model: storage grows by
// whole chunks, and the index, which holds only edges between two heavy
// vertices, by doublings, so 100k inserts (with repair churn) must cost
// fewer than one allocation per hundred edges. The map-and-slices builder
// this replaced paid more than one per edge.
func TestInsertAllocations(t *testing.T) {
	g := gen.GNP(4000, 50.0/4000, rng.New(5))
	if g.M() < 100000 {
		t.Fatalf("only %d edges drawn", g.M())
	}
	edges := g.Edges[:100000]
	allocs := testing.AllocsPerRun(3, func() {
		s := New(g.N, ParamsForBeta(16))
		for _, e := range edges {
			s.Insert(e)
		}
		if s.Stored() != len(edges) || s.Removals() == 0 {
			t.Fatalf("stored %d of %d edges, %d removals", s.Stored(), len(edges), s.Removals())
		}
	})
	if allocs >= float64(len(edges))/100 {
		t.Fatalf("%d inserts cost %.0f allocations, want < %d", len(edges), allocs, len(edges)/100)
	}
	t.Logf("%d inserts: %.0f allocations", len(edges), allocs)
}

// TestGrowWithoutHint: inserting past the size hint must grow the tables
// instead of panicking (headerless sources discover n late).
func TestGrowWithoutHint(t *testing.T) {
	s := New(0, ParamsForBeta(8))
	s.Insert(graph.Edge{U: 5, V: 9})
	s.Insert(graph.Edge{U: 900, V: 2})
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 2 {
		t.Fatalf("|H| = %d, want 2", s.Size())
	}
}
