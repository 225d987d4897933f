package edcs

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// decodeArrivals turns fuzz bytes into an edge arrival sequence over a small
// vertex universe. Consecutive byte pairs become endpoints, so the corpus
// naturally contains self-loops (equal bytes) and parallel duplicates
// (repeated pairs, both orientations) — exactly the arrivals the insertion
// hygiene must absorb.
func decodeArrivals(data []byte) []graph.Edge {
	edges := make([]graph.Edge, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		edges = append(edges, graph.Edge{U: graph.ID(data[i] % 64), V: graph.ID(data[i+1] % 64)})
	}
	return edges
}

// FuzzEDCSInsert feeds arbitrary arrival sequences — self-loops, duplicates,
// any orientation — through Insert and checks the properties every runtime
// leans on: insertion terminates, the invariant oracle (CheckInvariants:
// P1/P2, edge hygiene, degree recount, block storage) passes, the coreset is
// a pure function of the arrival order (a replay builds the identical H),
// and the build is indistinguishable from the map-and-slices reference
// (refSubgraph) fed the same arrivals: the same H and the same counters.
func FuzzEDCSInsert(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 2, 0, 1}, uint8(8))         // duplicate both ways + loop
	f.Add([]byte{3, 3, 3, 3, 3, 4, 4, 3}, uint8(2))         // loop spam around one vertex
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5}, uint8(200)) // path, large beta
	f.Add([]byte{}, uint8(0))
	var crossing []byte // hubs turning heavy, two on one arrival, amid duplicates
	for _, e := range crossingStream(rng.New(1)) {
		crossing = append(crossing, byte(e.U), byte(e.V))
	}
	f.Add(crossing, uint8(14))
	f.Fuzz(func(t *testing.T, data []byte, betaRaw uint8) {
		if len(data) > 1<<12 {
			t.Skip("bound the per-input work")
		}
		p := ParamsForBeta(2 + int(betaRaw)%62)
		edges := decodeArrivals(data)

		s, ref := New(0, p), newRef(0, p)
		for _, e := range edges {
			s.Insert(e)
			ref.Insert(e)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("params %+v, %d arrivals: %v", p, len(edges), err)
		}
		if s.Size() != len(s.Edges()) {
			t.Fatalf("Size %d != len(Edges) %d", s.Size(), len(s.Edges()))
		}
		if s.Stored() > len(edges) {
			t.Fatalf("stored %d of %d arrivals", s.Stored(), len(edges))
		}
		if !reflect.DeepEqual(s.Edges(), ref.Edges()) {
			t.Fatalf("params %+v, %d arrivals: H differs from the reference's", p, len(edges))
		}
		got := [5]int{s.Size(), s.Stored(), s.Removals(), s.RepairIters(), s.PeakSize()}
		want := [5]int{ref.size, len(ref.edges), ref.removals, ref.repairIters, ref.peak}
		if got != want {
			t.Fatalf("params %+v, %d arrivals: {size stored removals repairIters peak} = %v, reference %v", p, len(edges), got, want)
		}

		replay := New(0, p)
		for _, e := range edges {
			replay.Insert(e)
		}
		if !reflect.DeepEqual(s.Edges(), replay.Edges()) {
			t.Fatal("same arrival order produced different EDCSs")
		}
	})
}
