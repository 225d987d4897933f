package graph

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
)

// naiveRank is the rank of v read off its definition: v minus the number of
// distinct excluded IDs below it.
func naiveRank(v ID, excluded [][]ID) ID {
	below := map[ID]bool{}
	for _, set := range excluded {
		for _, x := range set {
			if x < v {
				below[x] = true
			}
		}
	}
	return v - ID(len(below))
}

// A ranked edge set is the plain edge set of the ranked edges, byte for byte,
// and decodes back to the edges themselves: on random excluded sets that
// overlap (an ID in two sets counts once), at both ends of the ID range, and
// with nothing excluded at all.
func TestRankedEdgeSetRoundTrip(t *testing.T) {
	r := rng.New(5)
	type rcase struct {
		edges    []Edge
		excluded [][]ID
	}
	cases := []rcase{
		{nil, [][]ID{{1, 2}}},
		{[]Edge{{0, 0}}, nil},
		{[]Edge{{0, 0}}, [][]ID{nil, {}}},
		{[]Edge{{0, 4}, {0, 4}, {4, 4}}, [][]ID{{1, 2, 3}, {2, 3, 5}}},
		{[]Edge{{0, 1}, {0, MaxID}, {1, 1}, {1, 1}, {MaxID, MaxID}}, [][]ID{{2, 63, 64, 200}}},
		{[]Edge{{0, 6}, {3, 1<<20 + 1}, {6, 1<<20 + 1}}, [][]ID{{5, 1 << 20}, {5}}},
	}
	for i := 0; i < 400; i++ {
		// Half the universes are small, where the excluded IDs are dense;
		// half are wide, where they are sparse and clustered.
		n := 1 + r.Intn(500)
		if i%2 == 1 {
			n = 1 << (12 + r.Intn(11))
		}
		var excluded [][]ID
		out := make(map[ID]bool)
		for l := r.Intn(4); l > 0; l-- {
			var set []ID
			base := r.Intn(n)
			for j := r.Intn(min(n/4, 200) + 2); j > 0; j-- {
				v := ID(r.Intn(n))
				if r.Intn(2) == 0 {
					v = ID(min(n-1, base+r.Intn(64)))
				}
				set = append(set, v)
				out[v] = true
			}
			slices.Sort(set)
			excluded = append(excluded, set)
		}
		var edges []Edge
		for j := r.Intn(300); j > 0; j-- {
			if e := (Edge{ID(r.Intn(n)), ID(r.Intn(n))}.Canon()); !out[e.U] && !out[e.V] {
				edges = append(edges, e)
			}
		}
		SortEdges(edges)
		cases = append(cases, rcase{edges, excluded})
	}
	for i, c := range cases {
		ranked := make([]Edge, len(c.edges))
		for j, e := range c.edges {
			ranked[j] = Edge{naiveRank(e.U, c.excluded), naiveRank(e.V, c.excluded)}
		}
		wire := AppendRankedEdgeSet([]byte{0xAA}, c.edges, c.excluded)[1:]
		if want := AppendEdgeSet(nil, ranked); !bytes.Equal(wire, want) {
			t.Fatalf("case %d: %x, want the plain set of the ranks %x", i, wire, want)
		}
		if got := RankedEdgeSetBytes(c.edges, c.excluded); got != len(wire) {
			t.Fatalf("case %d: RankedEdgeSetBytes %d, encoding is %d", i, got, len(wire))
		}
		got, rest, err := DecodeRankedEdgeSet(append(slices.Clip(wire), 0xEE), c.excluded)
		if err != nil || !bytes.Equal(rest, []byte{0xEE}) {
			t.Fatalf("case %d: err %v, rest %x", i, err, rest)
		}
		if len(c.edges) == 0 && got != nil || len(c.edges) > 0 && !reflect.DeepEqual(got, c.edges) {
			t.Fatalf("case %d: decoded %v, want %v", i, got, c.edges)
		}
	}
}

// An excluded endpoint has no rank: both encoders panic naming it.
func TestRankedEdgeSetPanicsOnExcludedEndpoint(t *testing.T) {
	excluded := [][]ID{{2, 9}, {70}}
	for name, fn := range map[string]func(){
		"AppendRankedEdgeSet U": func() { AppendRankedEdgeSet(nil, []Edge{{0, 1}, {9, 13}}, excluded) },
		"AppendRankedEdgeSet V": func() { AppendRankedEdgeSet(nil, []Edge{{0, 70}}, excluded) },
		"RankedEdgeSetBytes":    func() { RankedEdgeSetBytes([]Edge{{2, 2}}, excluded) },
		// 9 ranks as 10 does, so these ranks fall out of (U, V) order.
		"out of rank order": func() { AppendRankedEdgeSet(nil, []Edge{{9, 20}, {10, 11}}, excluded) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "is an excluded ID") {
					t.Fatalf("%s: recovered %q, want the excluded-endpoint panic", name, msg)
				}
			}()
			fn()
		}()
	}
}

// A rank is below MaxID+1, but its ID is the rank plus the excluded IDs below
// it: one that passes MaxID is corrupt, and refusing it allocates for the
// excluded IDs in hand, never for the stride the set claims.
func TestRankedEdgeSetRejectsIDPastMaxID(t *testing.T) {
	excluded := [][]ID{{MaxID - 7}} // a huge excluded ID, a one-entry table
	hostile := AppendEdgeSet(nil, []Edge{{0, MaxID - 1}, {MaxID, MaxID}})
	const runs = 64
	var before, after runtime.MemStats
	var err error
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _, err = DecodeRankedEdgeSet(hostile, excluded)
	}
	runtime.ReadMemStats(&after)
	var ire *IDRangeError
	if !errors.As(err, &ire) || ire.ID != int64(MaxID)+1 {
		t.Fatalf("err %v, want *IDRangeError naming MaxID+1", err)
	}
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 1<<10 {
		t.Fatalf("refusing a %d-byte set allocated %d bytes", len(hostile), got)
	}
}
