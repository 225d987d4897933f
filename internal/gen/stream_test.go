package gen

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// GNPIter must replay GNP's draw sequence exactly: same seed, same edges.
func TestGNPIterMatchesGNP(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		seed uint64
	}{
		{500, 8.0 / 500, 1},
		{500, 8.0 / 500, 2},
		{100, 0.5, 3},
		{40, 1, 4}, // dense mode
		{10, 0, 5}, // empty
		{1, 0.5, 6},
		{0, 0.5, 7},
	}
	for _, c := range cases {
		want := GNP(c.n, c.p, rng.New(c.seed)).Edges
		got := Collect(GNPIter(c.n, c.p, rng.New(c.seed)))
		if len(want) != len(got) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("n=%d p=%v seed=%d: iter %d edges != batch %d edges", c.n, c.p, c.seed, len(got), len(want))
		}
	}
}

func TestGNPIterExhaustedStaysExhausted(t *testing.T) {
	it := GNPIter(50, 0.2, rng.New(9))
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if _, ok := it.Next(); ok {
		t.Fatal("iterator yielded an edge after exhaustion")
	}
}

func TestStarIterMatchesStar(t *testing.T) {
	for _, n := range []int{1, 2, 10} {
		want := Star(n).Edges
		got := Collect(StarIter(n))
		if len(want) != len(got) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("n=%d: star iter differs", n)
		}
	}
}

func TestGNPIterPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GNPIter(10, 1.5, rng.New(1))
}

// PowerlawIter must replay ChungLu's draw sequence exactly: same seed, same
// edges in the same order — including the Zipf weight draws, the per-row
// skip-sampling and the relabeling permutation.
func TestPowerlawIterMatchesChungLu(t *testing.T) {
	cases := []struct {
		n         int
		exponent  float64
		maxWeight int
		seed      uint64
	}{
		{2000, 2.0, 126, 1},
		{2000, 2.0, 126, 2},
		{500, 2.5, 40, 3},
		{50, 2.0, 100, 4}, // maxWeight > n: pair probabilities clamp at 1
		{3, 2.0, 1, 5},    // uniform weights
		{1, 2.0, 10, 6},   // no edges, no draws
		{0, 2.0, 10, 7},
	}
	for _, c := range cases {
		want := ChungLu(c.n, c.exponent, c.maxWeight, rng.New(c.seed)).Edges
		got := Collect(PowerlawIter(c.n, c.exponent, c.maxWeight, rng.New(c.seed)))
		if len(want) != len(got) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("n=%d maxW=%d seed=%d: iter %d edges != batch %d edges",
				c.n, c.maxWeight, c.seed, len(got), len(want))
		}
	}
}

func TestPowerlawIterExhaustedStaysExhausted(t *testing.T) {
	it := PowerlawIter(300, 2.0, 20, rng.New(9))
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if _, ok := it.Next(); ok {
		t.Fatal("iterator yielded an edge after exhaustion")
	}
}

func TestPowerlawIterPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PowerlawIter(10, 2.0, 0, rng.New(1))
}
