package graph

import (
	"strings"
	"testing"
)

// Every request is served from a class whose capacity is at least the
// request and at most 1/16 above it, classes grow with their capacity, and a
// slice handed back serves the requests of its class.
func TestSlabClasses(t *testing.T) {
	prevClass, prevCap := 0, 0
	for n := 1; n < 1<<20; n += 1 + n/97 {
		class, capacity, ok := slabClass(n)
		if !ok {
			t.Fatalf("n=%d: no class", n)
		}
		if capacity < n || capacity-n > n/16 {
			t.Fatalf("n=%d: class capacity %d", n, capacity)
		}
		if class < prevClass || class == prevClass && capacity != prevCap || class > prevClass && capacity <= prevCap {
			t.Fatalf("n=%d: class %d of capacity %d after class %d of capacity %d", n, class, capacity, prevClass, prevCap)
		}
		if c, cc, _ := slabClass(capacity); c != class || cc != capacity {
			t.Fatalf("n=%d: capacity %d is in class %d, not %d", n, capacity, c, class)
		}
		prevClass, prevCap = class, capacity
	}
	if _, _, ok := slabClass(1 << 32); !ok {
		t.Fatal("2^32 elements have no class")
	}
	if _, _, ok := slabClass(1<<33 + 1); ok {
		t.Fatal("2^33+1 elements have a class")
	}
}

func TestSlabGetPut(t *testing.T) {
	if e := GetEdges(0); e == nil || len(e) != 0 {
		t.Fatalf("GetEdges(0) = %v, want an empty non-nil slice", e)
	}
	for _, n := range []int{1, 15, 16, 17, 1000, 20_000, 20_480} {
		e := GetEdges(n)
		if len(e) != n || cap(e)-n > n/16 {
			t.Fatalf("GetEdges(%d): len %d cap %d", n, len(e), cap(e))
		}
		PutEdges(e)
		tab := GetInt32s(n)
		if len(tab) != n || cap(tab)-n > n/16 {
			t.Fatalf("GetInt32s(%d): len %d cap %d", n, len(tab), cap(tab))
		}
		PutInt32s(tab)
	}
	// A slice of no class capacity serves the class below its capacity, so
	// every request it is handed to fits in it.
	PutInt32s(make([]int32, 20, 33))
	for range 4 {
		if tab := GetInt32s(32); len(tab) != 32 || cap(tab) < 32 {
			t.Fatalf("GetInt32s(32): len %d cap %d", len(tab), cap(tab))
		}
	}
}

// The ledger names a slice drawn and not handed back, and one handed back
// twice; a run that hands back each slice once, or hands back a slice of its
// caller's, passes.
func TestEdgeLedger(t *testing.T) {
	l := TrackEdges()
	a, b := GetEdges(100), GetEdges(3000)
	PutEdges(b)
	PutEdges(make([]Edge, 50))
	PutEdges(nil)
	if err := l.Close(); err == nil || !strings.Contains(err.Error(), "1 edge slices not handed back, 0 handed back twice") {
		t.Fatalf("a slice kept: %v", err)
	}
	PutEdges(a)

	l = TrackEdges()
	a = GetEdges(100)
	PutEdges(a)
	l.note(a, false) // a second PutEdges, without putting a twice on the free list
	if err := l.Close(); err == nil || !strings.Contains(err.Error(), "0 edge slices not handed back, 1 handed back twice") {
		t.Fatalf("a slice handed back twice: %v", err)
	}

	l = TrackEdges()
	for range 3 {
		PutEdges(GetEdges(700))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("each slice handed back once: %v", err)
	}
}
