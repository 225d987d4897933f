package graph

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// Slices of any length, recycled: the process-wide free lists of the vc
// path's per-machine memory that is sized by the job rather than by a block —
// residual edge lists (GetEdges) and n-sized int32 tables (GetInt32s: the vc
// degree tables and the composer's mark table). Like the block free list they
// are sync.Pools, one per size class, so that a job reuses what the job
// before it handed back instead of allocating afresh. A request for n
// elements is served from the class of n, whose capacity is n rounded up to
// m·2^e with 16 <= m < 32 — at most 1/16 above n, so a cold miss costs at
// most 1/16 more than an exact make — and n below 16 is a class of its own.

// slabClasses bounds the pooled classes: every request up to 2^32 elements
// has one (bits.Len 33 gives e = 28, the last class 16 + 16*28 + 15). A
// longer request is an exact make that is never pooled.
const slabClasses = 16 + 16*29

// slabClass returns the size class of a request for n > 0 elements and the
// class's capacity, or ok false if n is past the pooled classes.
func slabClass(n int) (class, capacity int, ok bool) {
	if n < 16 {
		return n, n, true
	}
	e := bits.Len(uint(n)) - 5
	m := (n + 1<<e - 1) >> e // n/2^e rounded up, in [16, 32]
	if m == 32 {
		m, e = 16, e+1
	}
	class = 16 + 16*e + m - 16
	return class, m << e, class < slabClasses
}

// slab is the free list of one element type. Each pool holds *[]T boxes of
// exactly its class's capacity.
type slab[T any] struct {
	classes [slabClasses]sync.Pool
}

// get returns a slice of length n over a recycled array of its class if the
// class's pool has one, a fresh one otherwise. The contents are garbage.
func (s *slab[T]) get(n int) []T {
	if n <= 0 {
		return []T{}
	}
	class, capacity, ok := slabClass(n)
	if !ok {
		return make([]T, n)
	}
	if b, ok := s.classes[class].Get().(*[]T); ok {
		return (*b)[:n]
	}
	return make([]T, n, capacity)
}

// put hands t's array to the pool of the largest class it can serve, which
// is its own class for a slice get returned; an empty array, or one past the
// pooled classes, is left to the GC.
func (s *slab[T]) put(t []T) {
	c := cap(t)
	if c == 0 {
		return
	}
	class, capacity, _ := slabClass(c)
	if capacity > c { // not a class capacity: serve the class below
		class--
	}
	if class >= slabClasses {
		return
	}
	t = t[:c]
	s.classes[class].Put(&t)
}

var (
	edgeSlab  slab[Edge]
	int32Slab slab[int32]
)

// GetEdges returns a slice of n edges from the free list of edge slices. The
// contents are garbage: read only what has been written since. Its capacity
// may pass n by up to 1/16. Hand it back with PutEdges once nothing reads it.
func GetEdges(n int) []Edge {
	e := edgeSlab.get(n)
	if l := ledger.Load(); l != nil {
		l.note(e, true)
	}
	return e
}

// PutEdges hands e's array back to the free list of edge slices; nothing may
// read or write it afterwards, and it must be handed back once only. A slice
// that did not come from GetEdges may be handed over too: it serves the
// requests its capacity covers.
func PutEdges(e []Edge) {
	if l := ledger.Load(); l != nil {
		l.note(e, false)
	}
	edgeSlab.put(e)
}

// GetInt32s returns a table of n int32s from the free list of int32 tables.
// The contents are garbage: the caller clears or fills it. Hand it back with
// PutInt32s once nothing reads it.
func GetInt32s(n int) []int32 { return int32Slab.get(n) }

// PutInt32s hands t's array back to the free list of int32 tables; nothing
// may read or write it afterwards.
func PutInt32s(t []int32) { int32Slab.put(t) }

// ledger is the installed EdgeLedger, if any.
var ledger atomic.Pointer[EdgeLedger]

// An EdgeLedger records every array the edge free list hands out and takes
// back while it is installed, so that a test can hold a run to handing back
// each edge slice it drew exactly once. One ledger is installed at a time.
type EdgeLedger struct {
	mu    sync.Mutex
	state map[*Edge]bool // true: handed out; false: handed back
	twice []string
}

// TrackEdges installs a ledger of the edge free list and returns it. It
// panics if another ledger is installed.
func TrackEdges() *EdgeLedger {
	l := &EdgeLedger{state: make(map[*Edge]bool)}
	if !ledger.CompareAndSwap(nil, l) {
		panic("graph: an edge ledger is already installed")
	}
	return l
}

// note records e leaving the free list (out) or coming back to it.
func (l *EdgeLedger) note(e []Edge, out bool) {
	if cap(e) == 0 {
		return
	}
	key := &e[:1][0]
	l.mu.Lock()
	defer l.mu.Unlock()
	if held, seen := l.state[key]; !out && seen && !held {
		l.twice = append(l.twice, fmt.Sprintf("%d-edge slice", cap(e)))
	}
	l.state[key] = out
}

// Close uninstalls the ledger and reports each slice drawn while it was
// installed and not handed back, and each slice handed back twice.
func (l *EdgeLedger) Close() error {
	ledger.CompareAndSwap(l, nil)
	l.mu.Lock()
	defer l.mu.Unlock()
	out := 0
	for _, o := range l.state {
		if o {
			out++
		}
	}
	if out == 0 && len(l.twice) == 0 {
		return nil
	}
	return fmt.Errorf("graph: %d edge slices not handed back, %d handed back twice (%s)", out, len(l.twice), strings.Join(l.twice, ", "))
}
