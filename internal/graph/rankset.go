package graph

import (
	"fmt"
	"math/bits"
	"slices"
)

// Ranked edge sets: the sorted-set codec over the rank space of the IDs
// outside an excluded set X. An ID v not in X travels as its rank, v minus
// the number of IDs of X below v. The map is monotone, so an edge set keeps
// its (U, V) order and its U <= V under it, and the bytes are exactly
// AppendEdgeSet's of the ranked edges — the same format, the same
// strictness — but the stride and the gaps shrink by the share of the ID
// space X takes. A message that sends X first pays nothing for this: its
// decoder holds X when it reaches the edges. (The peeled levels of a
// vertex-cover coreset, and its residual, whose edges touch no peeled vertex,
// are the use.)
//
// X is given as a list of ID sets; an ID in several of them counts once. An
// edge with an endpoint in X has no rank: the encoders panic on it, as on an
// unsorted set. The encoder's rank lookup is O(1) off a bitmap of X with a
// running count per 64-bit word, so its table grows with the largest ID of X.
// The decoder's table grows only with the number of IDs in X, which it holds
// decoded — never with a stride or ID the message merely claims.

// AppendRankedEdgeSet appends the encoding of edges, canonical and in (U, V)
// order, in the rank space of the IDs outside excluded, and returns it.
// Panics like AppendEdgeSet, and if an endpoint is excluded.
func AppendRankedEdgeSet(dst []byte, edges []Edge, excluded [][]ID) []byte {
	w := setWriter{buf: dst}
	writeRankedEdgeSet(&w, edges, excluded)
	return w.buf
}

// RankedEdgeSetBytes returns the exact byte size of
// AppendRankedEdgeSet(nil, edges, excluded).
func RankedEdgeSetBytes(edges []Edge, excluded [][]ID) int {
	w := setWriter{sizing: true}
	writeRankedEdgeSet(&w, edges, excluded)
	return w.size()
}

// DecodeRankedEdgeSet decodes a set produced by AppendRankedEdgeSet with the
// same excluded sets, as strictly as DecodeEdgeSet; a rank whose ID would
// pass MaxID is corrupt too. A zero-count set decodes to a nil slice.
func DecodeRankedEdgeSet(data []byte, excluded [][]ID) (edges []Edge, rest []byte, err error) {
	edges, rest, err = DecodeEdgeSet(data)
	if err != nil || len(edges) == 0 {
		return edges, rest, err
	}
	u := newUnranks(excluded)
	if u == nil {
		return edges, rest, nil
	}
	row, a := ID(-1), uint64(0)
	for i, e := range edges {
		if e.U != row { // a row of edges shares U: unrank it once
			row, a = e.U, u.id(e.U)
		}
		b := u.id(e.V)
		if top := max(a, b); top > uint64(MaxID) {
			return nil, nil, fmt.Errorf("graph: corrupt ranked edge set (edge %d): %w", i, &IDRangeError{ID: int64(top)})
		}
		edges[i] = Edge{ID(a), ID(b)}
	}
	return edges, rest, nil
}

// writeRankedEdgeSet is writeEdgeSet with every endpoint v replaced by its
// rank. Ranks are monotone, so a canonical edge's ranks are canonical and the
// largest endpoint's rank is the largest rank; with nothing to rank it is
// writeEdgeSet itself.
func writeRankedEdgeSet(w *setWriter, edges []Edge, excluded [][]ID) {
	r := newRanks(edges, excluded)
	if r == nil {
		writeEdgeSet(w, edges)
		return
	}
	w.uvarint(uint64(len(edges)))
	s := uint64(r.of(edgeSetTop(edges))) + 1
	w.uvarint(s)
	last := edges[len(edges)-1]
	w.start(len(edges), triBase(uint64(r.of(last.U)), s)+uint64(r.of(last.V)))
	prev, u, base := uint64(0), ID(-1), uint64(0)
	for i, e := range edges {
		if e.U != u { // a row of edges shares U: rank it once
			u, base = e.U, triBase(uint64(r.of(e.U)), s)
		}
		x := base + uint64(r.of(e.V))
		if x < prev {
			// An excluded endpoint ranks as the next ID that is not, which
			// can break the order: name it rather than the order.
			r.check(edges)
			panic(fmt.Sprintf("graph: edge set not in (U, V) order at edge %d", i))
		}
		w.gap(x - prev)
		prev = x
	}
	r.check(edges)
	w.end()
}

// ranks is the encoder's rank table.
type ranks struct {
	words []rankWord
	total ID     // excluded IDs in all
	hit   uint64 // 1 once an excluded ID was looked up
}

type rankWord struct {
	bits  uint64 // bit i: ID 64*w + i is excluded
	below ID     // excluded IDs below 64*w
}

// newRanks builds the rank table of the IDs outside excluded, or nil when
// there are no edges to rank or no ID is excluded.
func newRanks(edges []Edge, excluded [][]ID) *ranks {
	top := ID(-1)
	for _, set := range excluded {
		for _, v := range set {
			checkID(v)
			top = max(top, v)
		}
	}
	if len(edges) == 0 || top < 0 {
		return nil
	}
	r := &ranks{words: make([]rankWord, top>>6+1)}
	for _, set := range excluded {
		for _, v := range set {
			r.words[v>>6].bits |= 1 << (v & 63)
		}
	}
	for i := range r.words {
		r.words[i].below = r.total
		r.total += ID(bits.OnesCount64(r.words[i].bits))
	}
	return r
}

// of returns the rank of v. It is the encoder's inner loop, so it stays
// small enough to inline: an excluded v only sets hit, which the encoder
// checks once the set is written.
func (r *ranks) of(v ID) ID {
	i := int(v >> 6)
	if i >= len(r.words) {
		return v - r.total
	}
	w := &r.words[i]
	r.hit |= w.bits >> (v & 63) & 1
	return v - w.below - ID(bits.OnesCount64(w.bits&(1<<(v&63)-1)))
}

// check panics, naming the first excluded endpoint of edges, if an
// excluded ID was looked up.
func (r *ranks) check(edges []Edge) {
	if r.hit == 0 {
		return
	}
	for _, e := range edges {
		for _, v := range []ID{e.U, e.V} {
			if int(v>>6) < len(r.words) && r.words[v>>6].bits>>(v&63)&1 != 0 {
				panic(fmt.Sprintf("graph: edge endpoint %d is an excluded ID, which has no rank", v))
			}
		}
	}
}

// unranks is the decoder's inverse of ranks. With x the excluded IDs
// ascending without repeats, rank r is the ID r + |{i : x[i]-i <= r}|, and
// x[i]-i never decreases, up to last. start buckets it by r>>shift, with at
// most 4|x| buckets — one per rank, so a lookup is one load, wherever x is
// no sparser than one ID in five — and a lookup in a wider bucket is a
// binary search within it: a step or two when x is spread out, log |x| at
// worst.
type unranks struct {
	x     []ID
	last  ID // x[len(x)-1] - (len(x)-1)
	shift uint
	start []int32 // start[b] = |{i : x[i]-i < b<<shift}|
}

// newUnranks builds the inverse table, or nil when no ID is excluded.
func newUnranks(excluded [][]ID) *unranks {
	var x []ID
	for _, set := range excluded {
		x = append(x, set...)
	}
	if len(x) == 0 {
		return nil
	}
	slices.Sort(x)
	x = slices.Compact(x)
	u := &unranks{x: x, last: x[len(x)-1] - ID(len(x)-1)}
	for int(u.last>>u.shift) >= 4*len(x) {
		u.shift++
	}
	u.start = make([]int32, u.last>>u.shift+2)
	i := 0
	for b := range u.start {
		for i < len(x) && uint64(x[i]-ID(i)) < uint64(b)<<u.shift {
			i++
		}
		u.start[b] = int32(i)
	}
	return u
}

func (u *unranks) id(r ID) uint64 {
	b := min(r, u.last) >> u.shift // every x[i]-i is at most last
	n := u.start[b+1]
	if u.shift > 0 {
		n = u.search(r, u.start[b], n)
	}
	return uint64(r) + uint64(n)
}

// search returns the first i in [lo, hi) with x[i]-i > r, or hi.
func (u *unranks) search(r ID, lo, hi int32) int32 {
	for lo < hi {
		if mid := int32(uint32(lo+hi) >> 1); u.x[mid]-mid <= r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return hi
}
