package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Binary codecs. A message is charged the exact number of bytes of its
// encoding, matching how the paper counts communication in bits (up to the
// constant-factor slack the paper's O~ notation already absorbs). This file
// holds, in this order: the ID-list codec, which keeps the order of a vertex
// list and carries the diversity centres (selection order); the delta batch
// codec, the edge codec that preserves order and carries what must arrive as
// sent (shards, dataset segments); and the sorted-set codec, the edge and ID
// codec that does not, and carries every coreset summary.

// MaxID is the largest encodable vertex identifier. IDs are int32, so the
// only out-of-range values are negative ones; every encoder rejects them
// with a typed panic instead of letting a uint32 cast wrap them into huge
// (or, after decode, different) identifiers on the wire.
const MaxID = ID(^uint32(0) >> 1)

// IDRangeError reports a vertex identifier outside [0, MaxID]. The binary
// encoders panic with it — an unencodable ID in a coreset message is a
// programming error, exactly like an out-of-range slice index — and the
// decoders return it wrapped for corrupt input.
type IDRangeError struct{ ID int64 }

func (e *IDRangeError) Error() string {
	return fmt.Sprintf("graph: vertex id %d outside the encodable range [0, %d]", e.ID, MaxID)
}

// checkID panics with a typed *IDRangeError on an unencodable identifier.
func checkID(v ID) {
	if v < 0 {
		panic(&IDRangeError{ID: int64(v)})
	}
}

// AppendIDs appends the encoding of a vertex-id list (uvarint count followed
// by uvarint ids), in the list's own order. Panics with *IDRangeError on
// out-of-range ids.
func AppendIDs(dst []byte, ids []ID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, v := range ids {
		checkID(v)
		dst = binary.AppendUvarint(dst, uint64(uint32(v)))
	}
	return dst
}

// DecodeIDs decodes a list produced by AppendIDs and returns the
// remaining bytes.
func DecodeIDs(data []byte) (ids []ID, rest []byte, err error) {
	count, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, fmt.Errorf("graph: corrupt id encoding (count)")
	}
	data = data[k:]
	if count > uint64(len(data))+1 {
		return nil, nil, fmt.Errorf("graph: corrupt id encoding (count %d too large)", count)
	}
	ids = make([]ID, 0, count)
	for i := uint64(0); i < count; i++ {
		v, kv := binary.Uvarint(data)
		if kv <= 0 {
			return nil, nil, fmt.Errorf("graph: corrupt id encoding (id %d)", i)
		}
		data = data[kv:]
		if v > uint64(MaxID) {
			return nil, nil, fmt.Errorf("graph: corrupt id encoding (id %d): %w", i, &IDRangeError{ID: int64(v)})
		}
		ids = append(ids, ID(v))
	}
	return ids, data, nil
}

// EncodedIDBytes returns the exact byte size of AppendIDs(nil, ids).
func EncodedIDBytes(ids []ID) int {
	n := UvarintLen(uint64(len(ids)))
	for _, v := range ids {
		checkID(v)
		n += UvarintLen(uint64(uint32(v)))
	}
	return n
}

// UvarintLen returns the length of binary.AppendUvarint's encoding of x.
func UvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// Edge-batch codec: the order-preserving varint delta encoding of the
// cluster wire protocol's SHARD frames (internal/cluster) and of dataset
// segments (internal/dataset). A machine's coreset is a function of the
// order its shard arrives in, so whatever carries a shard must deliver the
// list, not the set; the sorted-set codec below is for messages that are
// sets.
//
// Format: uvarint count, then per edge varint(U - prevU) followed by
// varint(V - U), where prevU starts at 0 and both deltas are zigzag-signed
// (encoding/binary's Varint). Sorted edge lists have small nonnegative
// deltas and compress well; arbitrary arrival-order batches pay at most one
// extra bit per value over plain uvarints of the IDs.

// AppendEdgeBatch appends the delta encoding of edges to dst and returns it.
// Panics with *IDRangeError on out-of-range endpoints — without the check a
// negative ID would encode into a payload this codec's own decoder rejects.
func AppendEdgeBatch(dst []byte, edges []Edge) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(edges)))
	prev := int64(0)
	for _, e := range edges {
		checkID(e.U)
		checkID(e.V)
		dst = binary.AppendVarint(dst, int64(e.U)-prev)
		dst = binary.AppendVarint(dst, int64(e.V)-int64(e.U))
		prev = int64(e.U)
	}
	return dst
}

// DecodeEdgeBatch decodes a batch produced by AppendEdgeBatch and returns
// the remaining bytes. Endpoints outside the int32 ID range are rejected as
// corrupt. A zero-count batch decodes to a nil slice.
func DecodeEdgeBatch(data []byte) (edges []Edge, rest []byte, err error) {
	return DecodeEdgeBatchInto(nil, data)
}

// DecodeEdgeBatchInto is DecodeEdgeBatch decoding into dst's backing array:
// the result is dst[:count] when dst has the capacity and a fresh slice
// otherwise, so a caller that hands each call's result to the next decodes
// a stream of batches with no allocation once the largest has been seen.
// Whatever dst held is overwritten; on error the contents are unspecified
// and the returned slice is nil.
func DecodeEdgeBatchInto(dst []Edge, data []byte) (edges []Edge, rest []byte, err error) {
	count, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, fmt.Errorf("graph: corrupt edge batch (count)")
	}
	data = data[k:]
	if count > uint64(len(data))/2 { // each edge needs >= 2 bytes
		return nil, nil, fmt.Errorf("graph: corrupt edge batch (count %d too large)", count)
	}
	if uint64(cap(dst)) < count {
		dst = make([]Edge, count)
	}
	edges = dst[:count]
	prev := int64(0)
	for i := range edges {
		du, ku := shortUvarint(data)
		if ku == 0 {
			if du, ku = binary.Uvarint(data); ku <= 0 {
				return nil, nil, fmt.Errorf("graph: corrupt edge batch (edge %d U)", i)
			}
		}
		data = data[ku:]
		dv, kv := shortUvarint(data)
		if kv == 0 {
			if dv, kv = binary.Uvarint(data); kv <= 0 {
				return nil, nil, fmt.Errorf("graph: corrupt edge batch (edge %d V)", i)
			}
		}
		data = data[kv:]
		u := prev + unzigzag(du)
		v := u + unzigzag(dv)
		if u < 0 || u > int64(MaxID) {
			return nil, nil, fmt.Errorf("graph: corrupt edge batch (edge %d): %w", i, &IDRangeError{ID: u})
		}
		if v < 0 || v > int64(MaxID) {
			return nil, nil, fmt.Errorf("graph: corrupt edge batch (edge %d): %w", i, &IDRangeError{ID: v})
		}
		edges[i] = Edge{ID(u), ID(v)}
		prev = u
	}
	return edges, data, nil
}

// shortUvarint decodes the uvarint at the front of data when it is one, two
// or three bytes long and at least three bytes remain, which covers nearly
// every delta of a batch; otherwise it returns n = 0 and the caller asks
// binary.Uvarint. On what it decodes it agrees with binary.Uvarint,
// non-minimal encodings such as 0x80 0x00 included.
func shortUvarint(data []byte) (x uint64, n int) {
	if len(data) < 3 {
		return 0, 0
	}
	x, b1, b2 := uint64(data[0]), uint64(data[1]), uint64(data[2])
	switch {
	case x < 0x80:
		return x, 1
	case b1 < 0x80:
		return x&0x7f | b1<<7, 2
	case b2 < 0x80:
		return x&0x7f | (b1&0x7f)<<7 | b2<<14, 3
	}
	return 0, 0
}

// unzigzag maps a zigzag-coded uvarint back to its signed value, as
// binary.Varint does.
func unzigzag(ux uint64) int64 { return int64(ux>>1) ^ -int64(ux&1) }

// Sorted-set codec: Golomb–Rice coding of the gaps of a sorted multiset. The
// codecs above preserve order, and pay for it: a message whose order is not
// information — a matching, an EDCS, a peeled level, a residual subgraph: all
// of them sets, and all of them already in lexicographic order when they
// leave a machine's Finish — costs 3–4 bytes an edge in the delta batch codec
// against an information bound near 1.5. Every coreset summary body
// therefore travels in this codec, and the simulated accounting
// (core.CoresetSizeBytes, core.VCCoresetSizeBytes) charges its size
// functions, so estimated and measured bytes stay one definition (an edge
// set whose receiver already knows IDs it cannot contain goes through
// rankset.go, which is this codec over a denser numbering). What must
// arrive in the order it was sent keeps an order-preserving codec: SHARD
// frames and dataset segments the batch codec (a machine's result depends on
// its arrival order), the diversity centers AppendIDs (selection order).
//
// A set is its elements in ascending order, each coded as the gap to its
// predecessor (the first to 0); gap 0 is legal, so a multiset keeps its
// copies. Format:
//
//	uvarint count                  and nothing else when count is 0
//	uvarint stride s               edge sets only: 1 + the largest endpoint
//	byte    k                      the Rice parameter, riceParam(count, last)
//	bits    count codes, least significant bit first, zero-padded to a byte
//
// A gap d is d>>k zero bits, a one bit, then the low k bits of d. An ID is
// itself. An edge is undirected, so an edge set is a set of canonical pairs
// U <= V (Edge.Canon), the upper triangle of the s×s square: row U holds the
// s-U pairs (U, U) .. (U, s-1), and (U, V) is the element
//
//	T(U, V) = U*s - U*(U-1)/2 + (V-U)   in [0, s*(s+1)/2)
//
// which orders the pairs as (U, V) order does. Numbering the square instead
// would spend about a bit an edge on an orientation the set does not carry.
// k is a function of the count and the last element alone, which bounds the
// quotients of a whole set by twice its count (plus 64 bits where k meets its
// cap) whatever the gaps are: no escape code is needed and an outlier cannot
// inflate a message.
//
// The encoding is canonical — one byte string per multiset — and the decoders
// are strict about it: a stride or parameter other than the one the encoder
// would have chosen, a header varint padded with continuation bytes, a
// nonzero padding bit, an element out of range or a stream that ends early
// are all errors. A decoder therefore consumes exactly EdgeSetBytes or
// IDSetBytes of what it returns. Input that is not sorted, or an edge with
// U > V, is a programming error and panics, like an unencodable ID.

// riceMaxK caps the Rice parameter so that one refill of the decoder's
// 64-bit window always covers a whole remainder.
const riceMaxK = 56

// riceParam returns the Rice parameter for count gaps that sum to last:
// floor(log2 of the mean gap), the optimum for geometric gaps on every
// benchmark input. With it last < count * 2^(k+1), so the quotients of any
// count gaps with that sum total less than 2*count bits.
func riceParam(count int, last uint64) uint {
	mean := last / uint64(count)
	if mean == 0 {
		return 0
	}
	return min(uint(bits.Len64(mean))-1, riceMaxK)
}

// setWriter is the output side of the codec. In sizing mode it counts what
// it would have written, so a size function is the encoder's own loop.
type setWriter struct {
	sizing bool
	buf    []byte // the output (writing)
	bytes  int    // header bytes (sizing)
	bits   uint64 // bit-stream length (sizing)
	acc    uint64 // pending bits, least significant first
	n      uint   // pending bit count, below 32 between calls
	k      uint
}

func (w *setWriter) uvarint(x uint64) {
	if w.sizing {
		w.bytes += UvarintLen(x)
		return
	}
	w.buf = binary.AppendUvarint(w.buf, x)
}

// start fixes the parameter for count gaps summing to last and writes it.
func (w *setWriter) start(count int, last uint64) {
	w.k = riceParam(count, last)
	if w.sizing {
		w.bytes++
		return
	}
	w.buf = append(w.buf, byte(w.k))
}

func (w *setWriter) flush32() {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(w.acc))
	w.acc >>= 32
	w.n -= 32
}

// gap writes one code.
func (w *setWriter) gap(d uint64) {
	q := d >> w.k
	if w.sizing {
		w.bits += q + uint64(w.k) + 1
		return
	}
	code := (d&(1<<w.k-1))<<1 | 1 // the stop bit, then the remainder
	width := w.k + 1
	if q+uint64(width) > 32 { // rare: a long quotient or a wide remainder
		for ; q >= 32; q -= 32 {
			w.n += 32
			w.flush32()
		}
		if w.n += uint(q); w.n >= 32 {
			w.flush32()
		}
		q = 0
		if width > 32 {
			w.acc |= (code & (1<<32 - 1)) << w.n
			w.n += 32
			w.flush32()
			code >>= 32
			width -= 32
		}
	}
	w.acc |= code << (uint(q) + w.n)
	if w.n += uint(q) + width; w.n >= 32 {
		w.flush32()
	}
}

// end pads the bit stream to a byte boundary.
func (w *setWriter) end() {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
}

func (w *setWriter) size() int { return w.bytes + int((w.bits+7)/8) }

// triBase returns T(u, u) - u, the element of (u, v) less v: the rows above
// row u hold s + (s-1) + ... + (s-u+1) elements, u(2s-u+1)/2 in all, and
// u(2s-u-1) is even whatever the parity of u.
func triBase(u, s uint64) uint64 { return u * (2*s - 1 - u) / 2 }

// triRowOf returns the row of element x of the triangle of stride s: the u
// with T(u, u) <= x < T(u+1, u+1). Rows u..s-1 hold t(t+1)/2 elements for
// t = s-u, so t is the least with t(t+1)/2 >= s(s+1)/2 - x; the square root
// lands within a step of it and two integer loops settle it exactly.
func triRowOf(x, s uint64) uint64 {
	z := s*(s+1)/2 - x
	t := uint64((math.Sqrt(8*float64(z)+1) - 1) / 2)
	for t*(t+1)/2 < z {
		t++
	}
	for t > 0 && (t-1)*t/2 >= z {
		t--
	}
	return s - t
}

// edgeSetTop checks edges for the encoders — encodable, canonical
// endpoints — and returns the largest endpoint, every edge's V or less.
func edgeSetTop(edges []Edge) ID {
	top := ID(0)
	for i, e := range edges {
		if e.U < 0 || e.U > e.V { // 0 <= U <= V: V is encodable too
			checkID(e.U)
			checkID(e.V)
			panic(fmt.Sprintf("graph: edge set edge %d is (%d, %d), U > V: an undirected edge travels as Edge.Canon", i, e.U, e.V))
		}
		top = max(top, e.V)
	}
	return top
}

func writeEdgeSet(w *setWriter, edges []Edge) {
	w.uvarint(uint64(len(edges)))
	if len(edges) == 0 {
		return
	}
	s := uint64(edgeSetTop(edges)) + 1
	w.uvarint(s)
	last := edges[len(edges)-1]
	w.start(len(edges), triBase(uint64(last.U), s)+uint64(last.V))
	prev := uint64(0)
	for i, e := range edges {
		x := triBase(uint64(e.U), s) + uint64(e.V)
		if x < prev {
			panic(fmt.Sprintf("graph: edge set not in (U, V) order at edge %d", i))
		}
		w.gap(x - prev)
		prev = x
	}
	w.end()
}

func writeIDSet(w *setWriter, ids []ID) {
	w.uvarint(uint64(len(ids)))
	if len(ids) == 0 {
		return
	}
	checkID(ids[0]) // ascending from here, or the loop panics
	w.start(len(ids), uint64(ids[len(ids)-1]))
	prev := ID(0)
	for i, v := range ids {
		if v < prev {
			panic(fmt.Sprintf("graph: ID set not in ascending order at id %d", i))
		}
		w.gap(uint64(v - prev))
		prev = v
	}
	w.end()
}

// AppendEdgeSet appends the sorted-set encoding of edges, which must be
// canonical (U <= V) and in (U, V) order, to dst and returns it. Panics on an
// edge with U > V, on unsorted input and, with *IDRangeError, on out-of-range
// endpoints.
func AppendEdgeSet(dst []byte, edges []Edge) []byte {
	w := setWriter{buf: dst}
	writeEdgeSet(&w, edges)
	return w.buf
}

// EdgeSetBytes returns the exact byte size of AppendEdgeSet(nil, edges)
// without materializing the buffer.
func EdgeSetBytes(edges []Edge) int {
	w := setWriter{sizing: true}
	writeEdgeSet(&w, edges)
	return w.size()
}

// AppendIDSet appends the sorted-set encoding of ids, which must be in
// ascending order, to dst and returns it. Panics like AppendEdgeSet.
func AppendIDSet(dst []byte, ids []ID) []byte {
	w := setWriter{buf: dst}
	writeIDSet(&w, ids)
	return w.buf
}

// IDSetBytes returns the exact byte size of AppendIDSet(nil, ids).
func IDSetBytes(ids []ID) int {
	w := setWriter{sizing: true}
	writeIDSet(&w, ids)
	return w.size()
}

// setReader is the input side of the codec: a window of unread bits over the
// bytes of one bit stream.
type setReader struct {
	data []byte
	pos  int    // next byte to load
	acc  uint64 // loaded bits, least significant first
	n    uint   // how many of them are unread; 8*pos - n bits are consumed
	k    uint
	maxQ uint64 // largest quotient an element within the limit can have
}

func corruptSet(what string) error {
	return fmt.Errorf("graph: corrupt sorted set (%s)", what)
}

// start reads the parameter byte of a set of count elements, none above
// limit, and opens the bit stream behind it. Every code takes at least k+1
// bits, so a count the remaining bytes cannot hold is refused here, before
// anything is allocated for it.
func (r *setReader) start(data []byte, count, limit uint64) error {
	if len(data) == 0 {
		return corruptSet("truncated header")
	}
	k := uint(data[0])
	if k > riceMaxK {
		return corruptSet(fmt.Sprintf("parameter %d out of range", k))
	}
	data = data[1:]
	if count > 8*uint64(len(data))/uint64(k+1) {
		return corruptSet(fmt.Sprintf("count %d too large", count))
	}
	*r = setReader{data: data, k: k, maxQ: limit >> k}
	return nil
}

// refill tops the window up to at least 56 unread bits, or to the end of the
// data. The wide path loads eight bytes and counts the whole ones that fit;
// the rest of the load stays in the window uncounted and is loaded again
// (the same bits, or-ed over themselves) by the next refill.
func (r *setReader) refill() {
	if r.pos+8 <= len(r.data) {
		r.acc |= binary.LittleEndian.Uint64(r.data[r.pos:]) << r.n
		r.pos += int(63-r.n) >> 3
		r.n |= 56
		return
	}
	for ; r.n <= 56 && r.pos < len(r.data); r.pos++ {
		r.acc |= uint64(r.data[r.pos]) << r.n
		r.n += 8
	}
}

// gap reads one code.
func (r *setReader) gap() (uint64, error) {
	r.refill()
	q := uint(bits.TrailingZeros64(r.acc))
	if width := q + 1 + r.k; width <= r.n { // the whole code is in the window
		d := uint64(q)<<r.k | r.acc>>(q+1)&(1<<r.k-1)
		r.acc >>= width
		r.n -= width
		return d, nil
	}
	return r.longGap()
}

// longGap reads a code that one window does not hold: a quotient that runs
// past it, or the end of the stream.
func (r *setReader) longGap() (uint64, error) {
	var q uint64
	for {
		z := uint(bits.TrailingZeros64(r.acc))
		if z < r.n {
			q += uint64(z)
			r.acc >>= z + 1
			r.n -= z + 1
			break
		}
		if r.n == 0 {
			return 0, corruptSet("truncated bit stream")
		}
		q += uint64(r.n)
		r.acc >>= r.n
		r.n = 0
		if q > r.maxQ {
			break
		}
		r.refill()
	}
	if q > r.maxQ {
		return 0, corruptSet("element out of range")
	}
	r.refill()
	if r.k > r.n {
		return 0, corruptSet("truncated bit stream")
	}
	d := q<<r.k | r.acc&(1<<r.k-1)
	r.acc >>= r.k
	r.n -= r.k
	return d, nil
}

// end closes the bit stream at the next byte boundary — the padding bits up
// to it must be zero — and returns the bytes behind it. k is checked against
// the parameter the encoder derives from the decoded set.
func (r *setReader) end(count int, last uint64) (rest []byte, err error) {
	if r.acc&(1<<(r.n&7)-1) != 0 {
		return nil, corruptSet("nonzero padding")
	}
	if r.k != riceParam(count, last) {
		return nil, corruptSet(fmt.Sprintf("parameter %d is not the canonical %d", r.k, riceParam(count, last)))
	}
	return r.data[r.pos-int(r.n>>3):], nil
}

// setUvarint reads a header field. The encoding is canonical down to its
// varints: one padded with continuation bytes is refused.
func setUvarint(data []byte, field string) (x uint64, rest []byte, err error) {
	x, k := binary.Uvarint(data)
	if k <= 0 || k != UvarintLen(x) {
		return 0, nil, corruptSet(field)
	}
	return x, data[k:], nil
}

// DecodeEdgeSet decodes a set produced by AppendEdgeSet and returns the
// remaining bytes. It accepts exactly the encoder's output: see the section
// comment. A zero-count set decodes to a nil slice.
func DecodeEdgeSet(data []byte) (edges []Edge, rest []byte, err error) {
	count, data, err := setUvarint(data, "count")
	if err != nil || count == 0 {
		return nil, data, err
	}
	stride, data, err := setUvarint(data, "stride")
	if err != nil || stride == 0 || stride > uint64(MaxID)+1 {
		return nil, nil, corruptSet("stride")
	}
	total := stride * (stride + 1) / 2 // the triangle's elements
	var r setReader
	if err := r.start(data, count, total-1); err != nil {
		return nil, nil, err
	}
	edges = make([]Edge, count)
	var u, v, top uint64 // the current edge is (u, v); top is the largest v so far
	for i := range edges {
		d, err := r.gap()
		if err != nil {
			return nil, nil, err
		}
		if v += d; v >= stride {
			// Nearly always the next row, which starts at (u+1, u+1); never
			// a loop over the rows skipped.
			u++
			if v += u - stride; v >= stride {
				x := triBase(u, stride) + v
				if x >= total {
					return nil, nil, corruptSet("element out of range")
				}
				u = triRowOf(x, stride)
				v = x - triBase(u, stride)
			}
		}
		top = max(top, v)
		edges[i] = Edge{ID(u), ID(v)}
	}
	if top+1 != stride {
		return nil, nil, corruptSet(fmt.Sprintf("stride %d is not the canonical %d", stride, top+1))
	}
	rest, err = r.end(len(edges), triBase(u, stride)+v)
	if err != nil {
		return nil, nil, err
	}
	return edges, rest, nil
}

// DecodeIDSet decodes a set produced by AppendIDSet and returns the
// remaining bytes, as strictly as DecodeEdgeSet. A zero-count set decodes to
// a nil slice.
func DecodeIDSet(data []byte) (ids []ID, rest []byte, err error) {
	count, data, err := setUvarint(data, "count")
	if err != nil || count == 0 {
		return nil, data, err
	}
	var r setReader
	if err := r.start(data, count, uint64(MaxID)); err != nil {
		return nil, nil, err
	}
	ids = make([]ID, count)
	var v uint64
	for i := range ids {
		d, err := r.gap()
		if err != nil {
			return nil, nil, err
		}
		if v += d; v > uint64(MaxID) {
			return nil, nil, fmt.Errorf("graph: corrupt sorted set (id %d): %w", i, &IDRangeError{ID: int64(v)})
		}
		ids[i] = ID(v)
	}
	rest, err = r.end(len(ids), v)
	if err != nil {
		return nil, nil, err
	}
	return ids, rest, nil
}
