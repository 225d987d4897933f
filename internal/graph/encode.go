package graph

import (
	"encoding/binary"
	"fmt"
)

// Binary edge encoding used for honest communication accounting in the
// simultaneous protocols (internal/protocol). A message is charged the exact
// number of bytes of its encoding, matching how the paper counts
// communication in bits (up to the constant-factor slack the paper's O~
// notation already absorbs).
//
// Format: uvarint count, then per edge uvarint(U) followed by uvarint(V).
// Edges sorted by SortEdges compress well under the delta variant below, but
// the plain format is used for accounting because protocol messages are not
// required to be sorted.

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

// AppendEdges appends the encoding of edges to dst and returns it. Panics
// with *IDRangeError on out-of-range endpoints.
func AppendEdges(dst []byte, edges []Edge) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(edges)))
	for _, e := range edges {
		checkID(e.U)
		checkID(e.V)
		dst = binary.AppendUvarint(dst, uint64(uint32(e.U)))
		dst = binary.AppendUvarint(dst, uint64(uint32(e.V)))
	}
	return dst
}

// EncodeEdges encodes an edge list.
func EncodeEdges(edges []Edge) []byte {
	return AppendEdges(make([]byte, 0, 1+5*len(edges)), edges)
}

// DecodeEdges decodes an edge list produced by EncodeEdges/AppendEdges and
// returns the remaining bytes.
func DecodeEdges(data []byte) (edges []Edge, rest []byte, err error) {
	count, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, fmt.Errorf("graph: corrupt edge encoding (count)")
	}
	data = data[k:]
	if count > uint64(len(data)) { // each edge needs >= 2 bytes
		return nil, nil, fmt.Errorf("graph: corrupt edge encoding (count %d too large)", count)
	}
	edges = make([]Edge, 0, count)
	for i := uint64(0); i < count; i++ {
		u, ku := binary.Uvarint(data)
		if ku <= 0 {
			return nil, nil, fmt.Errorf("graph: corrupt edge encoding (edge %d U)", i)
		}
		data = data[ku:]
		v, kv := binary.Uvarint(data)
		if kv <= 0 {
			return nil, nil, fmt.Errorf("graph: corrupt edge encoding (edge %d V)", i)
		}
		data = data[kv:]
		if u > uint64(MaxID) {
			return nil, nil, fmt.Errorf("graph: corrupt edge encoding (edge %d): %w", i, &IDRangeError{ID: int64(u)})
		}
		if v > uint64(MaxID) {
			return nil, nil, fmt.Errorf("graph: corrupt edge encoding (edge %d): %w", i, &IDRangeError{ID: int64(v)})
		}
		edges = append(edges, Edge{ID(u), ID(v)})
	}
	return edges, data, nil
}

// AppendIDs appends the encoding of a vertex-id list (uvarint count followed
// by uvarint ids). Used for the "fixed solution" part of vertex-cover
// coreset messages. Panics with *IDRangeError on out-of-range ids.
func AppendIDs(dst []byte, ids []ID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, v := range ids {
		checkID(v)
		dst = binary.AppendUvarint(dst, uint64(uint32(v)))
	}
	return dst
}

// EncodeIDs encodes a vertex-id list.
func EncodeIDs(ids []ID) []byte {
	return AppendIDs(make([]byte, 0, 1+3*len(ids)), ids)
}

// DecodeIDs decodes a list produced by EncodeIDs/AppendIDs and returns the
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

// EncodedEdgeBytes returns the exact byte size of EncodeEdges(edges) without
// materializing the buffer; used on accounting-only paths. It applies the
// same ID range check as the encoder, so accounting can never succeed on a
// message the encoder would refuse.
func EncodedEdgeBytes(edges []Edge) int {
	n := uvarintLen(uint64(len(edges)))
	for _, e := range edges {
		checkID(e.U)
		checkID(e.V)
		n += uvarintLen(uint64(uint32(e.U))) + uvarintLen(uint64(uint32(e.V)))
	}
	return n
}

// EncodedIDBytes returns the exact byte size of EncodeIDs(ids).
func EncodedIDBytes(ids []ID) int {
	n := uvarintLen(uint64(len(ids)))
	for _, v := range ids {
		checkID(v)
		n += uvarintLen(uint64(uint32(v)))
	}
	return n
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// Edge-batch codec: the varint delta encoding shared by the cluster wire
// protocol (internal/cluster SHARD and CORESET frames) and the simulated
// communication accounting (core.CoresetSizeBytes), so a measured byte count
// and an estimated one are the same function of the same edge list.
//
// Format: uvarint count, then per edge varint(U - prevU) followed by
// varint(V - U), where prevU starts at 0 and both deltas are zigzag-signed
// (encoding/binary's Varint). Sorted edge lists — coreset messages, residual
// subgraphs — have small nonnegative deltas and compress well; arbitrary
// arrival-order batches pay at most one extra bit per value over the plain
// encoding.

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
	if count > uint64(len(data)) { // each edge needs >= 2 bytes
		return nil, nil, fmt.Errorf("graph: corrupt edge batch (count %d too large)", count)
	}
	if uint64(cap(dst)) < count {
		dst = make([]Edge, 0, count)
	}
	edges = dst[:0]
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		du, ku := binary.Varint(data)
		if ku <= 0 {
			return nil, nil, fmt.Errorf("graph: corrupt edge batch (edge %d U)", i)
		}
		data = data[ku:]
		dv, kv := binary.Varint(data)
		if kv <= 0 {
			return nil, nil, fmt.Errorf("graph: corrupt edge batch (edge %d V)", i)
		}
		data = data[kv:]
		u := prev + du
		v := u + dv
		if u < 0 || u > int64(MaxID) {
			return nil, nil, fmt.Errorf("graph: corrupt edge batch (edge %d): %w", i, &IDRangeError{ID: u})
		}
		if v < 0 || v > int64(MaxID) {
			return nil, nil, fmt.Errorf("graph: corrupt edge batch (edge %d): %w", i, &IDRangeError{ID: v})
		}
		edges = append(edges, Edge{ID(u), ID(v)})
		prev = u
	}
	return edges, data, nil
}

// EdgeBatchBytes returns the exact byte size of AppendEdgeBatch(nil, edges)
// without materializing the buffer; used on accounting-only paths.
func EdgeBatchBytes(edges []Edge) int {
	n := uvarintLen(uint64(len(edges)))
	prev := int64(0)
	for _, e := range edges {
		checkID(e.U)
		checkID(e.V)
		n += varintLen(int64(e.U)-prev) + varintLen(int64(e.V)-int64(e.U))
		prev = int64(e.U)
	}
	return n
}

func varintLen(x int64) int {
	return uvarintLen(uint64(x)<<1 ^ uint64(x>>63)) // zigzag, as binary.AppendVarint
}
