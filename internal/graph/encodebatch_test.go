package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// decodeEdgeBatchReference is the plain decoder loop DecodeEdgeBatchInto
// replaced: one binary.Varint call per delta. FuzzEdgeBatchCodec holds the
// two to the same verdict, edges, remainder and error text on every input.
func decodeEdgeBatchReference(data []byte) (edges []Edge, rest []byte, err error) {
	count, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, fmt.Errorf("graph: corrupt edge batch (count)")
	}
	data = data[k:]
	if count > uint64(len(data))/2 { // each edge needs >= 2 bytes
		return nil, nil, fmt.Errorf("graph: corrupt edge batch (count %d too large)", count)
	}
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

// TestEdgeBatchRoundTrip: encode→decode must reproduce the batch exactly and
// consume exactly the encoded bytes, for sorted, unsorted and empty inputs.
func TestEdgeBatchRoundTrip(t *testing.T) {
	cases := [][]Edge{
		nil,
		{},
		{{0, 0}},
		{{0, 1}, {1, 2}, {2, 3}},
		{{5, 3}, {0, 9}, {1000000, 2}, {7, 7}},
		{{1 << 30, 1<<30 + 1}, {0, 1 << 30}},
		// The ID range boundary: MaxID must round-trip exactly.
		{{MaxID, MaxID}, {0, MaxID}, {MaxID, 0}},
	}
	for i, edges := range cases {
		buf := AppendEdgeBatch([]byte{0xAA}, edges) // nonempty dst: append semantics
		got, rest, err := DecodeEdgeBatch(buf[1:])
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(rest) != 0 {
			t.Fatalf("case %d: %d bytes left over", i, len(rest))
		}
		if len(edges) == 0 {
			if got != nil {
				t.Fatalf("case %d: empty batch decoded to %v", i, got)
			}
		} else if !reflect.DeepEqual(got, edges) {
			t.Fatalf("case %d: got %v want %v", i, got, edges)
		}
	}
}

// dirtyDst returns a decode buffer of the given capacity whose every element
// — also those beyond its length — holds a sentinel no batch contains.
func dirtyDst(length, capacity int) []Edge {
	dst := make([]Edge, capacity)
	for i := range dst {
		dst[i] = Edge{-7, -7}
	}
	return dst[:length]
}

// TestEdgeBatchDecodeInto: decoding into a caller's buffer must give exactly
// what DecodeEdgeBatch gives — whatever the buffer held, however much larger
// than the batch it is — in the buffer's own backing array when it fits and
// in a fresh one when it does not, and a buffer handed from call to call
// must make a stream of batches allocation-free.
func TestEdgeBatchDecodeInto(t *testing.T) {
	big := make([]Edge, 300)
	for i := range big {
		big[i] = Edge{ID(i * 3), ID(i*3 + 1)}
	}
	cases := [][]Edge{
		nil,
		{{0, 0}},
		{{5, 3}, {0, 9}, {1000000, 2}, {7, 7}},
		{{MaxID, MaxID}, {0, MaxID}, {MaxID, 0}},
		big,
	}
	for i, edges := range cases {
		wire := append(AppendEdgeBatch(nil, edges), 0xEE, 0xFF) // trailing bytes must come back as rest
		want, wantRest, err := DecodeEdgeBatch(wire)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for _, dst := range [][]Edge{nil, dirtyDst(0, 1000), dirtyDst(1000, 1000), dirtyDst(7, 1000), dirtyDst(2, 2)} {
			got, rest, err := DecodeEdgeBatchInto(dst, wire)
			if err != nil {
				t.Fatalf("case %d, dst len %d cap %d: %v", i, len(dst), cap(dst), err)
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("case %d, dst len %d cap %d: got %v want %v", i, len(dst), cap(dst), got, want)
			}
			if !reflect.DeepEqual(rest, wantRest) {
				t.Fatalf("case %d: rest %v want %v", i, rest, wantRest)
			}
			if fits := cap(dst) >= len(edges); fits && cap(dst) > 0 && &got[:1][0] != &dst[:1][0] {
				t.Fatalf("case %d, dst cap %d: %d edges decoded into a fresh array", i, cap(dst), len(edges))
			} else if !fits && cap(got) > 0 && cap(dst) > 0 && &got[:1][0] == &dst[:1][0] {
				t.Fatalf("case %d: %d edges decoded into a %d-edge buffer", i, len(edges), cap(dst))
			}
		}
	}

	// Corrupt input: same verdicts as DecodeEdgeBatch, nil result.
	for _, data := range [][]byte{{}, {0x05}, {0x01, 0x80}, {0x01, 0x01}} {
		if got, _, err := DecodeEdgeBatchInto(dirtyDst(3, 10), data); err == nil || got != nil {
			t.Fatalf("corrupt input %v: edges %v, err %v", data, got, err)
		}
	}

	// A stream of batches of mixed sizes through one buffer.
	var wires [][]byte
	for _, n := range []int{300, 1, 120, 0, 299} {
		wires = append(wires, AppendEdgeBatch(nil, big[:n]))
	}
	buf := make([]Edge, 0, len(big))
	allocs := testing.AllocsPerRun(10, func() {
		for j, wire := range wires {
			var err error
			if buf, _, err = DecodeEdgeBatchInto(buf, wire); err != nil {
				t.Fatal(err)
			}
			want, _, _ := DecodeEdgeBatch(wire)
			if len(buf) != len(want) {
				t.Fatalf("batch %d: %d edges, want %d", j, len(buf), len(want))
			}
			for x := range want {
				if buf[x] != want[x] {
					t.Fatalf("batch %d: edge %d is %v, want %v (stale buffer contents?)", j, x, buf[x], want[x])
				}
			}
		}
	})
	// DecodeEdgeBatch above allocates once per non-empty batch; the reused
	// buffer must add nothing to that.
	if allocs > 4 {
		t.Fatalf("reused decode buffer: %.0f allocations per pass, want the oracle's 4", allocs)
	}
}

// TestEdgeBatchSortedBeatsPlain: on a sorted edge list the delta encoding
// must not be larger than plain uvarints of the count and the endpoints
// (generated and ingested edge lists, hence most shards and dataset
// segments, are sorted).
func TestEdgeBatchSortedBeatsPlain(t *testing.T) {
	var edges []Edge
	for u := ID(0); u < 3000; u += 3 {
		edges = append(edges, Edge{u, u + 1}, Edge{u, u + 257})
	}
	SortEdges(edges)
	plain := UvarintLen(uint64(len(edges)))
	for _, e := range edges {
		plain += UvarintLen(uint64(e.U)) + UvarintLen(uint64(e.V))
	}
	if d := len(AppendEdgeBatch(nil, edges)); d > plain {
		t.Fatalf("delta %d bytes > plain %d bytes on sorted input", d, plain)
	}
}

func TestEdgeBatchCorrupt(t *testing.T) {
	for _, data := range [][]byte{
		{},                 // no count
		{0x05},             // count 5, no payload
		{0x01, 0x80},       // truncated varint U
		{0x01, 0x01, 0x80}, // truncated varint V
		{0x01, 0x01},       // count 1, V missing entirely
	} {
		if _, _, err := DecodeEdgeBatch(data); err == nil {
			t.Fatalf("corrupt input %v accepted", data)
		}
	}
	// Each edge takes at least two bytes, so a count above half the bytes
	// left is refused as such before anything is allocated for it: three
	// bytes cannot hold two edges.
	if _, _, err := DecodeEdgeBatch([]byte{0x02, 0x02, 0x02, 0x02}); err == nil || err.Error() != "graph: corrupt edge batch (count 2 too large)" {
		t.Fatalf("two edges in three bytes: err = %v, want the count refused", err)
	}
	if got, _, err := DecodeEdgeBatch([]byte{0x02, 0x02, 0x02, 0x02, 0x02}); err != nil || len(got) != 2 {
		t.Fatalf("two edges in four bytes: %v, err %v", got, err)
	}
	// Negative endpoint: U delta -1 from prev 0. The rejection carries the
	// typed range error.
	neg := binary.AppendVarint(binary.AppendUvarint(nil, 1), -1)
	neg = binary.AppendVarint(neg, 0)
	var ire *IDRangeError
	if _, _, err := DecodeEdgeBatch(neg); err == nil || !errors.As(err, &ire) {
		t.Fatalf("negative endpoint: err = %v, want *IDRangeError", err)
	}
	// Endpoint one past MaxID (V = U + delta overflowing the ID range).
	over := binary.AppendVarint(binary.AppendUvarint(nil, 1), int64(MaxID))
	over = binary.AppendVarint(over, 1)
	if _, _, err := DecodeEdgeBatch(over); err == nil || !errors.As(err, &ire) {
		t.Fatalf("endpoint past MaxID: err = %v, want *IDRangeError", err)
	}
}

// TestEncodersRejectNegativeIDs: every binary encoder (and its accounting
// twin) must panic with the typed *IDRangeError instead of wrapping a
// negative ID through uint32 onto the wire.
func TestEncodersRejectNegativeIDs(t *testing.T) {
	badEdges := []Edge{{0, 1}, {-1, 2}}
	badIDs := []ID{3, -7}
	cases := map[string]func(){
		"AppendEdgeBatch": func() { AppendEdgeBatch(nil, badEdges) },
		"AppendIDs":       func() { AppendIDs(nil, badIDs) },
		"EncodedIDBytes":  func() { EncodedIDBytes(badIDs) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				ire, ok := r.(*IDRangeError)
				if !ok {
					t.Fatalf("panic value %v (%T), want *IDRangeError", r, r)
				}
				if ire.ID >= 0 {
					t.Fatalf("reported ID %d is not the out-of-range one", ire.ID)
				}
			}()
			fn()
			t.Fatal("negative ID encoded without panic")
		})
	}
}

// TestDecodersRejectOversizedIDs: the ID-list codec must reject uvarints
// above MaxID instead of truncating them through uint32 — the decode-side
// half of the same silent-wrap bug.
func TestDecodersRejectOversizedIDs(t *testing.T) {
	var ire *IDRangeError
	huge := uint64(MaxID) + 1
	ids := binary.AppendUvarint(nil, 1)
	ids = binary.AppendUvarint(ids, huge)
	if _, _, err := DecodeIDs(ids); err == nil || !errors.As(err, &ire) {
		t.Fatalf("DecodeIDs: err = %v, want *IDRangeError", err)
	}
	// MaxID itself is fine.
	if got, _, err := DecodeIDs(AppendIDs(nil, []ID{MaxID})); err != nil || got[0] != MaxID {
		t.Fatalf("MaxID id rejected: %v %v", got, err)
	}
}

// edgeBatchSeeds are hand-built batches at the edges of the decoder's fast
// path: deltas of every varint length from 1 to 5 bytes, non-minimal
// encodings (a continuation byte followed by zeros), every prefix of a batch
// with 3-byte deltas, and deltas that land on either side of MaxID.
func edgeBatchSeeds() [][]byte {
	batch := func(deltas ...[]byte) []byte {
		b := binary.AppendUvarint(nil, uint64(len(deltas)/2))
		for _, d := range deltas {
			b = append(b, d...)
		}
		return b
	}
	zz := func(x int64) []byte { return binary.AppendVarint(nil, x) }
	seeds := [][]byte{
		batch(zz(1), zz(-1)),                                                        // 1-byte deltas
		batch(zz(100), zz(-8000)),                                                   // 2-byte
		batch(zz(8192), zz(-1<<20)),                                                 // 3-byte, the widest the fast path decodes
		batch(zz(1<<20), zz(-(1 << 27))),                                            // 4-byte
		batch(zz(1<<27), zz(int64(MaxID))),                                          // 5-byte
		batch(zz(3), zz(1<<20), zz(5), zz(2), zz(0), zz(-1)),                        // mixed lengths, three edges
		batch([]byte{0x80, 0x00}, []byte{0x82, 0x00}),                               // 2-byte non-minimal: 0 and 1
		batch([]byte{0x80, 0x80, 0x00}, []byte{0x81, 0x80, 0x00}),                   // 3-byte non-minimal
		batch([]byte{0x80, 0x80, 0x80, 0x00}, []byte{0x80, 0x80, 0x80, 0x80, 0x00}), // 4 and 5 bytes of zero
		batch(zz(int64(MaxID)), zz(0)),                                              // U = MaxID
		batch(zz(int64(MaxID)), zz(1)),                                              // V one past MaxID
		batch(zz(0), zz(int64(MaxID))),                                              // V = MaxID
		batch(zz(-1), zz(0)),                                                        // U one below 0
		batch(zz(int64(MaxID)+1), zz(-1)),                                           // U one past MaxID, V back in range
	}
	two := batch(zz(2), zz(9000), zz(1), zz(-9000)) // 3-byte V deltas
	for cut := range len(two) + 1 {
		seeds = append(seeds, two[:cut])
	}
	return seeds
}

// FuzzEdgeBatchCodec fuzzes both directions: arbitrary bytes must decode
// exactly as decodeEdgeBatchReference decodes them — the same verdict,
// edges, remainder and error text — whether into a fresh or a dirty buffer,
// and anything that decodes must re-encode to a round-trip-stable batch;
// arbitrary edge lists (derived from the input bytes) must survive
// encode→decode exactly.
func FuzzEdgeBatchCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 0x02, 0x02})
	f.Add(AppendEdgeBatch(nil, []Edge{{0, 1}, {5, 2}, {1 << 30, 0}}))
	f.Add(AppendEdgeBatch(nil, denseBatch()[:64]))
	// ID range boundary seeds: MaxID endpoints (largest legal values, the
	// widest deltas the zigzag codec must carry) and hand-built payloads
	// whose deltas land exactly one past the range in each direction.
	f.Add(AppendEdgeBatch(nil, []Edge{{MaxID, 0}, {0, MaxID}, {MaxID, MaxID}}))
	f.Add(binary.AppendVarint(binary.AppendVarint(binary.AppendUvarint(nil, 1), int64(MaxID)), 1))
	f.Add(binary.AppendVarint(binary.AppendVarint(binary.AppendUvarint(nil, 1), -1), 0))
	for _, seed := range edgeBatchSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: decode arbitrary bytes as the reference does, into a
		// fresh buffer and into a dirty one larger than any batch these
		// bytes can declare; on success the decoded batch must round-trip
		// through the codec.
		ref, refRest, refErr := decodeEdgeBatchReference(data)
		for _, dst := range [][]Edge{nil, dirtyDst(len(data)/2, len(data)+3)} {
			got, rest, err := DecodeEdgeBatchInto(dst, data)
			if fmt.Sprint(err) != fmt.Sprint(refErr) || len(got) != len(ref) || !bytes.Equal(rest, refRest) {
				t.Fatalf("diverged from the reference (dst cap %d): %d edges, rest % x, err %v; want %d, % x, %v",
					cap(dst), len(got), rest, err, len(ref), refRest, refErr)
			}
			if err != nil && got != nil {
				t.Fatalf("error %v came with %d edges", err, len(got))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("diverged from the reference at edge %d: %v vs %v", i, got[i], ref[i])
				}
			}
		}
		if edges := ref; refErr == nil {
			re := AppendEdgeBatch(nil, edges)
			back, rest2, err := DecodeEdgeBatch(re)
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if len(rest2) != 0 || len(back) != len(edges) || (len(edges) > 0 && !reflect.DeepEqual(back, edges)) {
				t.Fatalf("re-decode mismatch: %v vs %v", back, edges)
			}
		}

		// Direction 2: build an edge list from the raw bytes and round-trip it.
		var edges []Edge
		for i := 0; i+8 <= len(data); i += 8 {
			u := ID(binary.LittleEndian.Uint32(data[i:]) &^ (1 << 31))
			v := ID(binary.LittleEndian.Uint32(data[i+4:]) &^ (1 << 31))
			edges = append(edges, Edge{u, v})
		}
		buf := AppendEdgeBatch(nil, edges)
		got, rest, err := DecodeEdgeBatch(buf)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("round trip left %d bytes", len(rest))
		}
		if len(edges) == 0 {
			if got != nil {
				t.Fatalf("empty batch decoded non-nil")
			}
			return
		}
		if !reflect.DeepEqual(got, edges) {
			t.Fatalf("round trip mismatch")
		}
	})
}

// denseBatch is one routed SHARD batch of the dense benchmark shape: G(n, p)
// with n = 16 384 and mean degree 256 in the generator's row order (U
// ascending, then V > U ascending), of which a hash router sends about one
// edge in k = 4 to each machine. It is the first 1 024 edges such a machine
// receives, drawn from a fixed seed, so every call returns the same batch.
func denseBatch() []Edge {
	const n, deg, k, size = 16384, 256, 4, 1024
	r := rand.New(rand.NewPCG(41, 1))
	p := float64(deg) / n / k
	edges := make([]Edge, 0, size)
	for u := ID(0); len(edges) < size; u++ {
		for v := u + 1; v < n && len(edges) < size; v++ {
			if r.Float64() < p {
				edges = append(edges, Edge{u, v})
			}
		}
	}
	return edges
}

// BenchmarkEdgeBatchCodec times the SHARD codec on one dense-shape batch and
// reports ns/edge for each direction: go test -run '^$' -bench EdgeBatchCodec
// ./internal/graph.
func BenchmarkEdgeBatchCodec(b *testing.B) {
	batch := denseBatch()
	wire := AppendEdgeBatch(nil, batch)
	perEdge := func(b *testing.B) { // after b.Loop, b.N is the iterations it ran
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/edge")
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(wire))
		for b.Loop() {
			buf = AppendEdgeBatch(buf[:0], batch)
		}
		perEdge(b)
	})
	b.Run("decode", func(b *testing.B) {
		dst := make([]Edge, 0, len(batch))
		for b.Loop() {
			var err error
			if dst, _, err = DecodeEdgeBatchInto(dst, wire); err != nil {
				b.Fatal(err)
			}
		}
		perEdge(b)
	})
}
