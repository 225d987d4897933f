package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
)

// setCases are sorted canonical edge multisets the codec must carry exactly:
// empty, single, parallel copies (gap 0), self-loops, rows far apart, and the
// ID range boundary (the largest stride, the largest element).
var setCases = [][]Edge{
	nil,
	{},
	{{0, 0}},
	{{0, 1}, {1, 2}, {2, 3}},
	{{1, 2}, {1, 2}, {1, 2}, {7, 7}, {7, 7}},
	{{0, 9}, {2, 1000000}, {3, 5}, {7, 7}},
	{{0, 1 << 30}, {1 << 30, 1<<30 + 1}},
	{{0, 0}, {0, MaxID}, {1, MaxID}, {MaxID - 1, MaxID - 1}, {MaxID, MaxID}},
	{{MaxID, MaxID}},
	{{0, MaxID}, {MaxID, MaxID}},
}

func TestEdgeSetRoundTrip(t *testing.T) {
	for i, edges := range setCases {
		buf := AppendEdgeSet([]byte{0xAA}, edges) // nonempty dst: append semantics
		if buf[0] != 0xAA {
			t.Fatalf("case %d: dst prefix overwritten", i)
		}
		if want := EdgeSetBytes(edges); want != len(buf)-1 {
			t.Fatalf("case %d: EdgeSetBytes %d, encoding is %d", i, want, len(buf)-1)
		}
		// Whatever follows a set comes back as the remainder, untouched.
		tail := []byte{0xEE, 0xFF, 0x01}
		got, rest, err := DecodeEdgeSet(append(buf[1:len(buf):len(buf)], tail...))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(rest, tail) {
			t.Fatalf("case %d: rest %x, want %x", i, rest, tail)
		}
		if len(edges) == 0 {
			if got != nil {
				t.Fatalf("case %d: empty set decoded to %v", i, got)
			}
		} else if !reflect.DeepEqual(got, edges) {
			t.Fatalf("case %d: got %v want %v", i, got, edges)
		}
	}
}

func TestIDSetRoundTrip(t *testing.T) {
	for i, ids := range [][]ID{
		nil,
		{},
		{0},
		{0, 1, 127, 128, 1 << 20, MaxID},
		{5, 5, 5, 9},
		{MaxID},
		{MaxID, MaxID},
	} {
		buf := AppendIDSet([]byte{0xAA}, ids)
		if want := IDSetBytes(ids); want != len(buf)-1 {
			t.Fatalf("case %d: IDSetBytes %d, encoding is %d", i, want, len(buf)-1)
		}
		got, rest, err := DecodeIDSet(append(buf[1:len(buf):len(buf)], 0xEE))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(rest, []byte{0xEE}) {
			t.Fatalf("case %d: rest %x", i, rest)
		}
		if len(ids) == 0 {
			if got != nil {
				t.Fatalf("case %d: empty set decoded to %v", i, got)
			}
		} else if !reflect.DeepEqual(got, ids) {
			t.Fatalf("case %d: got %v want %v", i, got, ids)
		}
	}
}

// Sets laid end to end decode one after the other: a set's bit stream ends
// at a byte boundary the decoder finds without a length prefix. This is how
// a VC coreset body (levels, then the residual) is read.
func TestSetsConcatenate(t *testing.T) {
	r := rng.New(5)
	var wire []byte
	var levels [][]ID
	for l := 0; l < 6; l++ {
		ids := make([]ID, r.Intn(200))
		for i := range ids {
			ids[i] = ID(r.Intn(5000))
		}
		slices.Sort(ids)
		levels = append(levels, ids)
		wire = AppendIDSet(wire, ids)
	}
	edges := randomEdgeSet(r, 3000, 700)
	wire = AppendEdgeSet(wire, edges)
	for l, want := range levels {
		got, rest, err := DecodeIDSet(wire)
		if err != nil {
			t.Fatalf("level %d: %v", l, err)
		}
		if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("level %d differs", l)
		}
		wire = rest
	}
	got, rest, err := DecodeEdgeSet(wire)
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, edges) {
		t.Fatalf("edge set after the levels: err %v, %d bytes left", err, len(rest))
	}
}

// randomEdgeSet draws m canonical edges over n vertices, with a few parallel
// copies and self-loops, sorted by (U, V).
func randomEdgeSet(r *rng.RNG, n, m int) []Edge {
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		e := Edge{ID(r.Intn(n)), ID(r.Intn(n))}.Canon()
		edges = append(edges, e)
		if r.Intn(50) == 0 && len(edges) < m {
			edges = append(edges, e)
		}
	}
	SortEdges(edges)
	return edges
}

// The encoders take sets of undirected edges: input out of order is a
// programming error, as are an edge with U > V and an unencodable ID, and all
// of them panic rather than emit bytes the decoders would refuse — from the
// size functions as from the encoders, plain and ranked.
func TestSetEncodersPanicOnMisuse(t *testing.T) {
	excluded := [][]ID{{100}}
	for name, fn := range map[string]func(){
		"AppendEdgeSet unsorted U":     func() { AppendEdgeSet(nil, []Edge{{2, 3}, {1, 3}}) },
		"AppendEdgeSet unsorted V":     func() { AppendEdgeSet(nil, []Edge{{1, 5}, {1, 4}}) },
		"EdgeSetBytes unsorted":        func() { EdgeSetBytes([]Edge{{2, 3}, {1, 3}}) },
		"AppendRankedEdgeSet unsorted": func() { AppendRankedEdgeSet(nil, []Edge{{2, 3}, {1, 3}}, excluded) },
		"RankedEdgeSetBytes unsorted":  func() { RankedEdgeSetBytes([]Edge{{1, 5}, {1, 4}}, excluded) },
		"AppendIDSet unsorted":         func() { AppendIDSet(nil, []ID{3, 2}) },
		"IDSetBytes unsorted":          func() { IDSetBytes([]ID{3, 2}) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "order") {
					t.Fatalf("%s: recovered %q, want an ordering panic", name, msg)
				}
			}()
			fn()
		}()
	}
	for name, fn := range map[string]func(){
		"AppendEdgeSet":       func() { AppendEdgeSet(nil, []Edge{{0, 1}, {3, 2}}) },
		"EdgeSetBytes":        func() { EdgeSetBytes([]Edge{{1, 0}}) },
		"AppendRankedEdgeSet": func() { AppendRankedEdgeSet(nil, []Edge{{0, 1}, {3, 2}}, excluded) },
		"RankedEdgeSetBytes":  func() { RankedEdgeSetBytes([]Edge{{MaxID, 0}}, excluded) },
		// Sorted, but reversed: the order check must not be what catches it.
		"AppendEdgeSet sorted": func() { AppendEdgeSet(nil, []Edge{{1, 0}, {2, 1}}) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "U > V") {
					t.Fatalf("%s: recovered %q, want the U > V panic", name, msg)
				}
			}()
			fn()
		}()
	}
	for name, fn := range map[string]func(){
		"AppendEdgeSet": func() { AppendEdgeSet(nil, []Edge{{0, 1}, {3, -2}}) },
		"EdgeSetBytes":  func() { EdgeSetBytes([]Edge{{-1, 1}}) },
		"AppendIDSet":   func() { AppendIDSet(nil, []ID{-4, 2}) },
		"IDSetBytes":    func() { IDSetBytes([]ID{-4}) },
	} {
		func() {
			defer func() {
				if _, ok := recover().(*IDRangeError); !ok {
					t.Fatalf("%s: negative ID did not panic with *IDRangeError", name)
				}
			}()
			fn()
		}()
	}
}

// triRowOf finds the row of every element of small triangles, and of
// elements at both ends of each row up to the largest stride, where the
// square root it starts from is least exact.
func TestTriRowOf(t *testing.T) {
	for s := uint64(1); s <= 200; s++ {
		x := uint64(0)
		for u := uint64(0); u < s; u++ {
			if base := triBase(u, s); base+u != x {
				t.Fatalf("s=%d: row %d starts at %d, want %d", s, u, base+u, x)
			}
			for v := u; v < s; v, x = v+1, x+1 {
				if got := triRowOf(x, s); got != u {
					t.Fatalf("s=%d: element %d is in row %d, not %d", s, x, got, u)
				}
			}
		}
		if x != s*(s+1)/2 {
			t.Fatalf("s=%d: %d elements, want s(s+1)/2", s, x)
		}
	}
	r := rng.New(3)
	for _, s := range []uint64{1 << 20, 1<<31 - 1, 1 << 31} {
		for i := 0; i < 2000; i++ {
			u := uint64(r.Intn(int(s)))
			if i%4 == 0 {
				u = s - 1 - uint64(i/4%64)
			}
			first, last := triBase(u, s)+u, triBase(u, s)+s-1
			for _, x := range []uint64{first, last} {
				if got := triRowOf(x, s); got != u {
					t.Fatalf("s=%d: element %d is in row %d, not %d", s, x, got, u)
				}
			}
		}
	}
}

// setWire hand-builds a set encoding: the header fields given, then the
// gaps Rice-coded with parameter k whatever the canonical one would be.
func setWire(count uint64, stride int64, k uint, gaps []uint64, pad byte) []byte {
	w := setWriter{k: k}
	w.uvarint(count)
	if stride >= 0 {
		w.uvarint(uint64(stride))
	}
	w.buf = append(w.buf, byte(k))
	for _, d := range gaps {
		w.gap(d)
	}
	if pad != 0 { // set the padding bits of the last byte
		w.acc |= uint64(pad) << w.n
	}
	w.end()
	return w.buf
}

// Every way a peer's bytes can fail to be the encoding of a set is an error:
// the decoders accept exactly what the encoders emit.
func TestSetDecodersRejectCorruptInput(t *testing.T) {
	valid := AppendEdgeSet(nil, []Edge{{0, 3}, {1, 2}, {4, 4}}) // stride 5, elements 3 6 14 of 15, k 2
	if want := setWire(3, 5, 2, []uint64{3, 3, 8}, 0); !bytes.Equal(valid, want) {
		t.Fatalf("the hand-built encoder disagrees with AppendEdgeSet: %x vs %x", want, valid)
	}
	// Seven one-bit codes and a sixteen-bit one: cut short by a byte, the
	// count still fits what is left, and only the last code finds the end.
	long := AppendEdgeSet(nil, []Edge{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 15}})
	type corrupt struct {
		data []byte
		why  string // what the error must say
	}
	edgeCases := map[string]corrupt{
		"empty input":                 {[]byte{}, "count"},
		"count only":                  {[]byte{0x03}, "stride"},
		"unterminated count":          {[]byte{0x80}, "count"},
		"no parameter":                {[]byte{0x03, 0x05}, "truncated header"},
		"stride 0":                    {setWire(1, 0, 0, []uint64{0}, 0), "stride"},
		"stride above MaxID+1":        {setWire(1, int64(MaxID)+2, 0, []uint64{0}, 0), "stride"},
		"parameter 57":                {append([]byte{0x01, 0x05, 57}, make([]byte, 16)...), "parameter 57 out of range"},
		"count the bytes cannot hold": {append(binary.AppendUvarint(nil, 1<<40), 0x05, 0x00, 0xff), "too large"},
		"count 9 in one byte":         {[]byte{0x09, 0x01, 0x00, 0xff}, "count 9 too large"},
		"padded count":                {append([]byte{0x83, 0x00}, valid[1:]...), "count"},
		"padded stride":               {append([]byte{0x03, 0x85, 0x00}, valid[2:]...), "stride"},
		"truncated bit stream":        {long[:len(long)-1], "truncated bit stream"},
		"all zero bits":               {[]byte{0x01, 0x07, 0x00, 0x00, 0x00, 0x00}, "truncated bit stream"},
		"element at s(s+1)/2":         {setWire(1, 5, 3, []uint64{15}, 0), "out of range"},
		"row past the stride":         {setWire(2, 5, 3, []uint64{14, 1}, 0), "out of range"},
		"gap overflowing uint64":      {append([]byte{0x01, 0x05, 56}, append(make([]byte, 40), 0xff)...), "out of range"},
		"nonzero padding":             {setWire(3, 5, 2, []uint64{3, 3, 8}, 1), "nonzero padding"},
		"stride larger than needed":   {setWire(3, 6, 2, []uint64{3, 4, 11}, 0), "stride 6 is not the canonical 5"}, // the same edges under stride 6
		"parameter not canonical":     {setWire(3, 5, 1, []uint64{3, 3, 8}, 0), "parameter 1 is not the canonical 2"},
	}
	for name, c := range edgeCases {
		if got, _, err := DecodeEdgeSet(c.data); err == nil || got != nil || !strings.Contains(err.Error(), c.why) {
			t.Errorf("DecodeEdgeSet %s (%x): edges %v, err %v, want one about %q", name, c.data, got, err, c.why)
		}
	}
	longIDs := AppendIDSet(nil, []ID{0, 0, 0, 0, 0, 0, 0, 15})
	idCases := map[string]corrupt{
		"empty input":             {[]byte{}, "count"},
		"count only":              {[]byte{0x03}, "truncated header"},
		"parameter 57":            {append([]byte{0x01, 57}, make([]byte, 16)...), "parameter 57 out of range"},
		"count too large":         {append(binary.AppendUvarint(nil, 1<<40), 0x00, 0xff), "too large"},
		"padded count":            {append([]byte{0x83, 0x00}, AppendIDSet(nil, []ID{3, 7, 24})[1:]...), "count"},
		"truncated bit stream":    {longIDs[:len(longIDs)-1], "truncated bit stream"},
		"id above MaxID":          {setWire(1, -1, 31, []uint64{uint64(MaxID) + 1}, 0), "outside the encodable range"},
		"gap overflowing uint64":  {append([]byte{0x01, 56}, append(make([]byte, 40), 0xff)...), "out of range"},
		"nonzero padding":         {setWire(3, -1, 3, []uint64{3, 4, 17}, 1), "nonzero padding"},
		"parameter not canonical": {setWire(3, -1, 4, []uint64{3, 4, 17}, 0), "parameter 4 is not the canonical 3"},
	}
	for name, c := range idCases {
		if got, _, err := DecodeIDSet(c.data); err == nil || got != nil || !strings.Contains(err.Error(), c.why) {
			t.Errorf("DecodeIDSet %s (%x): ids %v, err %v, want one about %q", name, c.data, got, err, c.why)
		}
	}
	var ire *IDRangeError
	if _, _, err := DecodeIDSet(idCases["id above MaxID"].data); !errors.As(err, &ire) || ire.ID != int64(MaxID)+1 {
		t.Errorf("id above MaxID: err %v, want *IDRangeError naming it", err)
	}
}

// A decoder allocates for what the bytes in hand can hold, never for what
// their header claims: the largest honest expansion is one element a bit.
// The allocation is the least of five refusals, so that whatever else the
// process allocates during one of them (a collection, a pool refill, another
// package's tests loading the machine) does not decide the test; a decoder
// that allocates by the claimed count does so on every call.
func TestSetDecodeAllocatesByInputNotByCount(t *testing.T) {
	hostile := append(binary.AppendUvarint(nil, 1<<33), 0x02, 0x00) // 2^33 edges claimed
	hostile = append(hostile, bytes.Repeat([]byte{0xff}, 1<<10)...)
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, errE := DecodeEdgeSet(hostile)
		_, _, errR := DecodeRankedEdgeSet(hostile, [][]ID{{3}})
		_, _, errI := DecodeIDSet(hostile)
		runtime.ReadMemStats(&after)
		if errE == nil || errR == nil || errI == nil {
			t.Fatal("a count beyond the input was accepted")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 1<<12 {
		t.Fatalf("refusing a %d-byte input allocated %d bytes", len(hostile), least)
	}
}

func log2Binomial(n, m float64) float64 {
	lg := func(x float64) float64 { v, _ := math.Lgamma(x + 1); return v }
	return (lg(n) - lg(m) - lg(n-m)) / math.Ln2
}

// The byte budget of the primitive, as an ordinary test: on uniform random
// m-subsets of a universe of N the bit stream stays within 15 % of the
// information bound, from a single element up to half the universe. Up to a
// quarter of the universe the bound is that of sets, log2 C(N, m). Beyond it
// the bound is that of multisets, log2 C(N+m-1, m), because that is what the
// codec carries (gap 0 is an element too, and costs a dense set of distinct
// elements up to a third more than a coder that could exclude it). The
// allowance on top is the final byte's padding.
func TestSetCodecStaysNearInformationBound(t *testing.T) {
	const slack = 1.15
	check := func(name string, universe float64, m, headerBytes, totalBytes int) {
		t.Helper()
		bound := log2Binomial(universe, float64(m))
		if float64(m) > universe/4 {
			bound = log2Binomial(universe+float64(m)-1, float64(m))
		}
		bits := 8 * (totalBytes - headerBytes)
		if float64(bits) > slack*bound+8 {
			t.Errorf("%s m=%d: %d bits (%.2f per element), bound %.0f (%.2f per element): %.1f %% over",
				name, m, bits, float64(bits)/float64(m), bound, bound/float64(m), 100*(float64(bits)/bound-1))
		}
	}
	r := rng.New(11)
	// ID sets: m of the N = 2^16 ids, without repetition.
	const n = 1 << 16
	perm := make([]ID, n)
	for i := range perm {
		perm[i] = ID(i)
	}
	for m := 1; m <= n/2; m *= 2 {
		for trial := 0; trial < 4; trial++ {
			r.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			ids := slices.Clone(perm[:m])
			slices.Sort(ids)
			header := UvarintLen(uint64(m)) + 1
			check("id set", n, m, header, IDSetBytes(ids))
		}
	}
	// Edge sets: m of the N = side(side+1)/2 canonical pairs U <= V over 1024
	// vertices, drawn uniformly.
	const side = 1 << 10
	const pairs = side * (side + 1) / 2
	for m := 1; m <= pairs/2; m *= 4 {
		seen := make(map[Edge]bool, m)
		edges := make([]Edge, 0, m+2)
		// The corners pin the stride, so the universe is exactly the triangle.
		for _, e := range []Edge{{0, 0}, {side - 1, side - 1}} {
			seen[e] = true
			edges = append(edges, e)
		}
		for len(edges) < m+2 {
			if e := (Edge{ID(r.Intn(side)), ID(r.Intn(side))}); e.U <= e.V && !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
		SortEdges(edges)
		header := UvarintLen(uint64(len(edges))) + UvarintLen(side) + 1
		check("edge set", pairs, len(edges), header, EdgeSetBytes(edges))
	}
}

// prefixCuts lists the lengths a wire of n bytes is truncated to: every
// proper prefix of a short one, some sixty spread over a long one, and always
// the one that drops only the last byte.
func prefixCuts(n int) []int {
	var cuts []int
	for cut := 0; cut < n-1; cut += max(1, n/64) {
		cuts = append(cuts, cut)
	}
	if n > 0 {
		cuts = append(cuts, n-1)
	}
	return cuts
}

// fuzzExcluded draws the excluded sets of the ranked codec from the raw
// bytes: IDs below 4096, in two overlapping sets, so the encoder's rank
// table stays small whatever the input.
func fuzzExcluded(data []byte) [][]ID {
	ex := make([][]ID, 2)
	for i := 0; i+2 <= len(data); i += 5 {
		ex[i%2] = append(ex[i%2], ID(binary.LittleEndian.Uint16(data[i:])&0xfff))
	}
	return ex
}

// FuzzEdgeSetCodec fuzzes the set decoders — edge, ID and ranked edge — in
// both directions. Arbitrary bytes must decode without panicking, allocating
// no more than a stated multiple of the input — an edge is 8 bytes and can
// arrive as one bit, so the multiple is 64, plus the allocator's rounding —
// and anything accepted must be the canonical encoding of what it decoded to:
// re-encoding gives back exactly the bytes consumed, and the size function
// their number. Sorted canonical sets built from the input (and, for the
// ranked codec, excluded sets drawn from it, with the edges that touch them
// dropped) must survive encode→decode exactly, with the size function equal
// to the encoding's length; every proper prefix of their encoding must be
// refused, and bytes appended to it must come back as the remainder.
func FuzzEdgeSetCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 0x05, 0x00, 0xff})
	for _, edges := range setCases {
		f.Add(AppendEdgeSet(nil, edges))
	}
	f.Add(AppendIDSet(nil, []ID{0, 1, 127, 128, 1 << 20, MaxID}))
	f.Add(setWire(3, 5, 2, []uint64{3, 3, 8}, 1))                                    // nonzero padding
	f.Add(setWire(2, 5, 3, []uint64{14, 1}, 0))                                      // element past the triangle
	f.Add(AppendEdgeSet(nil, []Edge{{0, 2}, {4, 6}, {4, 8}}))                        // a gap over several rows
	f.Add(append([]byte{0x01, 0x05, 56}, append(make([]byte, 40), 0xff)...))         // uint64 overflow
	f.Add(append(binary.AppendUvarint(nil, 1<<40), 0x05, 0x00, 0xff))                // count beyond the input
	f.Add(append([]byte{0x01, 0x05, 57}, make([]byte, 16)...))                       // k out of range
	f.Add(append(AppendEdgeSet(nil, []Edge{{0, 3}, {1, 2}, {4, 4}}), 0xde, 0xad))    // trailing bytes
	f.Add(bytes.Repeat([]byte{0xff}, 64))                                            // one bit per element
	f.Add(binary.LittleEndian.AppendUint64(make([]byte, 24), 0x8000_0000_7fff_ffff)) // direction 2 at the ID boundary
	f.Fuzz(func(t *testing.T, data []byte) {
		excluded := fuzzExcluded(data)

		// Direction 1: arbitrary bytes.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		edges, edgeRest, edgeErr := DecodeEdgeSet(data)
		ids, idRest, idErr := DecodeIDSet(data)
		ranked, rankedRest, rankedErr := DecodeRankedEdgeSet(data, excluded)
		runtime.ReadMemStats(&after)
		if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(3*80*len(data)+1<<16); got > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), got, budget)
		}
		if edgeErr == nil {
			consumed := data[:len(data)-len(edgeRest)]
			if re := AppendEdgeSet(nil, edges); !bytes.Equal(re, consumed) {
				t.Fatalf("accepted a non-canonical edge set: %x re-encodes to %x", consumed, re)
			}
			if EdgeSetBytes(edges) != len(consumed) {
				t.Fatalf("EdgeSetBytes %d, consumed %d", EdgeSetBytes(edges), len(consumed))
			}
		} else if edges != nil || edgeRest != nil {
			t.Fatalf("DecodeEdgeSet failed (%v) and still returned %d edges, %d bytes", edgeErr, len(edges), len(edgeRest))
		}
		if idErr == nil {
			consumed := data[:len(data)-len(idRest)]
			if re := AppendIDSet(nil, ids); !bytes.Equal(re, consumed) {
				t.Fatalf("accepted a non-canonical ID set: %x re-encodes to %x", consumed, re)
			}
			if IDSetBytes(ids) != len(consumed) {
				t.Fatalf("IDSetBytes %d, consumed %d", IDSetBytes(ids), len(consumed))
			}
		} else if ids != nil || idRest != nil {
			t.Fatalf("DecodeIDSet failed (%v) and still returned %d ids, %d bytes", idErr, len(ids), len(idRest))
		}
		if rankedErr == nil {
			consumed := data[:len(data)-len(rankedRest)]
			if re := AppendRankedEdgeSet(nil, ranked, excluded); !bytes.Equal(re, consumed) {
				t.Fatalf("accepted a non-canonical ranked edge set: %x re-encodes to %x", consumed, re)
			}
			if RankedEdgeSetBytes(ranked, excluded) != len(consumed) {
				t.Fatalf("RankedEdgeSetBytes %d, consumed %d", RankedEdgeSetBytes(ranked, excluded), len(consumed))
			}
		} else if ranked != nil || rankedRest != nil {
			t.Fatalf("DecodeRankedEdgeSet failed (%v) and still returned %d edges, %d bytes", rankedErr, len(ranked), len(rankedRest))
		}

		// Direction 2: a sorted canonical edge multiset and a sorted ID
		// multiset built from the raw bytes, and for the ranked codec the
		// same edges folded below 4096 less those touching an excluded ID.
		out := make(map[ID]bool)
		for _, set := range excluded {
			for _, v := range set {
				out[v] = true
			}
		}
		var set, small []Edge
		var idSet []ID
		for i := 0; i+8 <= len(data); i += 8 {
			u := ID(binary.LittleEndian.Uint32(data[i:]) &^ (1 << 31))
			v := ID(binary.LittleEndian.Uint32(data[i+4:]) &^ (1 << 31))
			set = append(set, Edge{u, v}.Canon())
			idSet = append(idSet, u, v)
			if e := (Edge{u & 0xfff, v & 0xfff}.Canon()); !out[e.U] && !out[e.V] {
				small = append(small, e)
			}
		}
		SortEdges(set)
		SortEdges(small)
		slices.Sort(idSet)
		tail := []byte{0xde, 0xad, 0xbe, 0xef}

		wire := AppendEdgeSet(nil, set)
		if len(wire) != EdgeSetBytes(set) {
			t.Fatalf("EdgeSetBytes %d != encoding %d", EdgeSetBytes(set), len(wire))
		}
		got, rest, err := DecodeEdgeSet(append(wire[:len(wire):len(wire)], tail...))
		if err != nil || !bytes.Equal(rest, tail) || !slices.Equal(got, set) {
			t.Fatalf("edge set round trip: err %v, rest %x, %d of %d edges", err, rest, len(got), len(set))
		}
		for _, cut := range prefixCuts(len(wire)) {
			if _, _, err := DecodeEdgeSet(wire[:cut]); err == nil {
				t.Fatalf("edge set truncated to %d of %d bytes accepted", cut, len(wire))
			}
		}

		wire = AppendRankedEdgeSet(nil, small, excluded)
		if len(wire) != RankedEdgeSetBytes(small, excluded) {
			t.Fatalf("RankedEdgeSetBytes %d != encoding %d", RankedEdgeSetBytes(small, excluded), len(wire))
		}
		got, rest, err = DecodeRankedEdgeSet(append(wire[:len(wire):len(wire)], tail...), excluded)
		if err != nil || !bytes.Equal(rest, tail) || !slices.Equal(got, small) {
			t.Fatalf("ranked edge set round trip: err %v, rest %x, %d of %d edges", err, rest, len(got), len(small))
		}
		for _, cut := range prefixCuts(len(wire)) {
			if _, _, err := DecodeRankedEdgeSet(wire[:cut], excluded); err == nil {
				t.Fatalf("ranked edge set truncated to %d of %d bytes accepted", cut, len(wire))
			}
		}

		wire = AppendIDSet(nil, idSet)
		if len(wire) != IDSetBytes(idSet) {
			t.Fatalf("IDSetBytes %d != encoding %d", IDSetBytes(idSet), len(wire))
		}
		gotIDs, rest, err := DecodeIDSet(append(wire[:len(wire):len(wire)], tail...))
		if err != nil || !bytes.Equal(rest, tail) || !slices.Equal(gotIDs, idSet) {
			t.Fatalf("ID set round trip: err %v, rest %x, %d of %d ids", err, rest, len(gotIDs), len(idSet))
		}
		for _, cut := range prefixCuts(len(wire)) {
			if _, _, err := DecodeIDSet(wire[:cut]); err == nil {
				t.Fatalf("ID set truncated to %d of %d bytes accepted", cut, len(wire))
			}
		}
	})
}
