package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {0x01}, bytes.Repeat([]byte{0xAB}, 1<<16)}
	written := 0
	for i, p := range payloads {
		n, err := writeFrame(&buf, byte(i+1), p)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != frameHeaderLen+len(p) {
			t.Fatalf("frame %d: wrote %d bytes, want %d", i, n, frameHeaderLen+len(p))
		}
		written += n
	}
	if buf.Len() != written {
		t.Fatalf("buffer holds %d bytes, accounting says %d", buf.Len(), written)
	}
	for i, p := range payloads {
		typ, payload, n, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(i+1) || n != frameHeaderLen+len(p) || !bytes.Equal(payload, p) {
			t.Fatalf("frame %d: got type %d len %d", i, typ, n)
		}
	}
}

func TestFrameLimits(t *testing.T) {
	if _, err := writeFrame(&bytes.Buffer{}, frameShard, make([]byte, maxFramePayload+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
	// An oversized length prefix must be rejected before allocation.
	hdr := []byte{frameShard, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, _, err := readFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
	// Truncated header and truncated payload.
	if _, _, _, err := readFrame(bytes.NewReader([]byte{frameShard, 0x00})); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, _, _, err := readFrame(bytes.NewReader([]byte{frameShard, 0x00, 0x00, 0x00, 0x05, 0x01})); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// helloVectors are well-formed HELLOs covering every optional part of the
// payload: the UsesBeta tail, the rounds field, the telemetry bit with and
// without a run ID.
var helloVectors = []hello{
	{version: protocolVersion, task: taskMatching, machine: 0, k: 1},
	{version: protocolVersion, task: taskVC, machine: 7, k: 8, known: true, n: 1 << 20},
	{version: protocolVersion, task: taskEDCS, machine: 2, k: 4, known: true, n: 1 << 10, edcs: edcs.ParamsForBeta(32)},
	{version: protocolVersion, task: taskMatching, machine: 1, k: 2, telem: true, runID: "r-00c0ffee"},
	{version: protocolVersion, task: taskEDCS, machine: 0, k: 2, known: true, n: 1 << 8,
		edcs: edcs.ParamsForBeta(16), telem: true}, // telemetry requested with an empty run ID
	{version: protocolVersion, task: taskEDCSRounds, machine: 1, k: 2, known: true, n: 1 << 8,
		edcs: edcs.ParamsForBeta(16), rounds: 3, telem: true, runID: "r-00c0ffee"},
}

// badHellos are HELLOs a worker must reject.
var badHellos = map[string]hello{
	"version":     {version: 99, task: taskMatching, k: 1},
	"task":        {version: protocolVersion, task: 9, k: 1},
	"machine-oob": {version: protocolVersion, task: taskVC, machine: 3, k: 3},
	"zero-k":      {version: protocolVersion, task: taskVC, machine: 0, k: 0},
	"huge-k":      {version: protocolVersion, task: taskVC, machine: 0, k: maxK + 1},
	// n drives an O(n) allocation in the VC machine; a worker that
	// accepted an unbounded count could be crashed by one frame.
	"huge-n": {version: protocolVersion, task: taskVC, k: 1, known: true, n: maxVertices + 1},
	// EDCS params the dynamic subgraph cannot satisfy, or absurdly large.
	"edcs-invalid": {version: protocolVersion, task: taskEDCS, k: 1, edcs: edcs.Params{Beta: 4, BetaMinus: 4}},
	"edcs-huge":    {version: protocolVersion, task: taskEDCS, k: 1, edcs: edcs.Params{Beta: edcs.MaxBeta + 1, BetaMinus: 1}},
	// A round cap outside [1, maxWireRounds] promises a nonsense run length.
	"rounds-zero": {version: protocolVersion, task: taskEDCSRounds, k: 1, edcs: edcs.ParamsForBeta(16)},
	"rounds-huge": {version: protocolVersion, task: taskEDCSRounds, k: 1, edcs: edcs.ParamsForBeta(16), rounds: maxWireRounds + 1},
	// A hostile run ID length must be rejected before allocation.
	"runid-huge": {version: protocolVersion, task: taskMatching, k: 1, telem: true, runID: strings.Repeat("x", maxRunIDLen+1)},
}

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range helloVectors {
		got, err := decodeHello(encodeHello(h))
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip: got %+v want %+v", got, h)
		}
	}
}

func TestHelloRejectsBadFields(t *testing.T) {
	for name, h := range badHellos {
		if _, err := decodeHello(encodeHello(h)); err == nil {
			t.Fatalf("%s: bad HELLO accepted", name)
		}
	}
	if _, err := decodeHello([]byte{protocolVersion}); err == nil {
		t.Fatal("short HELLO accepted")
	}
}

// FuzzDecodeHello: the HELLO decoder reads bytes straight off a socket. It
// must absorb anything, and whatever it accepts must survive a re-encode
// unchanged — the capability tail, the run-ID length, the rounds field and
// the UsesBeta tail included.
func FuzzDecodeHello(f *testing.F) {
	for _, h := range helloVectors {
		f.Add(encodeHello(h))
	}
	for _, h := range badHellos {
		f.Add(encodeHello(h))
	}
	f.Add([]byte{protocolVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHello(data)
		if err != nil {
			return
		}
		again, err := decodeHello(encodeHello(h))
		if err != nil {
			t.Fatalf("accepted HELLO %+v does not re-decode: %v", h, err)
		}
		if again != h {
			t.Fatalf("HELLO changed across a re-encode:\nfirst  %+v\nsecond %+v", h, again)
		}
	})
}

// FuzzDecodeTelem: same contract for the TELEM payload, whose decoder is
// strict (no truncation, no trailing bytes).
func FuzzDecodeTelem(f *testing.F) {
	full := appendTelem(nil, workerTelem{
		decodeNS: 1_500_000, buildNS: 92_000_000, encodeNS: 310_000,
		edgesIn: 4096, repairIters: 17, removals: 9, peakCoreset: 801,
	})
	f.Add(full)
	f.Add(full[:3])
	f.Add(append(append([]byte{}, full...), 0x07))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tm, err := decodeTelem(data)
		if err != nil {
			return
		}
		again, err := decodeTelem(appendTelem(nil, tm))
		if err != nil || again != tm {
			t.Fatalf("TELEM %+v changed across a re-encode: %+v (err %v)", tm, again, err)
		}
	})
}

// dirtyFrameBuf returns a read buffer that has just served a frame longer
// than anything the tests then read into it, so every byte of it is stale.
func dirtyFrameBuf(t testing.TB) (fb *frameBuf, stale []byte) {
	t.Helper()
	var long bytes.Buffer
	_, _ = writeFrame(&long, frameShard, bytes.Repeat([]byte{0xEE}, 256))
	fb = new(frameBuf)
	if _, p, _, err := readFrameInto(&long, fb); err != nil || len(p) != 256 {
		t.Fatalf("priming the read buffer: %d bytes, err %v", len(p), err)
	}
	return fb, bytes.Clone(fb.payload[:cap(fb.payload)])
}

// TestReadFrameIntoDirtyBuffer: the worker reads every mid-run frame into one
// buffer. A short frame after a long one must come back as exactly its own
// bytes, in place; an oversized length prefix must fail before the buffer is
// touched; a truncated payload must hand back nothing; and a longer frame
// must still fit.
func TestReadFrameIntoDirtyBuffer(t *testing.T) {
	fb, _ := dirtyFrameBuf(t)
	var wire bytes.Buffer
	for _, p := range [][]byte{{0x01, 0x02, 0x03}, {}, bytes.Repeat([]byte{0x5A}, 1000)} {
		_, _ = writeFrame(&wire, frameShard, p)
		typ, payload, n, err := readFrameInto(&wire, fb)
		if err != nil || typ != frameShard || n != frameHeaderLen+len(p) {
			t.Fatalf("%d-byte frame: type 0x%02x, %d wire bytes, err %v", len(p), typ, n, err)
		}
		if len(payload) != len(p) || !bytes.Equal(payload, p) {
			t.Fatalf("%d-byte frame read back as %d bytes % x", len(p), len(payload), payload)
		}
		if len(p) > 0 && &payload[0] != &fb.payload[0] {
			t.Fatalf("%d-byte frame was not read into the connection's buffer", len(p))
		}
	}

	fb, stale := dirtyFrameBuf(t)
	held := &fb.payload[0]
	if _, _, _, err := readFrameInto(bytes.NewReader([]byte{frameShard, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}), fb); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
	if &fb.payload[0] != held || !bytes.Equal(fb.payload[:cap(fb.payload)], stale) {
		t.Fatal("an oversized length prefix touched the read buffer")
	}
	if _, payload, _, err := readFrameInto(bytes.NewReader([]byte{frameShard, 0x00, 0x00, 0x00, 0x05, 0x01}), fb); err == nil || payload != nil {
		t.Fatalf("truncated payload came back as % x, err %v", payload, err)
	}
}

// TestKeptFramesAreNeverRecycled: the coordinator holds on to what it reads
// — a TELEM payload while it awaits the CORESET, a CORESET payload while it
// decodes — so its reads must each own their bytes.
func TestKeptFramesAreNeverRecycled(t *testing.T) {
	coord, worker := net.Pipe()
	defer coord.Close()
	telem := appendTelem(nil, workerTelem{decodeNS: 1, buildNS: 2, encodeNS: 3, edgesIn: 4})
	coreset := bytes.Repeat([]byte{0xC5}, len(telem)) // same size: a recycling reader would reuse the array
	go func() {
		defer worker.Close()
		_, _ = writeFrame(worker, frameTelem, telem)
		_, _ = writeFrame(worker, frameCoreset, coreset)
	}()
	_, first, _, err := readFrameDeadline(coord, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, second, _, err := readFrameDeadline(coord, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, telem) || !bytes.Equal(second, coreset) {
		t.Fatalf("the second read disturbed the first: % x, % x", first, second)
	}
	if &first[:1][0] == &second[:1][0] {
		t.Fatal("two kept frames share one buffer")
	}
}

// FuzzReadFrame: the frame reader sees a peer's bytes before any other
// validation. Truncated headers and payloads and oversized length prefixes
// must come back as errors, a frame it accepts must be exactly the bytes on
// the wire, and in no case may one read allocate past maxFramePayload. Every
// input is read twice — into a fresh buffer, as the coordinator reads, and
// into a dirty reused one, as the worker's SHARD loop does — and the two
// must agree: no stale byte of the longer frame the buffer last held may
// show, and an oversized length prefix must leave the buffer as it was.
func FuzzReadFrame(f *testing.F) {
	var ok bytes.Buffer
	_, _ = writeFrame(&ok, frameShard, []byte{0x01, 0x02, 0x03})
	f.Add(ok.Bytes())
	f.Add([]byte{frameShard, 0xFF, 0xFF, 0xFF, 0xFF})           // oversized length prefix
	f.Add([]byte{frameShard, 0x00})                             // truncated header
	f.Add([]byte{frameShard, 0x00, 0x00, 0x00, 0x05, 0x01})     // truncated payload
	f.Add([]byte{frameCoreset, 0x04, 0x00, 0x00, 0x00, 0x01})   // largest legal prefix, truncated
	f.Add([]byte{frameCoreset, 0x04, 0x00, 0x00, 0x01, 0x01})   // one past the limit
	f.Add([]byte{frameEOS, 0x00, 0x00, 0x00, 0x00, 0xAA, 0xBB}) // empty frame, trailing bytes
	var long bytes.Buffer
	_, _ = writeFrame(&long, frameShard, bytes.Repeat([]byte{0xEE}, 300))
	f.Add(long.Bytes())                                                 // longer than the dirty buffer: it must grow
	f.Add([]byte{frameShard, 0x00, 0x00, 0x00, 0x02, 0xEE, 0xEE, 0xEE}) // short frame of the stale byte itself
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		typ, payload, n, err := readFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// Slack for whatever else the test process allocates meanwhile.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFramePayload+1<<20 {
			t.Fatalf("one readFrame allocated %d bytes, limit %d", grew, maxFramePayload)
		}

		fb, stale := dirtyFrameBuf(t)
		held := &fb.payload[0]
		rtyp, rpayload, rn, rerr := readFrameInto(bytes.NewReader(data), fb)
		if (rerr == nil) != (err == nil) || rtyp != typ || rn != n || !bytes.Equal(rpayload, payload) || (rerr != nil && rpayload != nil) {
			t.Fatalf("a reused buffer read (type 0x%02x, %d bytes, % x, err %v), a fresh one (type 0x%02x, %d bytes, % x, err %v)",
				rtyp, rn, rpayload, rerr, typ, n, payload, err)
		}

		if len(data) < frameHeaderLen {
			if err == nil {
				t.Fatal("truncated header accepted")
			}
			return
		}
		size := binary.BigEndian.Uint32(data[1:])
		if size > maxFramePayload && (&fb.payload[0] != held || !bytes.Equal(fb.payload[:cap(fb.payload)], stale)) {
			t.Fatalf("length prefix %d over the limit touched the read buffer", size)
		}
		if size > maxFramePayload || uint64(len(data)-frameHeaderLen) < uint64(size) {
			if err == nil {
				t.Fatalf("frame with length prefix %d over %d payload bytes accepted", size, len(data)-frameHeaderLen)
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed frame rejected: %v", err)
		}
		if typ != data[0] || n != frameHeaderLen+int(size) || !bytes.Equal(payload, data[frameHeaderLen:n]) {
			t.Fatalf("frame type 0x%02x len %d differs from the bytes on the wire", typ, n)
		}
	})
}

// TestWorkerSurvivesHostileFrames: frames that could drive unbounded
// allocations (huge HELLO n, huge EOS n) must be answered with ERROR and
// must not take down the resident worker — it keeps serving honest runs.
func TestWorkerSurvivesHostileFrames(t *testing.T) {
	addrs, shutdown, err := ServeLoopback(1)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	attack := func(send func(conn net.Conn)) {
		conn, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		send(conn)
		typ, _, _, err := readFrame(conn)
		if err != nil || typ != frameError {
			t.Fatalf("hostile frame answered with type 0x%02x err %v, want ERROR", typ, err)
		}
	}
	// Huge vertex count in HELLO (would allocate O(n) VC state).
	attack(func(conn net.Conn) {
		h := hello{version: protocolVersion, task: taskVC, k: 1, known: true, n: maxVertices + 1}
		_, _ = writeFrame(conn, frameHello, encodeHello(h))
	})
	// Valid handshake, then a huge EOS count (would allocate at Finish).
	attack(func(conn net.Conn) {
		h := hello{version: protocolVersion, task: taskMatching, k: 1}
		_, _ = writeFrame(conn, frameHello, encodeHello(h))
		if typ, _, _, err := readFrame(conn); err != nil || typ != frameAck {
			t.Fatalf("handshake failed: type 0x%02x err %v", typ, err)
		}
		var eos [10]byte
		_, _ = writeFrame(conn, frameEOS, eos[:binary.PutUvarint(eos[:], 1<<40)])
	})

	// The worker is still alive and serves an honest run.
	g := gen.GNP(300, 0.05, rng.New(8))
	m, _, err := Solve(context.Background(), stream.NewGraphSource(g), Config{Workers: addrs, Seed: 8}, matchingTask, task.Params{})
	if err != nil || m.Size == 0 {
		t.Fatalf("worker unusable after hostile frames: %v", err)
	}
}

// TestSummaryCodecParity: what a real machine emits must survive the wire
// byte-for-byte — encode then decode reproduces the Summary deep-equal,
// including the nil-versus-empty slice shapes the seed-parity guarantee
// needs (nil levels, non-nil empty coresets and residuals).
func TestSummaryCodecParity(t *testing.T) {
	g := gen.GNP(500, 40.0/500, rng.New(3))
	feed := func(m *stream.Machine, edges []graph.Edge) stream.Summary {
		for _, e := range edges {
			m.Add(e)
		}
		return m.Finish(g.N)
	}
	cases := []struct {
		name     string
		d        *task.Descriptor
		k, nHint int
		edges    []graph.Edge
	}{
		{"matching", matchingTask, 0, 0, g.Edges},
		{"matching-empty", matchingTask, 0, 0, nil},
		{"vc-online-peel", vcTask, 4, g.N, g.Edges},
		{"vc-no-hint", vcTask, 4, 0, g.Edges},
		{"vc-empty", vcTask, 4, g.N, nil},
		{"edcs", edcsTask, 0, g.N, g.Edges},
		{"edcs-empty", edcsTask, 0, 0, nil},
	}
	for _, tc := range cases {
		b := tc.d.NewBuilder(tc.k, tc.nHint, task.Params{EDCS: edcs.ParamsForBeta(8)})
		sum := feed(stream.NewMachine(b), tc.edges)
		got, err := task.DecodeSummary(tc.d, task.AppendSummary(nil, tc.d, sum))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, sum) {
			t.Fatalf("%s: decoded summary differs:\ngot  %+v\nwant %+v", tc.name, got, sum)
		}
	}
}

func TestSummaryCodecCorrupt(t *testing.T) {
	for _, data := range [][]byte{nil, {0x01}, {0x01, 0x01, 0x01}} {
		if _, err := task.DecodeSummary(matchingTask, data); err == nil {
			t.Fatalf("corrupt matching summary %v accepted", data)
		}
		if _, err := task.DecodeSummary(vcTask, data); err == nil {
			t.Fatalf("corrupt vc summary %v accepted", data)
		}
	}
	// Trailing garbage after a valid body must be rejected.
	valid := task.AppendSummary(nil, matchingTask, stream.NewMachine(matchingTask.NewBuilder(0, 0, task.Params{})).Finish(0))
	if _, err := task.DecodeSummary(matchingTask, append(valid, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestWorkerRejectsGarbageHello: a worker must answer a malformed handshake
// with an ERROR frame, not a hang or a crash.
func TestWorkerRejectsGarbageHello(t *testing.T) {
	addrs, shutdown, err := ServeLoopback(1)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := writeFrame(conn, frameHello, []byte{0x63}); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameError || !strings.Contains(string(payload), "HELLO") {
		t.Fatalf("got frame 0x%02x %q, want ERROR about HELLO", typ, payload)
	}
}
