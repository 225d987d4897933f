package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
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
		if n != frameOverhead+len(p) {
			t.Fatalf("frame %d: wrote %d bytes, want %d", i, n, frameOverhead+len(p))
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
		if typ != byte(i+1) || n != frameOverhead+len(p) || !bytes.Equal(payload, p) {
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

// countingWriter counts the Write calls that reach it.
type countingWriter struct {
	io.Writer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Writer.Write(p)
}

// countingConn is a connection that counts the Read and Write calls made on
// it.
type countingConn struct {
	net.Conn
	reads, writes int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// shardBatch is a full routed batch with the dense benchmark shape's deltas:
// runs of 32 edges per U, V spread over 16 000 IDs above it.
func shardBatch() []graph.Edge {
	batch := make([]graph.Edge, stream.DefaultBatchSize)
	for i := range batch {
		batch[i] = graph.Edge{U: graph.ID(i / 32), V: graph.ID(i/32 + 1 + (i*7919)%16000)}
	}
	return batch
}

// TestOneWritePerFrame: a frame reaches its writer in one Write, header and
// payload together — on a TCP connection, where Go sets TCP_NODELAY, every
// Write leaves as a segment of its own. A frame built with newFrame over a
// dirty buffer is byte for byte the one writeFrame copies together.
func TestOneWritePerFrame(t *testing.T) {
	dirty := bytes.Repeat([]byte{0xEE}, 64)
	for _, p := range [][]byte{nil, {0x01}, bytes.Repeat([]byte{0xAB}, 1<<16)} {
		var copied, framed bytes.Buffer
		cw := &countingWriter{Writer: &copied}
		n, err := writeFrame(cw, frameShard, p)
		if err != nil || cw.writes != 1 || n != frameOverhead+len(p) || n != copied.Len() {
			t.Fatalf("%d-byte payload: writeFrame made %d writes of %d bytes (%d on the wire), err %v; want 1 of %d",
				len(p), cw.writes, n, copied.Len(), err, frameOverhead+len(p))
		}
		fw := &countingWriter{Writer: &framed}
		n, err = writeFramed(fw, frameShard, append(newFrame(dirty), p...))
		if err != nil || fw.writes != 1 || n != framed.Len() {
			t.Fatalf("%d-byte payload: writeFramed made %d writes of %d bytes, err %v; want 1", len(p), fw.writes, n, err)
		}
		if !bytes.Equal(framed.Bytes(), copied.Bytes()) {
			t.Fatalf("%d-byte payload: a newFrame frame differs from writeFrame's", len(p))
		}
	}
}

// TestShardSendAllocatesNothing: the coordinator's steady-state SHARD send
// — encode a routed batch into the link's frame buffer, then one Write under
// the per-frame deadline — allocates nothing per frame once the buffer has
// grown to a full batch, writes each frame with one Write, and accounts for
// every byte the worker side receives. With a registry attached the frame
// also lands in the link's pre-resolved counters, still without allocating.
func TestShardSendAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"silent", nil},
		{"registry", obs.NewRegistry()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			received := make(chan int64, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					received <- -1
					return
				}
				defer conn.Close()
				n, _ := io.Copy(io.Discard, conn)
				received <- n
			}()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			cc := &countingConn{Conn: conn}
			s := &Session{iot: Config{}.ioTimeout(), links: []link{{conn: cc}}}
			s.mx = newCoordMetrics(tc.reg, s.links)

			batch := shardBatch()
			l := &s.links[0]
			send := func() {
				if err := s.send(0, frameShard, l.shardFrame(batch)); err != nil {
					t.Fatal(err)
				}
			}
			send() // grows the link's frame buffer to a full batch
			const frames = 200
			if perFrame := testing.AllocsPerRun(frames, send); perFrame != 0 {
				t.Errorf("a steady-state SHARD send allocates %.0f times per frame, want 0", perFrame)
			}
			conn.Close()
			// AllocsPerRun calls once more than it counts, to warm up.
			sent := frames + 2
			frameLen := frameOverhead + len(graph.AppendEdgeBatch(nil, batch))
			if got := <-received; cc.writes != sent || l.sent != sent*frameLen || got != int64(l.sent) {
				t.Fatalf("%d frames of %d bytes took %d writes; the link counted %d bytes and the worker side read %d",
					sent, frameLen, cc.writes, l.sent, got)
			}
			if tc.reg == nil {
				return
			}
			if f, b := l.mx.framesSent.Value(), l.mx.shardBytes.Value(); f != int64(sent) || b != int64(l.sent) {
				t.Fatalf("machine 0's counters read %d frames and %d bytes, want %d and %d", f, b, sent, l.sent)
			}
		})
	}
}

// TestWorkerReadsThroughOneBuffer: a worker reads a connection through one
// buffered reader, the HELLO included. A coordinator that sends its HELLO,
// every SHARD frame and the EOS in one Write, without waiting for the ACK,
// gets the same answer as one that does not, and the worker takes far fewer
// reads than the two per frame an unbuffered reader needs.
func TestWorkerReadsThroughOneBuffer(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	conn := &countingConn{Conn: server}
	served := make(chan error, 1)
	go func() {
		defer server.Close()
		served <- NewWorker(nil).handle(conn)
	}()

	batch := shardBatch()
	const frames = 64
	var wire bytes.Buffer
	_, _ = writeFrame(&wire, frameHello, encodeHello(hello{version: protocolVersion, task: taskVC, k: 1, rounds: 1}))
	shard := graph.AppendEdgeBatch(nil, batch)
	for range frames {
		_, _ = writeFrame(&wire, frameShard, shard)
	}
	_, _ = writeFrame(&wire, frameEOS, binary.AppendUvarint(nil, 16384))
	go func() { _, _ = client.Write(wire.Bytes()) }()

	for _, want := range []byte{frameAck, frameTelem} {
		if typ, payload, _, err := readFrame(client); err != nil || typ != want {
			t.Fatalf("read frame 0x%02x (%q), err %v; want 0x%02x", typ, payload, err, want)
		}
	}
	typ, payload, _, err := readFrame(client)
	if err != nil || typ != frameCoreset {
		t.Fatalf("read frame 0x%02x, err %v; want CORESET", typ, err)
	}
	sum, err := task.DecodeSummary(vcTask, payload)
	if err != nil || sum.Edges != frames*len(batch) {
		t.Fatalf("the worker counted %d edges of %d, err %v", sum.Edges, frames*len(batch), err)
	}
	if err := <-served; err != nil {
		t.Fatalf("handle: %v", err)
	}
	// Every read but the last (the end of the connection) fills up to a
	// whole buffer.
	if most := wire.Len()/workerReadBuffer + 2; conn.reads > most {
		t.Fatalf("%d frames (%d bytes) took %d reads, want at most %d", frames+2, wire.Len(), conn.reads, most)
	}
}

// helloVectors are well-formed HELLOs covering every part of the payload:
// the known-n flag, the UsesBeta tail, round caps of 1 and more, and run IDs
// empty and not.
var helloVectors = []hello{
	{version: protocolVersion, task: taskMatching, machine: 0, k: 1, rounds: 1},
	{version: protocolVersion, task: taskVC, machine: 7, k: 8, known: true, n: 1 << 20, rounds: 1},
	{version: protocolVersion, task: taskEDCS, machine: 2, k: 4, known: true, n: 1 << 10, edcs: edcs.ParamsForBeta(32), rounds: 1},
	{version: protocolVersion, task: taskMatching, machine: 1, k: 2, rounds: 1, runID: "r-00c0ffee"},
	{version: protocolVersion, task: taskEDCSRounds, machine: 1, k: 2, known: true, n: 1 << 8,
		edcs: edcs.ParamsForBeta(16), rounds: 3, runID: "r-00c0ffee"},
	{version: protocolVersion, task: taskDiversity, machine: 2, k: 3, rounds: maxWireRounds},
}

// badHellos are HELLOs a worker must reject, each for the one field named.
var badHellos = map[string]hello{
	"version":     {version: 99, task: taskMatching, k: 1, rounds: 1},
	"task":        {version: protocolVersion, task: 9, k: 1, rounds: 1},
	"machine-oob": {version: protocolVersion, task: taskVC, machine: 3, k: 3, rounds: 1},
	"zero-k":      {version: protocolVersion, task: taskVC, machine: 0, k: 0, rounds: 1},
	"huge-k":      {version: protocolVersion, task: taskVC, machine: 0, k: maxK + 1, rounds: 1},
	// n drives an O(n) allocation in the VC machine; a worker that
	// accepted an unbounded count could be crashed by one frame.
	"huge-n": {version: protocolVersion, task: taskVC, k: 1, known: true, n: maxVertices + 1, rounds: 1},
	// EDCS params the dynamic subgraph cannot satisfy, or absurdly large.
	"edcs-invalid": {version: protocolVersion, task: taskEDCS, k: 1, edcs: edcs.Params{Beta: 4, BetaMinus: 4}, rounds: 1},
	"edcs-huge":    {version: protocolVersion, task: taskEDCS, k: 1, edcs: edcs.Params{Beta: edcs.MaxBeta + 1, BetaMinus: 1}, rounds: 1},
	// A round cap outside [1, maxWireRounds] promises a nonsense run length;
	// every task byte carries one.
	"rounds-zero":      {version: protocolVersion, task: taskMatching, k: 1},
	"rounds-zero-edcs": {version: protocolVersion, task: taskEDCSRounds, k: 1, edcs: edcs.ParamsForBeta(16)},
	"rounds-huge":      {version: protocolVersion, task: taskEDCSRounds, k: 1, edcs: edcs.ParamsForBeta(16), rounds: maxWireRounds + 1},
	// A hostile run ID length must be rejected before allocation.
	"runid-huge": {version: protocolVersion, task: taskMatching, k: 1, rounds: 1, runID: strings.Repeat("x", maxRunIDLen+1)},
}

// badHelloBytes are HELLO payloads no encodeHello call produces.
func badHelloBytes() map[string][]byte {
	valid := encodeHello(helloVectors[3])
	return map[string][]byte{
		"short":    {protocolVersion},
		"trailing": append(bytes.Clone(valid), 0x00),
		// The layout of a single-round HELLO before version 4: no round cap,
		// and nothing after n.
		"no-round-cap": {protocolVersion, taskMatching, 0, 0, 1, 0},
		"run-id-cut":   valid[:len(valid)-1],
		"flags":        append([]byte{protocolVersion, taskMatching, 0x02}, valid[3:]...),
	}
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
	for name, data := range badHelloBytes() {
		if h, err := decodeHello(data); err == nil {
			t.Fatalf("%s: HELLO % x accepted as %+v", name, data, h)
		}
	}
}

// TestAckIsExactlyTheVersion: the ACK is one byte, the protocol version. An
// ACK still carrying the capability byte of version 3, or naming another
// version, is a terminal handshake failure.
func TestAckIsExactlyTheVersion(t *testing.T) {
	for name, payload := range map[string][]byte{
		"capability-byte": {protocolVersion, 0x01},
		"other-version":   {protocolVersion - 1},
		"empty":           {},
	} {
		coord, worker := net.Pipe()
		go func() {
			_, _ = writeFrame(worker, frameAck, payload)
			worker.Close()
		}()
		kind, err := readAck(coord, 0)
		coord.Close()
		if err == nil || kind != KindHandshake {
			t.Errorf("%s: ACK % x read as kind %s, err %v; want a KindHandshake failure", name, payload, kind, err)
		}
	}
}

// FuzzDecodeHello: the HELLO decoder reads bytes straight off a socket. It
// must absorb anything, and whatever it accepts must survive a re-encode
// unchanged — the run ID, the round cap and the UsesBeta tail included. The
// seeds are the golden HELLOs, the round-trip vectors and the rejection
// vectors.
func FuzzDecodeHello(f *testing.F) {
	for _, p := range goldenPayloads(f, frameHello) {
		f.Add(p)
	}
	for _, h := range helloVectors {
		f.Add(encodeHello(h))
	}
	for _, h := range badHellos {
		f.Add(encodeHello(h))
	}
	for _, data := range badHelloBytes() {
		f.Add(data)
	}
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
// strict (no truncation, no trailing bytes). The seeds are the golden TELEM,
// a truncation of it and it with a trailing byte.
func FuzzDecodeTelem(f *testing.F) {
	for _, full := range goldenPayloads(f, frameTelem) {
		f.Add(full)
		f.Add(full[:3])
		f.Add(append(bytes.Clone(full), 0x07))
	}
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
		if err != nil || typ != frameShard || n != frameOverhead+len(p) {
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

// TestReadFrameAllocatesByArrival: a header that declares the largest legal
// payload and then ends, or delivers only part of it, costs what arrived,
// not what it claimed. Each read fails as a truncated frame and allocates
// under four times the payload bytes sent plus 1 MiB.
func TestReadFrameAllocatesByArrival(t *testing.T) {
	for _, sent := range []int{0, 1, frameReadStep, 3 << 20} {
		data := binary.BigEndian.AppendUint32([]byte{frameCoreset}, maxFramePayload)
		data = append(data, bytes.Repeat([]byte{0xAB}, sent)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, payload, _, err := readFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "truncated frame") || payload != nil {
			t.Fatalf("%d of %d payload bytes sent: payload of %d bytes, err %v; want a truncated frame", sent, maxFramePayload, len(payload), err)
		}
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*sent+1<<20); grew >= limit {
			t.Errorf("%d of %d payload bytes sent: the read allocated %d bytes, want under %d", sent, maxFramePayload, grew, limit)
		}
	}
}

// FuzzReadFrame: the frame reader sees a peer's bytes before any other
// validation. Truncated headers, payloads and trailers, oversized length
// prefixes and trailers that do not match must come back as errors (the last
// as a *ChecksumError), a frame it accepts must be exactly the bytes on the
// wire, and no read may allocate more than four times the bytes that
// arrived plus frameReadStep, whatever its length prefix claims (the buffer
// doubles as it fills, so the buffers it discards sum to less than the live
// one, which is under twice what arrived). Every
// input is read twice — into a fresh buffer, as the coordinator reads, and
// into a dirty reused one, as the worker's SHARD loop does — and the two
// must agree: no stale byte of the longer frame the buffer last held may
// show, and an oversized length prefix must leave the buffer as it was. A
// third read goes through the worker's buffered reader over a source that
// yields one byte per Read, so the frame arrives in the smallest pieces a
// connection can deliver; it must agree with the other two, error text
// included. Every golden frame seeds it, beside the malformed frames below.
func FuzzReadFrame(f *testing.F) {
	for _, g := range readGoldens(f) {
		f.Add(g.frame)
	}
	f.Add([]byte{frameShard, 0xFF, 0xFF, 0xFF, 0xFF})           // oversized length prefix
	f.Add([]byte{frameShard, 0x00})                             // truncated header
	f.Add([]byte{frameShard, 0x00, 0x00, 0x00, 0x05, 0x01})     // truncated payload
	f.Add([]byte{frameCoreset, 0x04, 0x00, 0x00, 0x00, 0x01})   // largest legal prefix, truncated
	f.Add([]byte{frameCoreset, 0x04, 0x00, 0x00, 0x01, 0x01})   // one past the limit
	f.Add([]byte{frameEOS, 0x00, 0x00, 0x00, 0x00, 0xAA, 0xBB}) // empty frame, no trailer
	frame := func(typ byte, payload []byte) []byte {
		var b bytes.Buffer
		_, _ = writeFrame(&b, typ, payload)
		return b.Bytes()
	}
	f.Add(append(frame(frameEOS, nil), 0xAA, 0xBB))           // empty frame, trailing bytes
	f.Add(frame(frameShard, bytes.Repeat([]byte{0xEE}, 300))) // longer than the dirty buffer: it must grow
	f.Add(frame(frameShard, []byte{0xEE, 0xEE}))              // short frame of the stale byte itself
	bad := frame(frameShard, []byte{0x01, 0x02, 0x03})
	bad[len(bad)-1] ^= 0x10
	f.Add(bad) // trailer off by a bit
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		typ, payload, n, err := readFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// Slack for whatever else the test process allocates meanwhile.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+frameReadStep+1<<20); grew > limit {
			t.Fatalf("one readFrame of %d bytes allocated %d bytes, limit %d", len(data), grew, limit)
		}

		fb, stale := dirtyFrameBuf(t)
		held := &fb.payload[0]
		rtyp, rpayload, rn, rerr := readFrameInto(bytes.NewReader(data), fb)
		if (rerr == nil) != (err == nil) || rtyp != typ || rn != n || !bytes.Equal(rpayload, payload) || (rerr != nil && rpayload != nil) {
			t.Fatalf("a reused buffer read (type 0x%02x, %d bytes, % x, err %v), a fresh one (type 0x%02x, %d bytes, % x, err %v)",
				rtyp, rn, rpayload, rerr, typ, n, payload, err)
		}

		bfb, _ := dirtyFrameBuf(t)
		br := bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), workerReadBuffer)
		btyp, bpayload, bn, berr := readFrameInto(br, bfb)
		if fmt.Sprint(berr) != fmt.Sprint(err) || btyp != typ || bn != n || !bytes.Equal(bpayload, payload) || (berr != nil && bpayload != nil) {
			t.Fatalf("a buffered one-byte read (type 0x%02x, %d bytes, % x, err %v), a fresh one (type 0x%02x, %d bytes, % x, err %v)",
				btyp, bn, bpayload, berr, typ, n, payload, err)
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
		if size > maxFramePayload || uint64(len(data)-frameHeaderLen) < uint64(size)+frameTrailerLen {
			if err == nil {
				t.Fatalf("frame with length prefix %d over %d payload and trailer bytes accepted", size, len(data)-frameHeaderLen)
			}
			return
		}
		end := frameHeaderLen + int(size)
		if binary.BigEndian.Uint32(data[end:]) != crc32.Checksum(data[:end], castagnoli) {
			var ce *ChecksumError
			if !errors.As(err, &ce) {
				t.Fatalf("frame with a trailer that does not match: err %v, want a *ChecksumError", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed frame rejected: %v", err)
		}
		if typ != data[0] || n != frameOverhead+int(size) || !bytes.Equal(payload, data[frameHeaderLen:end]) {
			t.Fatalf("frame type 0x%02x len %d differs from the bytes on the wire", typ, n)
		}
	})
}

// TestGoldenStreamInHalfReads: neither write nor read granularity is part of
// the protocol. Every golden frame, written back to back into one stream,
// reads back as the same (type, payload, size) sequence when each Read
// delivers only half of what it asks for: directly, as the coordinator
// reads, and through the worker's buffered reader into one reused frame
// buffer, at its own size and at bufio's smallest, where frames straddle
// the buffer's refills.
func TestGoldenStreamInHalfReads(t *testing.T) {
	gs := readGoldens(t)
	var wire []byte
	for _, g := range gs {
		wire = append(wire, g.frame...)
	}
	type reader func() (typ byte, payload []byte, n int, err error)
	buffered := func(size int) func(io.Reader) reader {
		return func(r io.Reader) reader {
			br, fb := bufio.NewReaderSize(r, size), new(frameBuf)
			return func() (byte, []byte, int, error) { return readFrameInto(br, fb) }
		}
	}
	for name, open := range map[string]func(io.Reader) reader{
		"direct":      func(r io.Reader) reader { return func() (byte, []byte, int, error) { return readFrame(r) } },
		"buffered":    buffered(workerReadBuffer),
		"buffered-16": buffered(16),
	} {
		next := open(iotest.HalfReader(bytes.NewReader(wire)))
		for _, g := range gs {
			typ, payload, n, err := next()
			if err != nil || typ != g.frame[0] || n != len(g.frame) || !bytes.Equal(payload, g.frame[frameHeaderLen:len(g.frame)-frameTrailerLen]) {
				t.Fatalf("%s: %s read back as type 0x%02x, %d bytes, err %v", name, g.name, typ, n, err)
			}
		}
		if _, _, _, err := next(); err != io.EOF {
			t.Fatalf("%s: after the last golden: err %v, want io.EOF", name, err)
		}
	}
}

// TestWorkerSurvivesHostileFrames: frames that could drive unbounded
// allocations (huge HELLO n, huge EOS n) or carry bytes past their fields
// must be answered with ERROR and must not take down the resident worker —
// it keeps serving honest runs.
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
		h := hello{version: protocolVersion, task: taskVC, k: 1, known: true, n: maxVertices + 1, rounds: 1}
		_, _ = writeFrame(conn, frameHello, encodeHello(h))
	})
	// Valid handshake, then a huge EOS count (would allocate at Finish).
	attack(func(conn net.Conn) {
		h := hello{version: protocolVersion, task: taskMatching, k: 1, rounds: 1}
		_, _ = writeFrame(conn, frameHello, encodeHello(h))
		if typ, _, _, err := readFrame(conn); err != nil || typ != frameAck {
			t.Fatalf("handshake failed: type 0x%02x err %v", typ, err)
		}
		var eos [10]byte
		_, _ = writeFrame(conn, frameEOS, eos[:binary.PutUvarint(eos[:], 1<<40)])
	})
	// Valid handshake, then an EOS with a byte after its count.
	attack(func(conn net.Conn) {
		h := hello{version: protocolVersion, task: taskMatching, k: 1, rounds: 1}
		_, _ = writeFrame(conn, frameHello, encodeHello(h))
		if typ, _, _, err := readFrame(conn); err != nil || typ != frameAck {
			t.Fatalf("handshake failed: type 0x%02x err %v", typ, err)
		}
		_, _ = writeFrame(conn, frameEOS, []byte{10, 0})
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
	feed := func(b task.Builder, edges []graph.Edge) task.Summary {
		for _, e := range edges {
			b.Add(e)
		}
		sum := b.Finish(g.N)
		sum.Edges = len(edges)
		return sum
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
		sum := feed(b, tc.edges)
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
	valid := task.AppendSummary(nil, matchingTask, matchingTask.NewBuilder(0, 0, task.Params{}).Finish(0))
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
