package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"

	"repro/internal/edcs"
	"repro/internal/graph"
	"repro/internal/task"
)

// Wire protocol. Every message is one frame:
//
//	[1 byte type][4 bytes big-endian payload length][payload][4 bytes CRC]
//
// where the trailer is the big-endian CRC-32C (Castagnoli) of the header and
// the payload. A frame whose trailer does not match is refused whole: a bit
// flipped on the way cannot turn into a different shard or coreset, and the
// reader reports a *ChecksumError, which the coordinator treats like a lost
// connection (KindConn) and so replays.
//
// The coordinator holds one session per run: one TCP connection per worker,
// one HELLO on each, and then up to the session's round cap of rounds on the
// same connections. A connection therefore speaks
//
//	coordinator -> worker   HELLO      version, task byte, flags (bit 0: n
//	                                   known upfront), machine, k, n,
//	                                   [β, β⁻ for UsesBeta tasks], round cap,
//	                                   run ID (length-prefixed, may be empty)
//	worker -> coordinator   ACK        the protocol version, nothing else
//
// followed by one or more rounds, each with a fresh machine on the worker:
//
//	coordinator -> worker   SHARD*     varint delta edge batch (graph codec)
//	coordinator -> worker   EOS        final vertex count
//	worker -> coordinator   TELEM      phase timings + build counters
//	worker -> coordinator   CORESET    per-machine stats + coreset body (task codec)
//
// There is one layout and nothing is negotiated: every HELLO carries every
// field but the UsesBeta pair, and every EOS is answered by TELEM and then
// CORESET. A single-round run is the session with a round cap of 1. Because
// the coordinator of a multi-round run cannot know the final round count
// upfront (its early exit fires when the union stops shrinking) and may drop
// a machine from later rounds (the schedule shrinks k), it ends an
// assignment by closing the connection at a round boundary, which the worker
// treats as a clean end. TELEM bytes are excluded from the coreset
// communication accounting (TotalCommBytes) — they are measurement overhead,
// not algorithm traffic — and are tracked under their own metric instead.
//
// Retry is a re-handshake, not a frame: workers are stateless across
// connections, so a coordinator replaying a lost round simply dials again
// and speaks a fresh HELLO for the same machine index, with the round cap
// reduced to the rounds still owed, current round included.
//
// Either side may substitute ERROR (UTF-8 message) for its next frame and
// close.
//
// The protocol is the byte stream, not how it is cut. Each side writes a
// frame with one Write, header and payload together (newFrame reserves the
// header in front of the payload's encode buffer, writeFramed fills it in),
// and a worker reads its connection through one buffered reader; but a peer
// may split or merge frames across writes and reads in any way, and the bytes
// are exactly version 5's either way (TestGoldenStreamInHalfReads).
//
// Two codecs carry edges. SHARD payloads are graph.AppendEdgeBatch, which
// preserves order: a machine's coreset is a function of its arrival order, so
// a shard must arrive as it was routed. A CORESET payload is three uvarint
// stats (received, stored, live) and then the task's body (task.AppendSummary):
// for every summary whose order is not information — matchings, EDCSs, the
// peeled levels and the residual of a VC coreset — that is the sorted-set
// codec (graph.AppendEdgeSet / AppendIDSet / AppendRankedEdgeSet),
// Golomb–Rice coded gaps at about half the bytes of an order-preserving list,
// each undirected edge numbered in the upper triangle U <= V; the diversity
// centers keep their selection order in graph.AppendIDs. The simulated
// accounting charges the same functions, and Summary.Bytes is the exact
// length of the body, so a measured CORESET frame is its estimate plus the
// 9 bytes of frame header and trailer and the stats varints, to the byte.
//
// Version 2 is version 1 with the CORESET bodies moved from the delta batch
// codec to the sorted-set codec; version 3 sends the vc residual in the rank
// space of the vertices its levels did not fix (core.AppendVCCoreset);
// version 4 drops the telemetry negotiation and gives HELLO one layout;
// version 5 numbers the edges of a set in the upper triangle U <= V instead
// of the stride×stride square, about a bit an edge less, and closes every
// frame with the CRC-32C trailer. A
// body does not describe its own format, so the version is compared for
// equality at the HELLO, the one place peers meet: a worker answers any
// other version with an ERROR naming both, which the coordinator reports as
// a KindHandshake failure — terminal, since every replay would be refused
// the same way. Every frame's bytes are pinned per version by the goldens
// in testdata/v<protocolVersion>/ (TestWireGoldens), so a layout change
// without a bump, or a bump without regenerated goldens, fails a test.

const protocolVersion = 5

// Frame types.
const (
	frameHello byte = iota + 1
	frameAck
	frameShard
	frameEOS
	frameCoreset
	frameError
	frameTelem
)

// helloFlagKnown is the one HELLO flag bit (byte 2 of the payload): the
// vertex count was declared upfront. Every other bit must be clear.
const helloFlagKnown byte = 1 << 0

// maxRunIDLen bounds the run ID a worker accepts in HELLO; run IDs here are
// "r-%08x" (10 bytes), so the cap exists purely against hostile frames.
const maxRunIDLen = 128

// Task bytes carried in HELLO. The byte assignments live in the task registry
// (internal/task): Descriptor.Wire is the HELLO task byte and
// Descriptor.WireRounds the byte a multi-round session announces, which
// differs from it only in the worker's span label; both encodeHello and
// decodeHello resolve the byte through task.ByWire rather than a task switch
// (TestTaskBytesMatchRegistry pins the assigned values), and only UsesBeta
// changes what the HELLO carries. Peers that predate a byte reject the
// unknown task, so registering one needs no protocol version bump.

// taskName returns a task byte's human name for logs and trace spans.
func taskName(tb byte) string {
	if d, multiRound, ok := task.ByWire(tb); ok {
		if multiRound {
			return d.Name + "-rounds"
		}
		return d.Name
	}
	return fmt.Sprintf("task-0x%02x", tb)
}

// UnknownTaskError is the typed rejection for a HELLO carrying a task byte
// the task registry does not know. It names the offending byte and the
// registry's known bytes, so a version-skewed peer's operator can
// see at a glance whether the byte is from a newer task or plain corruption.
type UnknownTaskError struct {
	Task  byte   // the unknown task byte
	Known string // the registry's known wire bytes, e.g. "0x01, 0x02, 0x03, 0x04, 0x05"
}

func (e *UnknownTaskError) Error() string {
	return fmt.Sprintf("cluster: unknown task 0x%02x (known tasks %s)", e.Task, e.Known)
}

// Kind classifies the failure: a protocol violation, never retryable (a
// deterministic replay would present the same byte).
func (e *UnknownTaskError) Kind() FailureKind { return KindProtocol }

// maxFramePayload bounds a single frame so a corrupt or hostile peer cannot
// make the receiver allocate without bound. 64 MiB is far above any batch or
// coreset message in this repository (coresets are O~(n) edges).
const maxFramePayload = 1 << 26

// maxVertices bounds the vertex counts a worker accepts in HELLO and EOS
// frames. Per-machine VC state is O(n), so an unvalidated count would be the
// one allocation the frame-size limit cannot catch. Matches the service
// layer's MaxGraphN.
const maxVertices = 1 << 28

// maxK bounds the machine count in HELLO; far above any deployment here.
const maxK = 1 << 20

// maxWireRounds bounds the round cap a worker accepts in a HELLO. The paper's schedule needs O(log log n) rounds, so anything near
// this cap is already nonsense; it exists so a corrupt frame cannot promise
// an absurd run length.
const maxWireRounds = 1 << 10

// A frame's header and trailer lengths, and what the two add to a payload.
const (
	frameHeaderLen  = 5
	frameTrailerLen = 4
	frameOverhead   = frameHeaderLen + frameTrailerLen
)

// castagnoli is the CRC-32C table of the frame trailer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumError reports a frame whose CRC-32C trailer does not match its
// header and payload. The stream it came from cannot be trusted past it, so
// the coordinator treats it like a lost connection (KindConn): the machine's
// round is replayed on a fresh one.
type ChecksumError struct {
	Type      byte   // the frame type the (corrupt) header names
	Got, Want uint32 // the trailer read, the CRC of what it covers
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("cluster: frame 0x%02x fails its checksum (trailer %08x, computed %08x)", e.Type, e.Got, e.Want)
}

// newFrame empties buf and reserves a frame header at its front. The caller
// appends the payload behind it and hands the result to writeFramed, which
// fills the header in and appends the trailer: a frame built this way leaves
// in one Write, with no copy and, once buf has grown to the largest frame
// plus its trailer, no allocation.
func newFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0, 0) }

// writeFramed writes frame, a header reserved by newFrame followed by the
// payload, as one frame of type typ in a single Write, and returns the exact
// bytes put on the wire. The trailer is appended in frame's spare capacity,
// so a caller reusing its buffer leaves frameTrailerLen bytes of it.
func writeFramed(w io.Writer, typ byte, frame []byte) (int, error) {
	size := len(frame) - frameHeaderLen
	if size > maxFramePayload {
		return 0, fmt.Errorf("cluster: frame payload %d exceeds limit", size)
	}
	frame[0] = typ
	binary.BigEndian.PutUint32(frame[1:], uint32(size))
	return w.Write(binary.BigEndian.AppendUint32(frame, crc32.Checksum(frame, castagnoli)))
}

// writeFrame is writeFramed for a payload built without a reserved header:
// it copies the payload behind one first, so it is for the frames a
// connection sends once (a worker's ACK or ERROR); the per-round frames are
// built with newFrame.
func writeFrame(w io.Writer, typ byte, payload []byte) (int, error) {
	if len(payload) > maxFramePayload {
		return 0, fmt.Errorf("cluster: frame payload %d exceeds limit", len(payload))
	}
	return writeFramed(w, typ, append(newFrame(make([]byte, 0, frameOverhead+len(payload))), payload...))
}

// writeFrameDeadline is writeFramed under a per-frame write deadline
// (0 disables the deadline). Every coordinator-side frame write goes
// through it, so a worker that stops draining its connection surfaces as a
// timeout instead of a hang.
func writeFrameDeadline(conn net.Conn, d time.Duration, typ byte, frame []byte) (int, error) {
	if d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
	}
	return writeFramed(conn, typ, frame)
}

// readFrameDeadline reads one frame under a per-frame read deadline
// (0 disables the deadline).
func readFrameDeadline(conn net.Conn, d time.Duration) (typ byte, payload []byte, n int, err error) {
	if d > 0 {
		conn.SetReadDeadline(time.Now().Add(d))
	}
	return readFrame(conn)
}

// readFrame reads one frame and returns its type, payload and total wire
// size (header and trailer included). The payload is a fresh allocation the
// caller may keep: it is how the coordinator reads the TELEM and CORESET
// frames it holds on to.
func readFrame(r io.Reader) (typ byte, payload []byte, n int, err error) {
	return readFrameInto(r, new(frameBuf))
}

// workerReadBuffer sizes the buffered reader a worker reads each connection
// through: room for several 1 024-edge SHARD frames, so that one read
// syscall brings in a few of them rather than each frame taking two.
const workerReadBuffer = 32 << 10

// frameReadStep is the most a frame read allocates ahead of the bytes that
// have arrived: the payload buffer starts at min(size, frameReadStep) and
// doubles as it fills, so a length prefix that claims 64 MiB on a
// connection that then closes costs frameReadStep, not the claim. Every
// frame this repository sends at the benchmark scales fits in one step.
const frameReadStep = 256 << 10

// frameBuf is a connection's reusable read buffer: the header and trailer
// scratch and a payload buffer that grows to the largest frame seen and is
// then reused, so a read loop over it allocates nothing per frame.
type frameBuf struct {
	hdr     [frameHeaderLen]byte
	trailer [frameTrailerLen]byte
	payload []byte
}

// readFrameInto is readFrame into fb. The returned payload aliases fb and is
// valid only until the next read into it, so it is for frames consumed on
// the spot (the worker's SHARD and EOS frames). The length prefix is checked
// before fb's payload buffer is touched, the buffer grows only as the
// payload arrives (see frameReadStep), and the payload returned is exactly
// the bytes of this frame: what an earlier, longer frame left behind lies
// beyond its length. A frame is returned only once its trailer has matched;
// otherwise the error is a *ChecksumError and the payload nil.
func readFrameInto(r io.Reader, fb *frameBuf) (typ byte, payload []byte, n int, err error) {
	if _, err := io.ReadFull(r, fb.hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	prefix := binary.BigEndian.Uint32(fb.hdr[1:])
	if prefix > maxFramePayload {
		return 0, nil, 0, fmt.Errorf("cluster: frame payload %d exceeds limit", prefix)
	}
	size := int(prefix)
	payload = fb.payload[:0]
	for len(payload) < size {
		if len(payload) == cap(payload) {
			grown := make([]byte, len(payload), min(size, max(2*len(payload), frameReadStep)))
			copy(grown, payload)
			payload, fb.payload = grown, grown[:cap(grown)]
		}
		m, err := io.ReadFull(r, payload[len(payload):min(size, cap(payload))])
		payload = payload[:len(payload)+m]
		if err != nil {
			if err == io.EOF && len(payload) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, 0, fmt.Errorf("cluster: truncated frame: %w", err)
		}
	}
	if _, err := io.ReadFull(r, fb.trailer[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, 0, fmt.Errorf("cluster: truncated frame: %w", err)
	}
	got := binary.BigEndian.Uint32(fb.trailer[:])
	if want := crc32.Update(crc32.Checksum(fb.hdr[:], castagnoli), castagnoli, payload); got != want {
		return 0, nil, 0, &ChecksumError{Type: fb.hdr[0], Got: got, Want: want}
	}
	return fb.hdr[0], payload, frameOverhead + size, nil
}

// hello is the HELLO payload: which machine of which run this connection
// carries. UsesBeta tasks additionally carry the degree constraints, so the
// worker builds the identical machine the in-process runtime would.
type hello struct {
	version byte
	task    byte
	machine int
	k       int
	known   bool // vertex count declared upfront (enables online peeling)
	n       int
	edcs    edcs.Params // UsesBeta tasks
	rounds  int         // round cap for this connection (>= 1; 1 for a single-round run)
	runID   string      // coordinator's trace run ID (may be empty)
}

func encodeHello(h hello) []byte {
	buf := []byte{h.version, h.task, 0}
	if h.known {
		buf[2] = helloFlagKnown
	}
	buf = binary.AppendUvarint(buf, uint64(h.machine))
	buf = binary.AppendUvarint(buf, uint64(h.k))
	buf = binary.AppendUvarint(buf, uint64(h.n))
	if d, _, ok := task.ByWire(h.task); ok && d.UsesBeta {
		buf = binary.AppendUvarint(buf, uint64(h.edcs.Beta))
		buf = binary.AppendUvarint(buf, uint64(h.edcs.BetaMinus))
	}
	buf = binary.AppendUvarint(buf, uint64(h.rounds))
	buf = binary.AppendUvarint(buf, uint64(len(h.runID)))
	return append(buf, h.runID...)
}

func decodeHello(data []byte) (hello, error) {
	var h hello
	if len(data) < 3 {
		return h, fmt.Errorf("cluster: short HELLO")
	}
	h.version, h.task = data[0], data[1]
	if h.version != protocolVersion {
		// Before anything else is read: another version may lay it out differently.
		return h, fmt.Errorf("cluster: protocol version %d, want %d", h.version, protocolVersion)
	}
	if data[2]&^helloFlagKnown != 0 {
		return h, fmt.Errorf("cluster: unknown HELLO flags 0x%02x", data[2])
	}
	h.known = data[2] == helloFlagKnown
	data = data[3:]
	uvarint := func() (uint64, error) {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return 0, fmt.Errorf("cluster: corrupt HELLO")
		}
		data = data[k:]
		return v, nil
	}
	vals := make([]uint64, 3)
	for i := range vals {
		v, err := uvarint()
		if err != nil {
			return h, err
		}
		vals[i] = v
	}
	h.machine, h.k, h.n = int(vals[0]), int(vals[1]), int(vals[2])
	d, _, ok := task.ByWire(h.task)
	if !ok {
		return h, &UnknownTaskError{Task: h.task, Known: task.WireRange()}
	}
	if d.UsesBeta {
		beta, err := uvarint()
		if err != nil {
			return h, err
		}
		betaMinus, err := uvarint()
		if err != nil {
			return h, err
		}
		if beta > edcs.MaxBeta {
			return h, fmt.Errorf("cluster: EDCS beta %d exceeds the cap of %d", beta, edcs.MaxBeta)
		}
		h.edcs = edcs.Params{Beta: int(beta), BetaMinus: int(betaMinus)}
		if err := h.edcs.Validate(); err != nil {
			return h, err
		}
	}
	rounds, err := uvarint()
	if err != nil {
		return h, err
	}
	if rounds < 1 || rounds > maxWireRounds {
		return h, fmt.Errorf("cluster: round cap %d outside [1, %d]", rounds, maxWireRounds)
	}
	h.rounds = int(rounds)
	if h.k <= 0 || h.k > maxK || h.machine < 0 || h.machine >= h.k {
		return h, fmt.Errorf("cluster: machine %d of k=%d out of range", h.machine, h.k)
	}
	if h.n < 0 || h.n > maxVertices {
		return h, fmt.Errorf("cluster: vertex count %d exceeds the cap of %d", h.n, maxVertices)
	}
	idLen, err := uvarint()
	if err != nil {
		return h, err
	}
	if idLen > maxRunIDLen {
		return h, fmt.Errorf("cluster: run ID length %d exceeds the cap of %d", idLen, maxRunIDLen)
	}
	if uint64(len(data)) < idLen {
		return h, fmt.Errorf("cluster: truncated HELLO run ID")
	}
	h.runID = string(data[:idLen])
	if rest := len(data) - int(idLen); rest != 0 {
		return h, fmt.Errorf("cluster: %d trailing bytes after HELLO", rest)
	}
	return h, nil
}

// encodeAck is the whole ACK payload: the protocol version the worker
// speaks. readAck accepts exactly these bytes.
func encodeAck() []byte { return []byte{protocolVersion} }

// workerTelem is the TELEM payload: the worker's phase wall times (its own
// clock, nanoseconds) and build counters for one round. The counters are a
// pure function of the machine's shard, so they are seed-deterministic even
// though the times are not.
type workerTelem struct {
	decodeNS uint64 // shard frame decode
	buildNS  uint64 // insert + repair
	encodeNS uint64 // finish + coreset encode
	edgesIn  int    // edges ingested this round
	graph.BuildCounters
}

func appendTelem(dst []byte, t workerTelem) []byte {
	dst = binary.AppendUvarint(dst, t.decodeNS)
	dst = binary.AppendUvarint(dst, t.buildNS)
	dst = binary.AppendUvarint(dst, t.encodeNS)
	dst = binary.AppendUvarint(dst, uint64(t.edgesIn))
	dst = binary.AppendUvarint(dst, uint64(t.RepairIters))
	dst = binary.AppendUvarint(dst, uint64(t.Removals))
	dst = binary.AppendUvarint(dst, uint64(t.PeakCoreset))
	return dst
}

// decodeTelem parses a TELEM payload strictly: a truncated field or trailing
// garbage is a protocol error (the caller classifies it KindProtocol — a
// peer that corrupts telemetry cannot be trusted about the coreset either).
func decodeTelem(data []byte) (workerTelem, error) {
	var t workerTelem
	vals := make([]uint64, 7)
	for i := range vals {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return t, fmt.Errorf("cluster: corrupt TELEM payload")
		}
		vals[i], data = v, data[k:]
	}
	if len(data) != 0 {
		return t, fmt.Errorf("cluster: %d trailing bytes after TELEM", len(data))
	}
	t.decodeNS, t.buildNS, t.encodeNS = vals[0], vals[1], vals[2]
	t.edgesIn = int(vals[3])
	t.RepairIters, t.Removals, t.PeakCoreset = int(vals[4]), int(vals[5]), int(vals[6])
	return t, nil
}

// machineStats folds a TELEM payload into the report schema for machine m.
func (t workerTelem) machineStats(m int) graph.MachineStats {
	return graph.MachineStats{
		Machine:       m,
		DecodeMS:      float64(t.decodeNS) / 1e6,
		BuildMS:       float64(t.buildNS) / 1e6,
		EncodeMS:      float64(t.encodeNS) / 1e6,
		EdgesIn:       t.edgesIn,
		BuildCounters: t.BuildCounters,
	}
}
