package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/edcs"
	"repro/internal/graph"
	"repro/internal/task"
)

// Wire protocol. Every message is one frame:
//
//	[1 byte type][4 bytes big-endian payload length][payload]
//
// The coordinator holds one session per run: one TCP connection per worker,
// one HELLO on each, and then up to the session's round cap of rounds on the
// same connections. A connection therefore speaks
//
//	coordinator -> worker   HELLO      task, machine index, k, optional n
//	                                   (+ degree constraints for UsesBeta tasks)
//	                                   (+ round cap under a multi-round task byte)
//	                                   (+ run ID when telemetry is requested)
//	worker -> coordinator   ACK        protocol version echo + capability byte
//
// followed by one or more rounds, each with a fresh machine on the worker:
//
//	coordinator -> worker   SHARD*     varint delta edge batch (graph codec)
//	coordinator -> worker   EOS        final vertex count
//	worker -> coordinator   TELEM      phase timings + build counters (optional)
//	worker -> coordinator   CORESET    per-machine stats + coreset body (task codec)
//
// A single-round run is the session with a cap of 1: it is announced by the
// task's single-round byte, whose HELLO has no rounds field, and the worker
// closes the connection after its one CORESET. Under a task's multi-round
// byte the HELLO carries the cap, and because the coordinator cannot know the
// final round count upfront (its early exit fires when the union stops
// shrinking) and may drop a machine from later rounds (the schedule shrinks
// k), it ends the assignment by closing the connection at a round boundary,
// which the worker treats as a clean end.
//
// TELEM is capability-negotiated, no version bump: the coordinator sets the
// telemetry bit in the HELLO flag byte (and appends its run ID, which old
// workers ignore as trailing bytes), and a capable worker both echoes the
// capability in its ACK and emits one TELEM frame immediately before each
// CORESET. A coordinator reading from an old worker sees a bare CORESET and
// records zeroed phase telemetry for that machine; an old coordinator never
// sets the bit, so it never sees a TELEM frame. TELEM bytes are deliberately
// excluded from the coreset communication accounting (TotalCommBytes) — they
// are measurement overhead, not algorithm traffic — and are tracked under
// their own metric instead.
//
// Retry is a re-handshake, not a frame: workers are stateless across
// connections, so a coordinator replaying a lost round simply dials again
// and speaks a fresh HELLO for the same machine index (under a multi-round
// byte, with the rounds field reduced to the rounds still owed, current
// round included). The frame set is unchanged and no version bump
// is needed; a pre-replay worker serves a replayed round exactly like a
// fresh run.
//
// Either side may substitute ERROR (UTF-8 message) for its next frame and
// close.
//
// Two codecs carry edges. SHARD payloads are graph.AppendEdgeBatch, which
// preserves order: a machine's coreset is a function of its arrival order, so
// a shard must arrive as it was routed. A CORESET payload is three uvarint
// stats (received, stored, live) and then the task's body (task.AppendSummary):
// for every summary whose order is not information — matchings, EDCSs, the
// peeled levels and the residual of a VC coreset — that is the sorted-set
// codec (graph.AppendEdgeSet / AppendIDSet / AppendRankedEdgeSet),
// Golomb–Rice coded gaps at about
// half the bytes of an order-preserving list; the diversity centers keep
// their selection order in graph.AppendIDs. The simulated accounting charges
// the same functions, and Summary.Bytes is the exact length of the body, so
// a measured CORESET frame is its estimate plus the 5-byte frame header and
// the stats varints, to the byte.
//
// Version 2 is version 1 with the CORESET bodies moved from the delta batch
// codec to the sorted-set codec; version 3 sends the vc residual in the rank
// space of the vertices its levels did not fix (core.AppendVCCoreset). A
// body does not describe its own format, so the version is compared for
// equality at the HELLO, the one place peers meet: a worker answers any
// other version with an ERROR naming both, which the coordinator reports as
// a KindHandshake failure — terminal, since every replay would be refused
// the same way.

const protocolVersion = 3

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

// HELLO flag bits (byte 2 of the payload). Old peers wrote 0x00/0x01 for the
// known-n boolean, so bit 0 keeps that meaning and bit 1 is the telemetry
// capability request.
const (
	helloFlagKnown byte = 1 << 0
	helloFlagTelem byte = 1 << 1
)

// ACK capability bits. A pre-telemetry worker sends a 1-byte ACK (version
// only), which the coordinator reads as "no capabilities".
const ackCapTelem byte = 1 << 0

// maxRunIDLen bounds the run ID a worker accepts in HELLO; run IDs here are
// "r-%08x" (10 bytes), so the cap exists purely against hostile frames.
const maxRunIDLen = 128

// Task bytes carried in HELLO. The byte assignments live in the task registry
// (internal/task): Descriptor.Wire is the HELLO task byte and
// Descriptor.WireRounds its multi-round variant, and both encodeHello and
// decodeHello dispatch through task.ByWire rather than a task switch
// (TestTaskBytesMatchRegistry pins the assigned values). A task byte extends
// the HELLO payload per its descriptor's capabilities (UsesBeta appends the
// two EDCS degree constraints; a WireRounds byte additionally carries the
// round cap); peers that predate a byte reject the unknown task, so no
// protocol version bump is needed.

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

// maxWireRounds bounds the round cap a worker accepts in a multi-round
// HELLO. The paper's schedule needs O(log log n) rounds, so anything near
// this cap is already nonsense; it exists so a corrupt frame cannot promise
// an absurd run length.
const maxWireRounds = 1 << 10

const frameHeaderLen = 5

// writeFrame writes one frame and returns the exact bytes put on the wire.
func writeFrame(w io.Writer, typ byte, payload []byte) (int, error) {
	if len(payload) > maxFramePayload {
		return 0, fmt.Errorf("cluster: frame payload %d exceeds limit", len(payload))
	}
	var hdr [frameHeaderLen]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return frameHeaderLen, err
	}
	return frameHeaderLen + len(payload), nil
}

// writeFrameDeadline writes one frame under a per-frame write deadline
// (0 disables the deadline). Every coordinator-side frame write goes
// through it, so a worker that stops draining its connection surfaces as a
// timeout instead of a hang.
func writeFrameDeadline(conn net.Conn, d time.Duration, typ byte, payload []byte) (int, error) {
	if d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
	}
	return writeFrame(conn, typ, payload)
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
// size (header included). The payload is a fresh allocation the caller may
// keep: it is how the coordinator reads the TELEM and CORESET frames it holds
// on to.
func readFrame(r io.Reader) (typ byte, payload []byte, n int, err error) {
	return readFrameInto(r, new(frameBuf))
}

// frameBuf is a connection's reusable read buffer: the header scratch and a
// payload buffer that grows to the largest frame seen and is then reused, so
// a read loop over it allocates nothing per frame.
type frameBuf struct {
	hdr     [frameHeaderLen]byte
	payload []byte
}

// readFrameInto is readFrame into fb. The returned payload aliases fb and is
// valid only until the next read into it, so it is for frames consumed on
// the spot (the worker's SHARD and EOS frames). The length prefix is checked
// before fb's payload buffer is touched, and the payload returned is exactly
// the bytes of this frame: what an earlier, longer frame left behind lies
// beyond its length.
func readFrameInto(r io.Reader, fb *frameBuf) (typ byte, payload []byte, n int, err error) {
	if _, err := io.ReadFull(r, fb.hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	size := binary.BigEndian.Uint32(fb.hdr[1:])
	if size > maxFramePayload {
		return 0, nil, 0, fmt.Errorf("cluster: frame payload %d exceeds limit", size)
	}
	if uint32(cap(fb.payload)) < size {
		fb.payload = make([]byte, size)
	}
	payload = fb.payload[:size]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("cluster: truncated frame: %w", err)
	}
	return fb.hdr[0], payload, frameHeaderLen + int(size), nil
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
	rounds  int         // multi-round task bytes only: round cap for this connection (>= 1)
	telem   bool        // request per-round TELEM frames from the worker
	runID   string      // coordinator's trace run ID (sent iff telem)
}

func encodeHello(h hello) []byte {
	buf := []byte{h.version, h.task, 0}
	if h.known {
		buf[2] |= helloFlagKnown
	}
	if h.telem {
		buf[2] |= helloFlagTelem
	}
	buf = binary.AppendUvarint(buf, uint64(h.machine))
	buf = binary.AppendUvarint(buf, uint64(h.k))
	buf = binary.AppendUvarint(buf, uint64(h.n))
	if d, multiRound, ok := task.ByWire(h.task); ok {
		if d.UsesBeta {
			buf = binary.AppendUvarint(buf, uint64(h.edcs.Beta))
			buf = binary.AppendUvarint(buf, uint64(h.edcs.BetaMinus))
		}
		if multiRound {
			buf = binary.AppendUvarint(buf, uint64(h.rounds))
		}
	}
	if h.telem {
		// Length-prefixed run ID at the tail: a pre-telemetry worker stops
		// parsing before it and ignores the trailing bytes.
		buf = binary.AppendUvarint(buf, uint64(len(h.runID)))
		buf = append(buf, h.runID...)
	}
	return buf
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
	h.known = data[2]&helloFlagKnown != 0
	h.telem = data[2]&helloFlagTelem != 0
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
	d, multiRound, ok := task.ByWire(h.task)
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
	if multiRound {
		rounds, err := uvarint()
		if err != nil {
			return h, err
		}
		if rounds < 1 || rounds > maxWireRounds {
			return h, fmt.Errorf("cluster: round cap %d outside [1, %d]", rounds, maxWireRounds)
		}
		h.rounds = int(rounds)
	}
	if h.k <= 0 || h.k > maxK || h.machine < 0 || h.machine >= h.k {
		return h, fmt.Errorf("cluster: machine %d of k=%d out of range", h.machine, h.k)
	}
	if h.n < 0 || h.n > maxVertices {
		return h, fmt.Errorf("cluster: vertex count %d exceeds the cap of %d", h.n, maxVertices)
	}
	if h.telem {
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
	}
	return h, nil
}

// workerTelem is the TELEM payload: the worker's phase wall times (its own
// clock, nanoseconds) and build counters for one round. The counters are a
// pure function of the machine's shard, so they are seed-deterministic even
// though the times are not.
type workerTelem struct {
	decodeNS    uint64 // shard frame decode
	buildNS     uint64 // insert + repair
	encodeNS    uint64 // finish + coreset encode
	edgesIn     int    // edges ingested this round
	repairIters int    // EDCS fixpoint rescans (0 for matching/vc)
	removals    int    // EDCS H evictions (0 for matching/vc)
	peakCoreset int    // peak |H| (0 for matching/vc)
}

func appendTelem(dst []byte, t workerTelem) []byte {
	dst = binary.AppendUvarint(dst, t.decodeNS)
	dst = binary.AppendUvarint(dst, t.buildNS)
	dst = binary.AppendUvarint(dst, t.encodeNS)
	dst = binary.AppendUvarint(dst, uint64(t.edgesIn))
	dst = binary.AppendUvarint(dst, uint64(t.repairIters))
	dst = binary.AppendUvarint(dst, uint64(t.removals))
	dst = binary.AppendUvarint(dst, uint64(t.peakCoreset))
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
	t.repairIters, t.removals, t.peakCoreset = int(vals[4]), int(vals[5]), int(vals[6])
	return t, nil
}

// machineStats folds a TELEM payload into the report schema for machine m.
func (t workerTelem) machineStats(m int) graph.MachineStats {
	return graph.MachineStats{
		Machine:     m,
		DecodeMS:    float64(t.decodeNS) / 1e6,
		BuildMS:     float64(t.buildNS) / 1e6,
		EncodeMS:    float64(t.encodeNS) / 1e6,
		EdgesIn:     t.edgesIn,
		RepairIters: t.repairIters,
		Removals:    t.removals,
		PeakCoreset: t.peakCoreset,
	}
}
