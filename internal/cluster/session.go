package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/task"
)

// Session is the coordinator's one conversation with a worker fleet: every
// worker is dialed once and told its assignment in a single HELLO, and then
// each Round shards an input over the first k workers, collects one CORESET
// frame per active machine, and leaves the connections open for the next
// round. Session.Round is the cluster runtime's round function: the engine
// calls it once for a single-round run (Open with rounds 0: a round cap of
// 1) and hands it to the multi-round MPC driver of arXiv:1711.03076
// (rounds.Drive) otherwise. Workers dropped by a shrinking schedule (k
// decreases between rounds) simply see no frames until Close ends the run at
// a round boundary.
//
// Communication is measured per round off the live connections: each Round's
// run stats carry the measured CORESET frame bytes (TotalCommBytes /
// MaxMachineBytes), the simulated estimate (EstCommBytes /
// EstMaxMachineBytes) and the coordinator-to-worker traffic since the
// previous round (ShardBytes: HELLO, SHARD and EOS frames, failed attempts
// included — so summing rounds accounts for every byte the coordinator sent;
// workers' ACK frames are not counted).
//
// A machine without a connection when a round starts — its dial was refused
// when the session opened, or an earlier round lost it — is a failed machine
// of that round, carrying the *WorkerError that took it down. With
// Config.MaxRetries > 0 and a restartable round input, retryable failures
// are recovered in place by replay waves (retry.go); any unrecovered round
// error poisons the session, and Close is the only valid call after that. A
// session is single-flight: Round may not be called concurrently.
type Session struct {
	cfg       Config
	d         *task.Descriptor
	hello     hello // every machine's HELLO but for the machine and rounds fields
	iot       time.Duration
	roundCap  int
	roundsRun int
	links     []link
	mx        *coordMetrics // nil: silent (Config.Metrics)
	spares    []string
	broken    bool
	closed    bool
}

// link is the session's state for one machine. During a round only that
// machine's goroutine touches it.
type link struct {
	addr string       // current address; replay rotates in spares
	conn net.Conn     // nil while the machine is down
	down *WorkerError // what took the connection down
	sent int          // coordinator-to-worker bytes not yet folded into a round's Stats
	enc  []byte       // SHARD frame encode buffer, reused across frames and rounds
	mx   *linkMetrics // this machine's wire counters (nil: silent)
}

// shardFrame encodes batch into the link's SHARD frame buffer and returns
// the frame, ready for send; it is valid until the next call.
func (l *link) shardFrame(batch []graph.Edge) []byte {
	l.enc = graph.AppendEdgeBatch(newFrame(l.enc), batch)
	return l.enc
}

// workerResult is what one machine answered in a round.
type workerResult struct {
	sum   task.Summary
	wire  int         // measured CORESET frame bytes
	telem workerTelem // the TELEM payload that preceded the CORESET
}

// Open dials every worker of cfg's fleet for a run of task d: one connection
// and one HELLO per worker, carrying the task parameters and the round cap.
// rounds is the run's multi-round cap: 0 opens a single-round session (the
// HELLO names the task by its Wire byte, round cap 1), a positive value a
// multi-round one (the task's WireRounds byte, which labels the workers'
// spans, and the cap rounds; the driver's early exit may stop sooner).
// nHint > 0 declares the vertex count upfront — it only pre-sizes worker
// tables and never changes the result. A worker that cannot be reached is
// not an error here: it is a failed machine of the first round it takes part
// in.
func Open(ctx context.Context, cfg Config, d *task.Descriptor, p task.Params, rounds, nHint int) (*Session, error) {
	if d.Validate != nil {
		if err := d.Validate(p); err != nil {
			return nil, err
		}
	}
	taskByte, roundCap := d.Wire, 1
	if rounds != 0 {
		if d.WireRounds == 0 {
			return nil, fmt.Errorf("cluster: task %q has no multi-round assignment", d.Name)
		}
		taskByte, roundCap = d.WireRounds, rounds
	}
	k := len(cfg.Workers)
	if k == 0 {
		return nil, errors.New("cluster: config needs at least one worker address")
	}
	if roundCap < 1 || roundCap > maxWireRounds {
		return nil, fmt.Errorf("cluster: round cap %d outside [1, %d]", roundCap, maxWireRounds)
	}
	h := hello{version: protocolVersion, task: taskByte, k: k, known: nHint > 0, n: nHint, edcs: p.EDCS, runID: cfg.RunID}
	s := &Session{
		cfg: cfg, d: d, hello: h, iot: cfg.ioTimeout(), roundCap: roundCap,
		links:  make([]link, k),
		spares: append([]string(nil), cfg.Spares...),
	}
	all := make([]int, k)
	for m, addr := range cfg.Workers {
		s.links[m].addr = addr
		all[m] = m
	}
	s.mx = newCoordMetrics(cfg.Metrics, s.links)
	s.connect(ctx, all)
	return s, nil
}

// connect (re)establishes the given machines' connections concurrently. A
// machine that fails stays down with the failure recorded on its link.
func (s *Session) connect(ctx context.Context, machines []int) {
	var wg sync.WaitGroup
	for _, m := range machines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handshake(ctx, m)
		}()
	}
	wg.Wait()
}

// handshake dials machine m's current address and speaks HELLO/ACK. The
// HELLO's rounds field is the rounds still owed, current round included, so
// a replacement worker's bookkeeping matches the coordinator's.
func (s *Session) handshake(ctx context.Context, m int) {
	l := &s.links[m]
	if s.mx != nil {
		s.mx.dials.Inc()
	}
	dialer := net.Dialer{Timeout: s.cfg.dialTimeout()}
	conn, err := dialer.DialContext(ctx, "tcp", l.addr)
	if err != nil {
		s.fail(m, KindDial, err)
		return
	}
	l.conn, l.down = conn, nil
	// Force-close the connection on cancellation so blocked reads and writes
	// fail promptly instead of hanging on a stuck peer.
	stopWatch := closeOnCancel(ctx, conn)
	defer stopWatch()
	h := s.hello
	h.machine, h.rounds = m, s.roundCap-s.roundsRun
	if err := s.send(m, frameHello, append(newFrame(nil), encodeHello(h)...)); err != nil {
		s.fail(m, ioKind(err), fmt.Errorf("handshake: %w", err))
		return
	}
	if kind, err := readAck(conn, s.iot); err != nil {
		s.fail(m, kind, err)
	}
}

// send writes one frame, built with newFrame, to machine m under the
// per-frame deadline and accounts for the bytes that made it onto the wire.
func (s *Session) send(m int, typ byte, frame []byte) error {
	l := &s.links[m]
	n, err := writeFrameDeadline(l.conn, s.iot, typ, frame)
	l.sent += n
	l.countSent(n, err)
	return err
}

// fail takes machine m down: its connection (if any) is closed and the typed
// failure recorded on the link, where the round's replay decision finds it.
func (s *Session) fail(m int, kind FailureKind, err error) *WorkerError {
	l := &s.links[m]
	we := &WorkerError{Machine: m, Addr: l.addr, Kind: kind, Retryable: kind.retryable(), Err: err}
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn, l.down = nil, we
	if s.mx != nil {
		s.mx.failures.Inc()
	}
	return we
}

// Round runs one round over the first k workers: a stream.Pass routes src's
// edges under seed — the in-process runtime's own pass and router, so the
// round reproduces an in-process round bit for bit — and each active machine
// answers with its coreset. The returned summaries are indexed by machine;
// the run stats are this round's alone.
//
// Failure handling depends on the failure. A retryable worker failure (dial,
// connection drop, stalled frame) in a round that allows replay lets the
// sharder and the healthy machines finish, and then the same conversation is
// re-entered for the failed machines only, in waves, until all have answered
// or one spends its budget. Anything else stops the round at the next batch
// boundary. Error precedence: the caller's cancellation, then a source
// error, then the worker failures joined behind the causally first one
// (never one of the secondary errors its teardown induced on the other
// connections). Cancellation force-closes the connections in every wave, so
// no goroutine can stay blocked on the network, and every exit path waits
// for the connection goroutines.
func (s *Session) Round(ctx context.Context, src stream.EdgeSource, k int, seed uint64) (sums []task.Summary, st *core.PipelineStats, err error) {
	switch {
	case s.closed || s.broken:
		return nil, nil, errors.New("cluster: session is no longer usable")
	case src == nil:
		return nil, nil, errors.New("cluster: nil source")
	case k < 1 || k > len(s.links):
		return nil, nil, fmt.Errorf("cluster: round k %d outside [1, %d]", k, len(s.links))
	case s.roundsRun >= s.roundCap:
		return nil, nil, fmt.Errorf("cluster: round cap %d exhausted", s.roundCap)
	}
	start := time.Now()
	// An unrecovered error leaves connections force-closed or mid-frame.
	defer func() { s.broken = err != nil }()

	rs, restartable := src.(stream.Restartable)
	replayable := s.cfg.MaxRetries > 0 && restartable
	res := make([]workerResult, k)
	attempts := make([]int, k)
	todo := make([]int, k) // machines still owing this round's answer, ascending
	for m := range todo {
		todo[m] = m
	}
	var (
		scan     passResult // the full first pass: edge totals and vertex count
		retries  int
		replayed []int
		backoff  = s.cfg.backoffBase()
	)
	for wave := 0; len(todo) > 0; wave++ {
		if wave > 0 {
			if err := s.rearm(ctx, rs, todo, attempts, backoff); err != nil {
				return nil, nil, err
			}
			retries += len(todo)
			if backoff *= 2; backoff > maxRetryBackoff {
				backoff = maxRetryBackoff
			}
		}
		p := s.pass(ctx, src, k, seed, todo, replayable, wave > 0, res)
		if wave == 0 {
			scan = p
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if p.Err != nil {
			return nil, nil, p.Err
		}
		if len(p.fails) > 0 && (!replayable || !allRetryable(p.fails) || p.Aborted) {
			ferr := joinFailures(p.fails)
			// Replay was asked for and every failure was replayable, but the
			// source cannot rewind: name the source kind so the caller knows
			// what to fix, rather than a generic worker failure.
			if s.cfg.MaxRetries > 0 && !restartable && allRetryable(p.fails) && !p.Aborted {
				ferr = notRestartable(ferr, src)
			}
			return nil, nil, ferr
		}
		if p.Aborted { // canceled with no surviving cause: report it as such
			return nil, nil, context.Canceled
		}
		var failed []int
		for _, m := range todo {
			switch {
			case s.links[m].conn == nil:
				failed = append(failed, m)
			case wave > 0:
				replayed = append(replayed, m)
				if s.mx != nil {
					s.mx.replays.Inc()
				}
			}
		}
		todo = failed
	}
	sort.Ints(replayed)

	sums, st = s.fold(res, scan, retries, replayed)
	s.roundsRun++
	st.Duration = time.Since(start)
	return sums, st, nil
}

// passResult is what one pass over the round input observed.
type passResult struct {
	stream.PassResult
	fails []*WorkerError // causal order; fails[0] is the primary
}

// pass is the round conversation for the given machines: a stream.Pass over
// all k machines in which those still owing the round take part, one
// goroutine per machine speaking roundTrip on its connection. A machine that
// is down when the pass starts fails with its recorded error; rescan marks a
// replay wave, which has nothing to do when every machine is down.
//
// fails collects worker failures in causal order. On a fatal failure
// cancelRun force-closes every other connection, so the secondary I/O errors
// that follow must not mask the primary; note always records before that
// cancelRun, which makes "first to record" exactly "first to fail".
func (s *Session) pass(ctx context.Context, src stream.EdgeSource, k int, seed uint64, machines []int, replayable, rescan bool, res []workerResult) (p passResult) {
	// runCtx is the pass's internal lifetime: canceled by the caller's ctx or
	// by the first fatal worker failure, whichever comes first.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var failMu sync.Mutex
	note := func(we *WorkerError) {
		failMu.Lock()
		p.fails = append(p.fails, we)
		failMu.Unlock()
		// A retryable failure in a replayable round must NOT stop the
		// sharder: the healthy machines finish and only this machine is
		// replayed. Anything else stops the pass.
		if !we.Retryable || !replayable {
			cancelRun()
		}
	}
	live := make([]int, 0, len(machines))
	for _, m := range machines {
		if s.links[m].conn == nil {
			note(s.links[m].down)
			continue
		}
		live = append(live, m)
		res[m] = workerResult{}
	}
	if rescan && len(live) == 0 {
		return p
	}
	// Sends block on the machine's queue (and transitively on its TCP
	// connection: per-worker backpressure) but never past cancellation,
	// which — the pass's own on a source error included — force-closes the
	// connections, so no goroutine can stay blocked on the network.
	cfg := stream.Config{K: k, Seed: seed, BatchSize: s.cfg.batchSize()}
	p.PassResult = stream.Pass(runCtx, src, cfg, live, func(ctx context.Context, f *stream.Feed) {
		stopWatch := closeOnCancel(ctx, s.links[f.Machine].conn)
		defer stopWatch()
		if kind, err := s.roundTrip(f, &res[f.Machine]); err != nil {
			note(s.fail(f.Machine, kind, err))
		}
	})
	return p
}

// roundTrip speaks one round on the feed's machine's connection: SHARD
// frames off the feed (with TCP backpressure; each batch is recycled as soon
// as it is encoded, before the write that may block), EOS once the pass
// publishes the final vertex count, then the TELEM and CORESET replies, which
// land in res. A failure is returned with its FailureKind; a pass that stops
// before the vertex count is published returns nil with res unset. Every frame exchange runs under the per-frame IOTimeout, so a
// stalled worker surfaces as a retryable KindDeadline failure rather than a
// hang.
func (s *Session) roundTrip(f *stream.Feed, res *workerResult) (FailureKind, error) {
	m := f.Machine
	l := &s.links[m]
	for batch := range f.Batches {
		frame := l.shardFrame(batch)
		f.Recycle(batch)
		if err := s.send(m, frameShard, frame); err != nil {
			return ioKind(err), fmt.Errorf("shard stream: %w", err)
		}
	}
	n, ok := f.N()
	if !ok {
		return KindUnknown, nil
	}
	if err := s.send(m, frameEOS, binary.AppendUvarint(newFrame(nil), uint64(n))); err != nil {
		return ioKind(err), fmt.Errorf("EOS: %w", err)
	}

	// A corrupt TELEM is KindProtocol, like any corrupt frame: a peer that
	// garbles telemetry cannot be trusted about the coreset either.
	payload, frameLen, kind, err := s.await(m, frameTelem, "TELEM")
	if err != nil {
		return kind, err
	}
	if res.telem, err = decodeTelem(payload); err != nil {
		return KindProtocol, err
	}
	l.countReceived(true, frameLen)
	if payload, frameLen, kind, err = s.await(m, frameCoreset, "CORESET"); err != nil {
		return kind, err
	}
	sum, err := task.DecodeSummary(s.d, payload)
	if err != nil {
		return KindProtocol, err
	}
	res.sum, res.wire = sum, frameLen
	l.countReceived(false, frameLen)
	return KindUnknown, nil
}

// await reads machine m's next frame under the per-frame deadline; it must
// be of type want (named name in errors). An ERROR in its place carries the
// worker's message and any other frame is a protocol violation.
func (s *Session) await(m int, want byte, name string) ([]byte, int, FailureKind, error) {
	typ, payload, frameLen, err := readFrameDeadline(s.links[m].conn, s.iot)
	switch {
	case err != nil:
		return nil, 0, ioKind(err), fmt.Errorf("awaiting %s: %w", name, err)
	case typ == want:
		return payload, frameLen, KindUnknown, nil
	case typ == frameError:
		return nil, 0, KindProtocol, fmt.Errorf("remote: %s", payload)
	default:
		return nil, 0, KindProtocol, fmt.Errorf("unexpected frame 0x%02x, want %s", typ, name)
	}
}

// fold turns a completed round's per-machine answers into its summaries and
// Stats: the task's own fold (task.Descriptor.FoldStats), which charges each
// summary's body, with the cluster's measurements layered on top — the body
// lengths become the estimate, the CORESET frames measured off the wire the
// reported bytes — plus each machine's TELEM and the shard traffic.
func (s *Session) fold(res []workerResult, scan passResult, retries int, replayed []int) ([]task.Summary, *core.PipelineStats) {
	k := len(res)
	sums := make([]task.Summary, k)
	for m, r := range res {
		sums[m] = r.sum
	}
	st := &core.PipelineStats{N: scan.N, EdgesTotal: scan.Edges,
		RunCounts: graph.RunCounts{Batches: scan.Batches, Retries: retries, ReplayedMachines: replayed}}
	s.d.FoldStats(st, sums)
	st.EstCommBytes, st.EstMaxMachineBytes = st.TotalCommBytes, st.MaxMachineBytes
	st.TotalCommBytes, st.MaxMachineBytes = 0, 0
	st.MachineStats = make([]graph.MachineStats, k)
	for m, r := range res {
		st.TotalCommBytes += r.wire
		st.MaxMachineBytes = max(st.MaxMachineBytes, r.wire)
		st.MachineStats[m] = r.telem.machineStats(m)
	}
	for _, m := range replayed {
		st.MachineStats[m].Replayed = true
	}
	for m := range s.links {
		st.ShardBytes += s.links[m].sent
		s.links[m].sent = 0
	}
	return sums, st
}

// Close ends the run: the connections are closed, which workers waiting at
// a round boundary treat as a clean end. It is idempotent — the second and
// later calls return nil — and after a mid-round failure it never masks the
// round's error with teardown noise: a poisoned session's connections are
// already force-closed or mid-frame, so their close errors are expected and
// suppressed, as are double-close artifacts on any path.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for m := range s.links {
		c := s.links[m].conn
		if c == nil {
			continue
		}
		err := c.Close()
		if err == nil || s.broken || errors.Is(err, net.ErrClosed) {
			continue
		}
		if first == nil {
			first = err
		}
	}
	return first
}
