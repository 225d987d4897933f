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

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/task"
)

// Session is the coordinator's one conversation with a worker fleet: every
// worker is dialed once and told its assignment in a single HELLO, and then
// each Round shards an input over the first k workers, collects one CORESET
// frame per active machine, and leaves the connections open for the next
// round. A single-round run (Solve) is a session with a round cap of 1; the
// multi-round MPC driver of arXiv:1711.03076 (internal/rounds) opens one with
// the task's multi-round assignment and its cap. Workers dropped by a
// shrinking schedule (k decreases between rounds) simply see no frames until
// Close ends the run at a round boundary.
//
// Communication is measured per round off the live connections: each Round's
// Stats carries the measured CORESET frame bytes (TotalCommBytes /
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
	enc  []byte       // SHARD payload encode buffer, reused across frames and rounds
}

// shardQueueDepth is how many routed batches may wait on one machine's
// connection. It only has to cover the sharder while a sender is inside a
// blocking TCP write; past that, a deeper queue is memory a slow worker
// holds for nothing, since backpressure must reach the source anyway.
const shardQueueDepth = 4

// workerResult is what one machine answered in a round.
type workerResult struct {
	sum   stream.Summary
	wire  int          // measured CORESET frame bytes
	telem *workerTelem // decoded TELEM payload; nil when the worker omitted it
}

// Dial opens a session speaking d's multi-round assignment: one connection
// and one HELLO per worker of cfg's fleet, carrying the task parameters and
// the round cap (the most rounds the session may run; the worker pins it, the
// driver's early exit may stop sooner). nHint > 0 declares the vertex count
// upfront — it only pre-sizes worker tables and never changes the result. A
// worker that cannot be reached is not an error here: it is a failed machine
// of the first round it takes part in.
func Dial(ctx context.Context, cfg Config, d *task.Descriptor, p task.Params, roundCap, nHint int) (*Session, error) {
	if d.WireRounds == 0 {
		return nil, fmt.Errorf("cluster: task %q has no multi-round assignment", d.Name)
	}
	return open(ctx, cfg, d, p, hello{task: d.WireRounds, known: nHint > 0, n: nHint}, roundCap)
}

// open validates the run and handshakes with every worker concurrently. h
// supplies the HELLO's task byte and vertex-count declaration; the rest of
// the template is filled in here.
func open(ctx context.Context, cfg Config, d *task.Descriptor, p task.Params, h hello, roundCap int) (*Session, error) {
	if d.Validate != nil {
		if err := d.Validate(p); err != nil {
			return nil, err
		}
	}
	k := len(cfg.Workers)
	if k == 0 {
		return nil, errors.New("cluster: config needs at least one worker address")
	}
	if roundCap < 1 || roundCap > maxWireRounds {
		return nil, fmt.Errorf("cluster: round cap %d outside [1, %d]", roundCap, maxWireRounds)
	}
	h.version, h.k, h.edcs, h.telem, h.runID = protocolVersion, k, p.EDCS, true, cfg.RunID
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
	obs.Count(s.cfg.Obs, MetricDialAttempts, 1)
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
	if err := s.send(m, frameHello, encodeHello(h)); err != nil {
		s.fail(m, ioKind(err), fmt.Errorf("handshake: %w", err))
		return
	}
	if kind, err := readAck(conn, s.iot); err != nil {
		s.fail(m, kind, err)
	}
}

// send writes one frame to machine m under the per-frame deadline and
// accounts for the bytes that made it onto the wire.
func (s *Session) send(m int, typ byte, payload []byte) error {
	l := &s.links[m]
	n, err := writeFrameDeadline(l.conn, s.iot, typ, payload)
	l.sent += n
	countSent(s.cfg.Obs, m, n, err)
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
	obs.Count(s.cfg.Obs, MetricWorkerFailures, 1)
	return we
}

// Round runs one round over the first k workers: shard src's edges with
// partition.HashAssign(e, k, seed) — the same seeded routing every runtime
// uses, so the round reproduces an in-process round bit for bit — then
// collect each active machine's coreset. The returned summaries are indexed
// by machine; the Stats are this round's alone.
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
func (s *Session) Round(ctx context.Context, src stream.EdgeSource, k int, seed uint64) (sums []stream.Summary, st *Stats, err error) {
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
		if p.srcErr != nil {
			return nil, nil, p.srcErr
		}
		if len(p.fails) > 0 && (!replayable || !allRetryable(p.fails) || p.aborted) {
			ferr := joinFailures(p.fails)
			// Replay was asked for and every failure was replayable, but the
			// source cannot rewind: name the source kind so the caller knows
			// what to fix, rather than a generic worker failure.
			if s.cfg.MaxRetries > 0 && !restartable && allRetryable(p.fails) && !p.aborted {
				ferr = notRestartable(ferr, src)
			}
			return nil, nil, ferr
		}
		if p.aborted { // canceled with no surviving cause: report it as such
			return nil, nil, context.Canceled
		}
		var failed []int
		for _, m := range todo {
			switch {
			case s.links[m].conn == nil:
				failed = append(failed, m)
			case wave > 0:
				replayed = append(replayed, m)
				obs.Count(s.cfg.Obs, MetricReplays, 1)
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
	total, batches int            // edges and batches read from the source
	n              int            // final vertex count
	fails          []*WorkerError // causal order; fails[0] is the primary
	srcErr         error          // a real source error, never a cancellation
	aborted        bool           // the sharder stopped on cancellation
}

// pass is the round conversation for the given machines: the caller's
// goroutine reads the source and shards by partition.HashAssign over all k
// machines, skipping those not taking part, and one goroutine per machine
// speaks roundTrip on its connection. The close(nReady) edge publishes the
// final vertex count to those goroutines exactly as in stream.run. A machine
// that is down when the pass starts fails with its recorded error; rescan
// marks a replay wave, which has nothing to do when every machine is down.
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
	var (
		nReady = make(chan struct{})
		wg     sync.WaitGroup
		failMu sync.Mutex
	)
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
	chans := make([]chan []graph.Edge, k) // nil: the sharder skips the machine
	// Routing batches circulate as in stream.run: a sender hands each batch
	// back on free once it has encoded it and the sharder refills it. A
	// machine has at most shardQueueDepth queued, one being encoded and one
	// being filled, so free never overflows and a pass allocates O(k)
	// batches however long the source.
	free := make(chan []graph.Edge, len(machines)*(shardQueueDepth+2))
	live := 0
	for _, m := range machines {
		l := &s.links[m]
		if l.conn == nil {
			note(l.down)
			continue
		}
		live++
		ch := make(chan []graph.Edge, shardQueueDepth)
		chans[m], res[m] = ch, workerResult{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			stopWatch := closeOnCancel(runCtx, l.conn)
			defer stopWatch()
			if kind, err := s.roundTrip(runCtx, m, ch, free, nReady, &p.n, &res[m]); err != nil {
				note(s.fail(m, kind, err))
			}
			// Discard whatever the sharder still queues for a machine that
			// stopped early, so it can never block on a dead connection (the
			// sharder owns the close, so this drain always terminates).
			for range ch {
			}
		}()
	}
	if rescan && live == 0 {
		return p
	}

	// Sends block on the machine's channel (and transitively on its TCP
	// connection: per-worker backpressure) but never past cancellation.
	p.total, p.batches, p.srcErr, p.aborted = shardSource(runCtx, src, chans, free, s.cfg.batchSize(), seed)
	for _, ch := range chans {
		if ch != nil {
			close(ch)
		}
	}
	if p.srcErr != nil || p.aborted {
		cancelRun() // release goroutines parked on nReady or blocked I/O
	} else {
		p.n = src.NumVertices()
		close(nReady)
	}
	wg.Wait()
	return p
}

// roundTrip speaks one round on machine m's connection: SHARD frames off the
// batch channel (with TCP backpressure; each batch goes back on free as soon
// as it is encoded, before the write that may block), EOS once the sharder
// publishes the final vertex count through the nReady edge, then the CORESET
// reply, which lands in res. A failure is returned with its FailureKind;
// cancellation while parked on nReady returns nil with res unset. Every frame
// exchange runs under the per-frame IOTimeout, so a stalled worker surfaces
// as a retryable KindDeadline failure rather than a hang.
func (s *Session) roundTrip(runCtx context.Context, m int, batches <-chan []graph.Edge, free chan<- []graph.Edge, nReady <-chan struct{}, nFinal *int, res *workerResult) (FailureKind, error) {
	l := &s.links[m]
	conn, sink := l.conn, s.cfg.Obs
	for batch := range batches {
		l.enc = graph.AppendEdgeBatch(l.enc[:0], batch)
		free <- batch[:0]
		if err := s.send(m, frameShard, l.enc); err != nil {
			return ioKind(err), fmt.Errorf("shard stream: %w", err)
		}
	}
	select {
	case <-nReady:
	case <-runCtx.Done():
		return KindUnknown, nil
	}
	if err := s.send(m, frameEOS, binary.AppendUvarint(nil, uint64(*nFinal))); err != nil {
		return ioKind(err), fmt.Errorf("EOS: %w", err)
	}

	typ, payload, frameLen, err := readFrameDeadline(conn, s.iot)
	if err != nil {
		return ioKind(err), fmt.Errorf("awaiting CORESET: %w", err)
	}
	// A telemetry-capable worker answers EOS with TELEM then CORESET; an old
	// worker sends a bare CORESET and the machine's phase telemetry stays
	// zero. A corrupt TELEM is KindProtocol, like any corrupt frame: a peer
	// that garbles telemetry cannot be trusted about the coreset either.
	if typ == frameTelem {
		t, terr := decodeTelem(payload)
		if terr != nil {
			return KindProtocol, terr
		}
		res.telem = &t
		countTelem(sink, m, frameLen)
		typ, payload, frameLen, err = readFrameDeadline(conn, s.iot)
		if err != nil {
			return ioKind(err), fmt.Errorf("awaiting CORESET: %w", err)
		}
	}
	switch typ {
	case frameCoreset:
		sum, err := task.DecodeSummary(s.d, payload)
		if err != nil {
			return KindProtocol, err
		}
		res.sum, res.wire = sum, frameLen
		countReceived(sink, m, frameLen)
		return KindUnknown, nil
	case frameError:
		return KindProtocol, fmt.Errorf("remote: %s", payload)
	default:
		return KindProtocol, fmt.Errorf("unexpected frame 0x%02x, want CORESET", typ)
	}
}

// fold turns a completed round's per-machine answers into its summaries and
// Stats: the task's own fold (task.Descriptor.FoldStats), which charges each
// summary's body, with the cluster's measurements layered on top — the body
// lengths become the estimate, the CORESET frames measured off the wire the
// reported bytes — plus per-machine telemetry and the shard traffic.
func (s *Session) fold(res []workerResult, scan passResult, retries int, replayed []int) ([]stream.Summary, *Stats) {
	k := len(res)
	sums := make([]stream.Summary, k)
	for m, r := range res {
		sums[m] = r.sum
	}
	st := &Stats{N: scan.n, EdgesTotal: scan.total, Batches: scan.batches, Retries: retries, ReplayedMachines: replayed}
	s.d.FoldStats(st, sums)
	st.EstCommBytes, st.EstMaxMachineBytes = st.TotalCommBytes, st.MaxMachineBytes
	st.TotalCommBytes, st.MaxMachineBytes = 0, 0
	st.MachineStats = make([]graph.MachineStats, k)
	for m, r := range res {
		st.TotalCommBytes += r.wire
		st.MaxMachineBytes = max(st.MaxMachineBytes, r.wire)
		// Per-machine breakdown: a worker without the telemetry capability
		// still gets an entry (edges from its Summary, phase fields zero).
		ms := graph.MachineStats{Machine: m, EdgesIn: r.sum.Edges}
		if r.telem != nil {
			ms = r.telem.machineStats(m)
		}
		st.MachineStats[m] = ms
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
