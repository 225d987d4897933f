package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/task"
)

// Worker is a resident coreset worker: it accepts any number of concurrent
// run-assignment connections, hosts one task.Builder per connection and
// round — the same incremental builders the in-process runtime uses — and
// answers each round with a TELEM and a CORESET frame. A worker is stateless
// between runs: all per-run state lives on the connection's goroutine and is
// discarded the moment the connection ends, so a coordinator that vanishes
// mid-shard costs the worker nothing but a logged line.
type Worker struct {
	logger *log.Logger
	tracer *obs.Tracer    // nil: silent (Instrument)
	mx     *workerMetrics // nil: unregistered (Instrument)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	served atomic.Int64 // rounds answered with a CORESET (one per single-round run)
}

// NewWorker returns a worker logging to logger (nil: discard).
func NewWorker(logger *log.Logger) *Worker {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Worker{logger: logger, conns: make(map[net.Conn]struct{})}
}

// workerMetrics is the worker's registry wiring: frame and byte counters by
// direction, and per-phase wall-time histograms.
type workerMetrics struct {
	framesIn, framesOut *obs.Counter
	bytesIn, bytesOut   *obs.Counter
	phaseDecode         *obs.Histogram
	phaseBuild          *obs.Histogram
	phaseEncode         *obs.Histogram
}

// Instrument attaches a tracer and a metrics registry to the worker; call
// before Serve. A nil tracer keeps spans silent and a nil registry skips
// metric registration entirely, so an uninstrumented worker pays nothing.
// Worker spans are stamped with the run ID each coordinator ships in its
// HELLO, which is what joins a `coreset worker -trace` log to the
// coordinator's trace stream.
func (w *Worker) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	w.tracer = tr
	if reg == nil {
		return
	}
	frames := reg.CounterVec("worker_frames_total", "protocol frames handled, by direction", "dir")
	bytes := reg.CounterVec("worker_bytes_total", "protocol wire bytes (headers included), by direction", "dir")
	phases := reg.HistogramVec("worker_phase_seconds", "per-round phase wall time (shard decode, insert/repair, coreset encode)", obs.DefLatencyBuckets, "phase")
	reg.CounterFunc("worker_runs_total", "CORESET frames answered (runs, or rounds of multi-round runs)", func() float64 {
		return float64(w.served.Load())
	})
	w.mx = &workerMetrics{
		framesIn:    frames.With("in"),
		framesOut:   frames.With("out"),
		bytesIn:     bytes.With("in"),
		bytesOut:    bytes.With("out"),
		phaseDecode: phases.With("decode"),
		phaseBuild:  phases.With("build"),
		phaseEncode: phases.With("encode"),
	}
}

// countIn/countOut record one frame's wire traffic (nil-safe).
func (w *Worker) countIn(n int) {
	if w.mx != nil && n > 0 {
		w.mx.framesIn.Inc()
		w.mx.bytesIn.Add(int64(n))
	}
}

func (w *Worker) countOut(n int) {
	if w.mx != nil && n > 0 {
		w.mx.framesOut.Inc()
		w.mx.bytesOut.Add(int64(n))
	}
}

// observePhases feeds one round's phase times into the histograms (nil-safe).
func (w *Worker) observePhases(t *workerTelem) {
	if w.mx == nil {
		return
	}
	w.mx.phaseDecode.Observe(float64(t.decodeNS) / 1e9)
	w.mx.phaseBuild.Observe(float64(t.buildNS) / 1e9)
	w.mx.phaseEncode.Observe(float64(t.encodeNS) / 1e9)
}

// Serve accepts run-assignment connections on ln until the listener is
// closed (by Shutdown or externally). It returns nil after a Shutdown-driven
// close and the accept error otherwise.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		ln.Close()
		return errors.New("cluster: worker is shut down")
	}
	w.ln = ln
	w.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return nil
		}
		w.conns[conn] = struct{}{}
		w.wg.Add(1)
		w.mu.Unlock()
		go func() {
			defer w.wg.Done()
			defer func() {
				w.mu.Lock()
				delete(w.conns, conn)
				w.mu.Unlock()
				conn.Close()
			}()
			if err := w.handle(conn); err != nil {
				w.logger.Printf("run from %s aborted: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// Served returns how many CORESET frames this worker has answered — one per
// single-round run, one per completed round of a multi-round assignment.
func (w *Worker) Served() int64 { return w.served.Load() }

// Active returns the number of in-flight run-assignment connections.
func (w *Worker) Active() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.conns)
}

// Shutdown drains the worker: the listener stops accepting, in-flight runs
// finish, and all connection goroutines exit before Shutdown returns. If ctx
// expires first the remaining connections are force-closed (their
// coordinators observe a WorkerError) and Shutdown still waits for the
// goroutines before returning the ctx error.
func (w *Worker) Shutdown(ctx context.Context) error {
	w.mu.Lock()
	w.closed = true
	if w.ln != nil {
		w.ln.Close()
	}
	w.mu.Unlock()

	done := make(chan struct{})
	go func() {
		w.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		w.mu.Lock()
		for conn := range w.conns {
			conn.Close()
		}
		w.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// handle speaks one run-assignment: the HELLO/ACK handshake, then up to the
// HELLO's round cap of rounds (serveRounds). Protocol and decode failures
// are answered with a best-effort ERROR frame before the connection drops.
// A panic while serving one run (a malformed input the validations missed)
// is confined to that connection: the worker is resident and must outlive
// any single coordinator.
func (w *Worker) handle(conn net.Conn) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: panic serving run: %v", r)
			_, _ = writeFrame(conn, frameError, []byte(err.Error()))
		}
	}()
	fail := func(err error) error {
		_, _ = writeFrame(conn, frameError, []byte(err.Error()))
		return err
	}

	// Every frame of the connection, the HELLO included, is read through
	// one buffered reader, so a read syscall brings in several SHARD frames.
	rd := bufio.NewReaderSize(conn, workerReadBuffer)
	typ, payload, nr, err := readFrame(rd)
	if err != nil {
		return fmt.Errorf("reading HELLO: %w", err)
	}
	w.countIn(nr)
	if typ != frameHello {
		return fail(fmt.Errorf("cluster: expected HELLO, got frame 0x%02x", typ))
	}
	h, err := decodeHello(payload)
	if err != nil {
		return fail(err)
	}
	nHint := 0
	if h.known {
		nHint = h.n
	}
	nw, err := writeFrame(conn, frameAck, encodeAck())
	if err != nil {
		return fmt.Errorf("writing ACK: %w", err)
	}
	w.countOut(nw)
	// Worker spans join the coordinator's trace stream via the run ID the
	// HELLO carried (empty when the coordinator is not tracing).
	tr := w.tracer.WithRun(h.runID)
	endRun := tr.Span("worker.run", "machine", h.machine, "task", taskName(h.task), "k", h.k)
	defer func() { endRun() }()
	// decodeHello already rejected unknown task bytes, so the registry lookup
	// cannot miss; the descriptor supplies the machine's builder, so the
	// worker itself is task-agnostic.
	d, _, _ := task.ByWire(h.task)
	return w.serveRounds(conn, rd, h, tr, func() task.Builder {
		return d.NewBuilder(h.k, nHint, task.Params{EDCS: h.edcs})
	})
}

// consumeFrame handles one mid-run frame for the machine's builder b: SHARD
// feeds it, EOS finishes it and answers with a TELEM and then the CORESET
// frame (done = true). tm accumulates the round's phase times, edge count and
// build counters; the caller resets it at round boundaries. shard is the
// connection's SHARD decode buffer: builders copy what they keep of an Add,
// so every frame decodes into the same array. payload may alias the
// connection's frame buffer; nothing of it is kept past the call.
func (w *Worker) consumeFrame(conn net.Conn, h hello, b task.Builder, round int, typ byte, payload []byte, tm *workerTelem, shard *[]graph.Edge) (done bool, err error) {
	fail := func(err error) error {
		_, _ = writeFrame(conn, frameError, []byte(err.Error()))
		return err
	}
	switch typ {
	case frameShard:
		t0 := time.Now()
		edges, rest, err := graph.DecodeEdgeBatchInto(*shard, payload)
		if err != nil {
			return false, fail(err)
		}
		if len(rest) != 0 {
			return false, fail(fmt.Errorf("cluster: %d trailing bytes in SHARD", len(rest)))
		}
		*shard = edges
		t1 := time.Now()
		for _, e := range edges {
			b.Add(e)
		}
		tm.decodeNS += uint64(t1.Sub(t0))
		tm.buildNS += uint64(time.Since(t1))
		tm.edgesIn += len(edges)
		return false, nil
	case frameEOS:
		n, k := binary.Uvarint(payload)
		if k <= 0 || k != len(payload) || n > maxVertices {
			// Finish allocates O(n) state; an unvalidated count is the
			// one allocation maxFramePayload cannot bound. The count is
			// the whole payload, like every other frame's fields.
			return false, fail(errors.New("cluster: corrupt EOS"))
		}
		t0 := time.Now()
		sum := b.Finish(int(n))
		sum.Edges = tm.edgesIn
		d, _, _ := task.ByWire(h.task) // cannot miss: decodeHello accepted the byte
		// sum.Bytes is the length of the coreset body; sized to it plus the
		// frame header and trailer and the stats prefix (three uvarints, 30
		// bytes at most) the frame is allocated once instead of doubling its
		// way up to a coreset-sized one, and leaves without a copy.
		coreset := task.AppendSummary(newFrame(make([]byte, 0, frameOverhead+3*binary.MaxVarintLen64+sum.Bytes)), d, sum)
		// The frame is all that leaves: the summary's memory goes back to
		// the free lists for the next round's machines.
		task.Release(sum)
		tm.encodeNS += uint64(time.Since(t0))
		if bt, ok := b.(task.Telemetered); ok {
			tm.BuildCounters = bt.Telem()
		}
		w.observePhases(tm)
		// Counted before the answer goes out, so a coordinator that has read
		// the CORESET never finds this round missing from the worker's
		// counters.
		w.served.Add(1)
		nw, err := writeFramed(conn, frameTelem, appendTelem(newFrame(nil), *tm))
		if err != nil {
			return false, fmt.Errorf("machine %d round %d: writing TELEM: %w", h.machine, round, err)
		}
		w.countOut(nw)
		nw, err = writeFramed(conn, frameCoreset, coreset)
		if err != nil {
			return false, fmt.Errorf("machine %d round %d: writing CORESET: %w", h.machine, round, err)
		}
		w.countOut(nw)
		return true, nil
	default:
		return false, fail(fmt.Errorf("cluster: unexpected frame 0x%02x mid-shard", typ))
	}
}

// serveRounds speaks an assignment's rounds: up to h.rounds rounds of
// SHARD*/EOS on this one connection, each answered by TELEM and CORESET,
// with a FRESH builder per round (made by mk) — round r's input is a
// different graph (the union of round r-1's coresets across all machines), so
// nothing may carry over. The coordinator cannot know the final round count upfront
// (its early exit fires when the union stops shrinking) and may also drop
// this machine from later rounds (the schedule shrinks k), so it ends the
// assignment by closing the connection at a round boundary; a read error
// before any frame of a new round is therefore a clean end of run, while one
// mid-round — or before the first round — is a real abort. Frames are read
// from rd, the connection's buffered reader (handle read the HELLO through
// it too, so nothing it buffered is lost), and answers written to conn.
func (w *Worker) serveRounds(conn net.Conn, rd io.Reader, h hello, tr *obs.Tracer, mk func() task.Builder) error {
	var shard []graph.Edge
	var fb frameBuf // every mid-run frame is consumed before the next read
	for round := 0; round < h.rounds; round++ {
		b := mk()
		tm := new(workerTelem) // fresh per round, like the builder
		inRound := false
		endRound := func(...any) {}
		for {
			typ, payload, nr, err := readFrameInto(rd, &fb)
			if err != nil {
				// Only an orderly close (clean EOF before any frame of a new
				// round) is the documented end-of-run signal; resets,
				// timeouts and mid-header EOFs are real aborts and must be
				// surfaced.
				if !inRound && round > 0 && errors.Is(err, io.EOF) {
					return nil
				}
				return fmt.Errorf("machine %d round %d: reading frame: %w", h.machine, round, err)
			}
			w.countIn(nr)
			if !inRound {
				inRound = true
				endRound = tr.Span("worker.round", "machine", h.machine, "round", round)
			}
			done, err := w.consumeFrame(conn, h, b, round, typ, payload, tm, &shard)
			if err != nil {
				return err
			}
			if done {
				endRound("edges", tm.edgesIn)
				break
			}
		}
	}
	return nil
}
