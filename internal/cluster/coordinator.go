package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/task"
)

// Solve runs the full pipeline for any registered task across the configured
// workers: hash-shard the source's edges over the k worker connections,
// collect the per-machine summaries the descriptor's builders produced on
// the other side of the wire, and compose the final solution from their
// union — exactly the in-process stream.Solve, with the machines remote. The
// decoded summaries go back to the free lists once composed (task.Release).
func Solve(ctx context.Context, src stream.EdgeSource, cfg Config, d *task.Descriptor, p task.Params) (task.Solution, *core.PipelineStats, error) {
	start := time.Now()
	sums, st, err := summaries(ctx, src, cfg, d, p)
	if err != nil {
		return task.Solution{}, nil, err
	}
	sol := d.Compose(st.N, sums)
	task.Release(sums...)
	st.Duration = time.Since(start)
	return sol, st, nil
}

// summaries is a single-round run without the composition: a session opened
// with rounds 0, one round over the whole fleet with the configured seed,
// and the close.
func summaries(ctx context.Context, src stream.EdgeSource, cfg Config, d *task.Descriptor, p task.Params) ([]task.Summary, *core.PipelineStats, error) {
	if src == nil {
		return nil, nil, errors.New("cluster: nil source")
	}
	nHint := 0
	if src.KnownUpfront() {
		nHint = src.NumVertices()
	}
	s, err := Open(ctx, cfg, d, p, 0, nHint)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	return s.Round(ctx, src, len(cfg.Workers), cfg.Seed)
}

// readAck consumes the worker's handshake reply — an ACK, or the ERROR
// frame it substituted — under the per-frame deadline, and classifies the
// failure: transport errors are retryable kinds, a rejection, an unexpected
// frame or an ACK other than encodeAck's bytes is KindHandshake (replaying
// would fail identically).
func readAck(conn net.Conn, iot time.Duration) (FailureKind, error) {
	typ, payload, _, err := readFrameDeadline(conn, iot)
	if err != nil {
		return ioKind(err), fmt.Errorf("handshake: %w", err)
	}
	switch typ {
	case frameAck:
		if !bytes.Equal(payload, encodeAck()) {
			return KindHandshake, fmt.Errorf("handshake: ACK % x, want % x", payload, encodeAck())
		}
		return KindUnknown, nil
	case frameError:
		return KindHandshake, fmt.Errorf("remote: %s", payload)
	default:
		return KindHandshake, fmt.Errorf("handshake: unexpected frame 0x%02x", typ)
	}
}

// coordMetrics is the coordinator's registry wiring (Config.Metrics),
// resolved once per Open; a nil *coordMetrics reports nothing. The
// per-connection counters live on each link (linkMetrics), so a frame pays
// an atomic add and no lookup.
type coordMetrics struct {
	dials, failures, backoffs, retries, replays *obs.Counter
}

// linkMetrics is one machine's children of the "machine"-labelled families.
type linkMetrics struct {
	framesSent, framesReceived *obs.Counter
	shardBytes                 *obs.Counter
	coresetBytes, telemBytes   *obs.Counter
}

// newCoordMetrics registers the coordinator's families on reg and hands each
// link its machine's children; a nil reg returns nil and leaves the links
// silent.
func newCoordMetrics(reg *obs.Registry, links []link) *coordMetrics {
	if reg == nil {
		return nil
	}
	byMachine := func(name, help string) *obs.CounterVec { return reg.CounterVec(name, help, "machine") }
	sent := byMachine(MetricFramesSent, "Frames the coordinator wrote to workers (HELLO, SHARD, EOS), by machine.")
	received := byMachine(MetricFramesReceived, "TELEM and CORESET frames the coordinator read from workers, by machine.")
	shard := byMachine(MetricShardBytes, "Coordinator-to-worker wire bytes (HELLO, SHARD and EOS frames, partial writes included), by machine.")
	coreset := byMachine(MetricCoresetBytes, "CORESET frame bytes measured off the worker connections: the coreset communication the paper bounds, by machine.")
	telem := byMachine(MetricTelemBytes, "TELEM frame bytes read off the worker connections (measurement overhead, not coreset communication), by machine.")
	for m := range links {
		lbl := strconv.Itoa(m)
		links[m].mx = &linkMetrics{
			framesSent: sent.With(lbl), framesReceived: received.With(lbl),
			shardBytes: shard.With(lbl), coresetBytes: coreset.With(lbl), telemBytes: telem.With(lbl),
		}
	}
	return &coordMetrics{
		dials:    reg.Counter(MetricDialAttempts, "Worker connection attempts, replay re-dials included."),
		failures: reg.Counter(MetricWorkerFailures, "Machines taken down by a worker failure (dial, connection, deadline, handshake or protocol)."),
		backoffs: reg.Counter(MetricBackoffSleeps, "Backoff sleeps before a replay wave."),
		retries:  reg.Counter(MetricRetries, "Replay attempts of a machine's round after a retryable worker failure."),
		replays:  reg.Counter(MetricReplays, "Machines whose round was successfully replayed after a worker loss."),
	}
}

// countSent records one coordinator-to-worker frame write: the bytes that
// made it onto the wire always count, the frame only when the write fully
// succeeded.
func (l *link) countSent(n int, err error) {
	if l.mx == nil {
		return
	}
	l.mx.shardBytes.Add(int64(n))
	if err == nil {
		l.mx.framesSent.Inc()
	}
}

// countReceived records one frame read off the link's connection, its bytes
// under the TELEM counter or the CORESET one: telemetry never enters the
// coreset communication accounting.
func (l *link) countReceived(telem bool, frameLen int) {
	if l.mx == nil {
		return
	}
	l.mx.framesReceived.Inc()
	if telem {
		l.mx.telemBytes.Add(int64(frameLen))
	} else {
		l.mx.coresetBytes.Add(int64(frameLen))
	}
}

// closeOnCancel force-closes conn when ctx is canceled; the returned stop
// function ends the watch (idempotently) once the connection is done.
//
// The done recheck inside the cancellation case matters for connections
// that outlive the watch (a Session reuses its connections across rounds): on a successful round, stop() runs strictly before the round's
// deferred cancel, but a watcher that first wakes with BOTH channels ready
// would pick a select case at random — and must not close a connection the
// next round is about to use.
func closeOnCancel(ctx context.Context, conn net.Conn) (stop func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			select {
			case <-done:
				// The conversation finished before the cancellation; leave
				// the connection alone.
			default:
				conn.Close()
			}
		case <-done:
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
