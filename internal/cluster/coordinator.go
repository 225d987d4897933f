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
// union — exactly the in-process stream.Solve, with the machines remote.
func Solve(ctx context.Context, src stream.EdgeSource, cfg Config, d *task.Descriptor, p task.Params) (task.Solution, *core.PipelineStats, error) {
	start := time.Now()
	sums, st, err := summaries(ctx, src, cfg, d, p)
	if err != nil {
		return task.Solution{}, nil, err
	}
	sol := d.Compose(st.N, sums)
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

// countSent reports one coordinator-to-worker frame write to the sink, under
// the writing machine's label: the bytes that made it onto the wire always
// count, the frame only when the write fully succeeded.
func countSent(sink obs.Sink, machine, n int, err error) {
	if sink == nil {
		return
	}
	lbl := strconv.Itoa(machine)
	obs.CountBy(sink, MetricShardBytes, "machine", lbl, int64(n))
	if err == nil {
		obs.CountBy(sink, MetricFramesSent, "machine", lbl, 1)
	}
}

// countReceived reports one frame read off a worker connection, its bytes
// under bytesMetric: MetricCoresetBytes for a CORESET, MetricTelemBytes for a
// TELEM, whose bytes never enter the coreset communication accounting.
func countReceived(sink obs.Sink, machine int, bytesMetric string, frameLen int) {
	if sink == nil {
		return
	}
	lbl := strconv.Itoa(machine)
	obs.CountBy(sink, MetricFramesReceived, "machine", lbl, 1)
	obs.CountBy(sink, bytesMetric, "machine", lbl, int64(frameLen))
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
