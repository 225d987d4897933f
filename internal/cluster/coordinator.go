package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/stream"
	"repro/internal/task"
)

// Solve runs the full pipeline for any registered task across the configured
// workers: hash-shard the source's edges over the k worker connections,
// collect the per-machine summaries the descriptor's builders produced on
// the other side of the wire, and compose the final solution from their
// union — exactly the in-process stream.Solve, with the machines remote. It
// is the single dispatch point of the cluster runtime.
func Solve(ctx context.Context, src stream.EdgeSource, cfg Config, d *task.Descriptor, p task.Params) (task.Solution, *Stats, error) {
	start := time.Now()
	sums, st, err := summaries(ctx, src, cfg, d, p)
	if err != nil {
		return task.Solution{}, nil, err
	}
	sol := d.Compose(st.N, sums)
	st.Duration = time.Since(start)
	return sol, st, nil
}

// summaries is a single-round run without the composition: a session with a
// round cap of 1 speaking the task's single-round HELLO (no rounds field),
// one round over the whole fleet with the configured seed, and the close.
func summaries(ctx context.Context, src stream.EdgeSource, cfg Config, d *task.Descriptor, p task.Params) ([]stream.Summary, *Stats, error) {
	if src == nil {
		return nil, nil, errors.New("cluster: nil source")
	}
	h := hello{task: d.Wire, known: src.KnownUpfront()}
	if h.known {
		h.n = src.NumVertices()
	}
	s, err := open(ctx, cfg, d, p, h, 1)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	return s.Round(ctx, src, len(cfg.Workers), cfg.Seed)
}

// readAck consumes the worker's handshake reply — an ACK, or the ERROR
// frame it substituted — under the per-frame deadline, and classifies the
// failure: transport errors are retryable kinds, a rejection or unexpected
// frame is KindHandshake (replaying would fail identically).
func readAck(conn net.Conn, iot time.Duration) (FailureKind, error) {
	typ, payload, _, err := readFrameDeadline(conn, iot)
	if err != nil {
		return ioKind(err), fmt.Errorf("handshake: %w", err)
	}
	switch typ {
	case frameAck:
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

// countReceived reports one CORESET frame read off a worker connection.
func countReceived(sink obs.Sink, machine, frameLen int) {
	if sink == nil {
		return
	}
	lbl := strconv.Itoa(machine)
	obs.CountBy(sink, MetricFramesReceived, "machine", lbl, 1)
	obs.CountBy(sink, MetricCoresetBytes, "machine", lbl, int64(frameLen))
}

// countTelem reports one TELEM frame read off a worker connection. Its bytes
// land in their own metric, never in the coreset communication accounting.
func countTelem(sink obs.Sink, machine, frameLen int) {
	if sink == nil {
		return
	}
	lbl := strconv.Itoa(machine)
	obs.CountBy(sink, MetricFramesReceived, "machine", lbl, 1)
	obs.CountBy(sink, MetricTelemBytes, "machine", lbl, int64(frameLen))
}

// shardSource reads src to exhaustion and routes every edge to the
// per-machine channels with partition.HashAssign(e, len(chans), seed) —
// identical routing to stream.run — flushing mini-batches of bs edges as
// they fill. A machine with a nil channel is not taking part in this pass
// (a replay wave serves only the failed machines) and its edges are dropped.
// A batch is taken from free when one is waiting there — the senders return
// each batch once they have encoded it — and allocated only otherwise. Sends
// block on a machine's channel but never past cancellation. Returns
// the edge and batch totals, a real source error (never a cancellation), and
// whether the loop aborted on runCtx. The caller owns closing the channels.
func shardSource(runCtx context.Context, src stream.EdgeSource, chans []chan []graph.Edge, free <-chan []graph.Edge, bs int, seed uint64) (total, batches int, srcErr error, aborted bool) {
	k := len(chans)
	buf := make([]graph.Edge, bs)
	pending := make([][]graph.Edge, k)
	send := func(i int) bool {
		select {
		case chans[i] <- pending[i]:
			pending[i] = nil
			return true
		case <-runCtx.Done():
			return false
		}
	}
shard:
	for {
		if runCtx.Err() != nil {
			aborted = true
			break
		}
		c, err := src.Next(buf)
		if c > 0 {
			total += c
			batches++
			for _, e := range buf[:c] {
				i := partition.HashAssign(e, k, seed)
				if chans[i] == nil {
					continue
				}
				if pending[i] == nil {
					select {
					case pending[i] = <-free:
					default:
						pending[i] = make([]graph.Edge, 0, bs)
					}
				}
				pending[i] = append(pending[i], e)
				if len(pending[i]) == bs && !send(i) {
					aborted = true
					break shard
				}
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				srcErr = err
			}
			break
		}
	}
	if srcErr == nil && !aborted {
		for i, p := range pending {
			if len(p) > 0 && !send(i) {
				aborted = true
				break
			}
		}
	}
	return total, batches, srcErr, aborted
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
