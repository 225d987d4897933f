package stream

import (
	"context"
	"errors"
	"io"
	"sync"

	"repro/internal/graph"
	"repro/internal/partition"
)

// queueDepth is how many routed batches may wait on one machine. It only has
// to cover the router while a machine is busy (inside its builder's Add loop,
// or a blocking TCP write); past that, a deeper queue is memory a slow
// machine holds for nothing, since backpressure must reach the source anyway.
const queueDepth = 4

// PassResult is what one pass observed of its source.
type PassResult struct {
	Edges, Batches int   // edges and batches read from the source
	N              int   // final vertex count, set only once the source is drained
	Err            error // a real source error, never a cancellation
	Aborted        bool  // routing stopped on cancellation
}

// Feed is one taking-part machine's end of a pass: the batches routed to it
// and, once the source is drained, the final vertex count.
type Feed struct {
	Machine int
	// Batches delivers the machine's edges in arrival order. It is closed
	// when the source is drained or the pass stops; hand each batch back
	// with Recycle once it is consumed.
	Batches <-chan []graph.Edge
	free    chan<- []graph.Edge
	ready   <-chan struct{}
	stopped <-chan struct{}
	n       *int
}

// Recycle hands a consumed batch back to the router, which refills it. Add
// takes edges by value, so nothing downstream may alias a batch past this.
func (f *Feed) Recycle(batch []graph.Edge) { f.free <- batch[:0] }

// N waits for the source to drain and returns the final vertex count; ok is
// false if the pass stopped first (a source error or cancellation).
func (f *Feed) N() (n int, ok bool) {
	select {
	case <-f.ready:
		return *f.n, true
	case <-f.stopped:
		return 0, false
	}
}

// Pass is one round of the simultaneous model's conversation, whatever hosts
// the machines: the caller's goroutine reads src and routes it with Route
// over cfg.K machines, of which only those listed in machines take part (the
// others' edges are dropped — a cluster replay wave serves only the machines
// still owing the round), and serve runs for each taking-part machine on its
// own goroutine. The final vertex count is published to the Feeds only after
// the source is drained (the close(ready) edge is the happens-before that
// makes this race-free). The in-process runtime serves every machine with a
// builder; a cluster round serves each with a worker connection.
//
// Routing batches circulate: a machine hands each consumed batch back with
// Recycle and the router refills it. At most queueDepth queued, one with the
// machine and one filling per machine are ever live, so the free list never
// overflows and a pass allocates O(k) batches however long the source.
//
// Cancellation is cooperative at batch granularity: Route checks ctx once
// per source batch and on every (possibly blocking) send. On a source error
// or cancellation the ctx handed to serve is canceled, which is how a machine
// parked in N — or blocked on anything else watching that ctx — is released.
// Pass returns once every serve call has returned. machines holds distinct
// indices in [0, cfg.K); src must be non-nil and cfg.K positive.
func Pass(ctx context.Context, src EdgeSource, cfg Config, machines []int, serve func(ctx context.Context, f *Feed)) PassResult {
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	var (
		res   PassResult
		ready = make(chan struct{})
		wg    sync.WaitGroup
	)
	chans := make([]chan []graph.Edge, cfg.K) // nil: the router skips the machine
	free := make(chan []graph.Edge, len(machines)*(queueDepth+2))
	for _, m := range machines {
		ch := make(chan []graph.Edge, queueDepth)
		chans[m] = ch
		f := &Feed{Machine: m, Batches: ch, free: free, ready: ready, stopped: ctx.Done(), n: &res.N}
		wg.Add(1)
		go func() {
			defer wg.Done()
			serve(ctx, f)
			// Take back whatever the router still queues for a machine that
			// stopped early, so it never blocks on it (the router owns the
			// close, so this drain always terminates).
			for b := range ch {
				f.Recycle(b)
			}
		}()
	}

	endShard := cfg.Trace.Span("shard", "k", cfg.K)
	res.Edges, res.Batches, res.Err, res.Aborted = Route(ctx, src, chans, free, cfg.batchSize(), cfg.Seed)
	for _, ch := range chans {
		if ch != nil {
			close(ch)
		}
	}
	switch {
	case res.Err != nil:
		endShard("err", res.Err.Error())
		stop()
	case res.Aborted:
		endShard("err", ctx.Err().Error())
		stop()
	default:
		endShard("edges", res.Edges, "batches", res.Batches)
		res.N = src.NumVertices()
		close(ready)
	}
	wg.Wait()
	return res
}

// Route reads src to exhaustion and routes every edge to the per-machine
// channels with partition.HashAssign(e, len(chans), seed), flushing
// mini-batches of bs edges as they fill. It is the one router, and Pass its
// one caller outside tests. A machine with a nil channel is not taking part
// in this pass and its edges are dropped. A batch is taken from free when one
// is waiting there — consumers return each batch once they are done with it —
// and allocated only otherwise. Sends block on a machine's channel but never
// past cancellation. Returns the edge and batch totals, a real source error
// (never a cancellation), and whether the loop aborted on ctx. The caller
// owns closing the channels.
func Route(ctx context.Context, src EdgeSource, chans []chan []graph.Edge, free <-chan []graph.Edge, bs int, seed uint64) (total, batches int, srcErr error, aborted bool) {
	k := len(chans)
	buf := make([]graph.Edge, bs)
	pending := make([][]graph.Edge, k)
	send := func(i int) bool {
		select {
		case chans[i] <- pending[i]:
			pending[i] = nil
			return true
		case <-ctx.Done():
			return false
		}
	}
shard:
	for {
		if ctx.Err() != nil {
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
