package cluster

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/task"
)

// Allocation budgets of the wire's two steady-state loops, as ordinary tests
// so that a regression names the layer instead of waiting for the benchmark.

// nopBuilder discards its shard, so the worker-loop budget below measures the
// wire alone.
type nopBuilder struct{}

func (nopBuilder) Add(graph.Edge) {}
func (nopBuilder) Finish(int) task.Summary {
	return task.Summary{VC: &core.VCCoreset{Residual: []graph.Edge{}}}
}

// The worker's SHARD loop reads every frame into the connection's one buffer
// and decodes it into the connection's one batch: past the first frame, which
// sizes both, a frame costs no allocation.
func TestWorkerShardLoopAllocatesNothingPerFrame(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	w := NewWorker(nil)
	h := hello{version: protocolVersion, task: taskVC, k: 1, rounds: 1}
	served := make(chan error, 1)
	go func() {
		served <- w.serveRounds(server, h, nil, func() *stream.Machine { return stream.NewMachine(nopBuilder{}) })
	}()

	batch := make([]graph.Edge, DefaultBatchSize)
	for i := range batch {
		batch[i] = graph.Edge{U: graph.ID(i), V: graph.ID(3*i + 1)}
	}
	// One whole SHARD frame, header included, written as a single slice so
	// that the test's side of the pipe allocates nothing either.
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, frameShard, graph.AppendEdgeBatch(nil, batch)); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	const frames = 200
	perFrame := testing.AllocsPerRun(frames, func() {
		if _, err := client.Write(frame); err != nil {
			t.Error(err)
		}
	})
	if perFrame != 0 {
		t.Errorf("the SHARD loop allocates %.0f times per frame, want 0", perFrame)
	}

	if _, err := writeFrame(client, frameEOS, []byte{10}); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := readFrame(client)
	if err != nil || typ != frameCoreset {
		t.Fatalf("EOS answered with frame 0x%02x, err %v", typ, err)
	}
	sum, err := task.DecodeSummary(vcTask, payload)
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls once more than it counts, to warm up.
	if want := (frames + 1) * len(batch); sum.Edges != want {
		t.Fatalf("the worker counted %d edges, sent %d", sum.Edges, want)
	}
	if err := <-served; err != nil {
		t.Fatalf("serveRounds: %v", err)
	}
}

// The sharder takes its routing batches back from the senders: a pass
// allocates the batches that circulate — at most shardQueueDepth queued, one
// with the sender and one filling per machine — and its fixed set-up, however
// many batches it routes.
func TestShardSourceAllocatesNothingPerBatch(t *testing.T) {
	const (
		k       = 4
		bs      = 64
		batches = 4000
	)
	edges := make([]graph.Edge, bs*batches)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.ID(i % 5000), V: graph.ID(i % 4999)}
	}
	routed := 0
	pass := func() {
		chans := make([]chan []graph.Edge, k)
		free := make(chan []graph.Edge, k*(shardQueueDepth+2))
		var wg sync.WaitGroup
		for m := range chans {
			chans[m] = make(chan []graph.Edge, shardQueueDepth)
			wg.Add(1)
			go func() { // a sender: done with a batch as soon as it is encoded
				defer wg.Done()
				for b := range chans[m] {
					free <- b[:0]
				}
			}()
		}
		total, _, err, aborted := shardSource(context.Background(), stream.NewSliceSource(5000, edges), chans, free, bs, 1)
		for _, ch := range chans {
			close(ch)
		}
		wg.Wait()
		if err != nil || aborted || total != len(edges) {
			t.Errorf("shardSource routed %d of %d edges (err %v, aborted %v)", total, len(edges), err, aborted)
		}
		routed = total / bs
	}
	perPass := testing.AllocsPerRun(5, pass)
	// The set-up is the channels, goroutines and wait group above, the
	// source, and shardSource's read buffer and pending table.
	const setUp = 40
	if limit := float64(k*(shardQueueDepth+2) + setUp); perPass > limit {
		t.Errorf("a pass over %d batches allocates %.0f times, want at most %.0f", routed, perPass, limit)
	}
	t.Logf("%.0f allocations per pass of %d batches", perPass, routed)
}
