package cluster

import (
	"bufio"
	"bytes"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/task"
)

// Allocation budget of the wire's steady-state worker loop, as ordinary tests
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
		rd := bufio.NewReaderSize(server, workerReadBuffer)
		served <- w.serveRounds(server, rd, h, nil, func() task.Builder { return nopBuilder{} })
	}()

	batch := make([]graph.Edge, stream.DefaultBatchSize)
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
	if typ, _, _, err := readFrame(client); err != nil || typ != frameTelem {
		t.Fatalf("EOS answered with frame 0x%02x, err %v; want TELEM", typ, err)
	}
	typ, payload, _, err := readFrame(client)
	if err != nil || typ != frameCoreset {
		t.Fatalf("TELEM followed by frame 0x%02x, err %v; want CORESET", typ, err)
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
