package cluster

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/diversity"
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/task"
)

// The HELLO task bytes as they are on the wire today. The registry is what
// the protocol code dispatches through; these restate its values for the
// wire-level tests, and TestTaskBytesMatchRegistry keeps the two from
// drifting — a changed byte is a protocol break, not a refactor.
const (
	taskMatching   byte = 1
	taskVC         byte = 2
	taskEDCS       byte = 3
	taskEDCSRounds byte = 4
	taskDiversity  byte = 5
)

// TestTaskBytesMatchRegistry pins the wire-byte constants to the registry's
// descriptors.
func TestTaskBytesMatchRegistry(t *testing.T) {
	for name, b := range map[string]byte{
		"matching":  taskMatching,
		"vc":        taskVC,
		"edcs":      taskEDCS,
		"diversity": taskDiversity,
	} {
		d := task.MustGet(name)
		if d.Wire != b {
			t.Errorf("task %s: registry wire 0x%02x, local const 0x%02x", name, d.Wire, b)
		}
	}
	if d := task.MustGet("edcs"); d.WireRounds != taskEDCSRounds {
		t.Errorf("edcs rounds: registry 0x%02x, local const 0x%02x", d.WireRounds, taskEDCSRounds)
	}
	// Every registered byte resolves to a human-readable name (no fallback
	// formatting), and the multi-round byte is labeled as such.
	for _, tc := range []struct {
		b    byte
		want string
	}{
		{taskMatching, "matching"},
		{taskVC, "vc"},
		{taskEDCS, "edcs"},
		{taskEDCSRounds, "edcs-rounds"},
		{taskDiversity, "diversity"},
	} {
		if got := taskName(tc.b); got != tc.want {
			t.Errorf("taskName(0x%02x) = %q, want %q", tc.b, got, tc.want)
		}
	}
	if got := taskName(0x2a); got != "task-0x2a" {
		t.Errorf("taskName(unknown) = %q", got)
	}
}

// TestDiversityParityAcrossRuntimes proves the tentpole claim: the diversity
// task was added as a package plus one registry entry, and the batch, stream
// and cluster runtimes all execute it through the descriptor with the same
// seed-parity guarantee the built-in tasks carry — deep-equal per-machine
// summaries against a per-partition oracle, and identical composed center
// sets (hence identical dispersion) across all three runtimes.
func TestDiversityParityAcrossRuntimes(t *testing.T) {
	const k = 4
	addrs := startWorkers(t, k)
	ctx := context.Background()
	d := task.MustGet("diversity")

	for seed := uint64(1); seed <= 4; seed++ {
		g := parityGraph(seed, 800, 8)
		cfg := Config{Workers: addrs, Seed: seed}
		parts := batchHashParts(g, k, seed)

		// Per-machine summaries survive the wire deep-equal to the oracle:
		// greedy centers over the partition's touched vertices.
		sums, _, err := summaries(ctx, stream.NewGraphSource(g), cfg, diversityTask, task.Params{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, p := range parts {
			seen := make(map[graph.ID]struct{})
			for _, e := range p {
				seen[e.U] = struct{}{}
				seen[e.V] = struct{}{}
			}
			verts := make([]graph.ID, 0, len(seen))
			for v := range seen {
				verts = append(verts, v)
			}
			want := diversity.Centers(verts, diversity.DefaultK)
			if !reflect.DeepEqual(sums[i].Verts, want) {
				t.Fatalf("seed %d machine %d: cluster centers %v differ from oracle %v", seed, i, sums[i].Verts, want)
			}
			if sums[i].Edges != len(p) {
				t.Fatalf("seed %d machine %d: worker received %d edges, oracle part has %d", seed, i, sums[i].Edges, len(p))
			}
			if sums[i].Stored != len(seen) {
				t.Fatalf("seed %d machine %d: stored %d, distinct vertices %d", seed, i, sums[i].Stored, len(seen))
			}
		}

		// Composed solutions agree across batch, stream and cluster.
		bsol, _ := d.Batch(g, k, 0, seed, task.Params{})
		ssol, sst, err := stream.Solve(ctx, stream.NewGraphSource(g), stream.Config{K: k, Seed: seed}, d, task.Params{})
		if err != nil {
			t.Fatalf("seed %d stream: %v", seed, err)
		}
		csol, cst, err := Solve(ctx, stream.NewGraphSource(g), cfg, d, task.Params{})
		if err != nil {
			t.Fatalf("seed %d cluster: %v", seed, err)
		}
		if !reflect.DeepEqual(bsol.Verts, ssol.Verts) || !reflect.DeepEqual(ssol.Verts, csol.Verts) {
			t.Fatalf("seed %d: composed centers diverge:\nbatch   %v\nstream  %v\ncluster %v",
				seed, bsol.Verts, ssol.Verts, csol.Verts)
		}
		if bsol.Size != ssol.Size || ssol.Size != csol.Size {
			t.Fatalf("seed %d: dispersion diverges: batch %d stream %d cluster %d", seed, bsol.Size, ssol.Size, csol.Size)
		}
		if want := diversity.Dispersion(csol.Verts); csol.Size != want {
			t.Fatalf("seed %d: reported dispersion %d, recomputed %d", seed, csol.Size, want)
		}
		if err := diversity.Verify(g.N, csol.Verts); err != nil {
			t.Fatalf("seed %d: composed centers invalid: %v", seed, err)
		}
		checkMeasuredBytes(t, cst, sst.TotalCommBytes)
	}
}

// TestUnknownTaskHelloTyped: an unknown task byte in HELLO decodes to the
// typed *UnknownTaskError naming the byte and the registry's known range,
// classified as a protocol failure (not retryable).
func TestUnknownTaskHelloTyped(t *testing.T) {
	_, err := decodeHello(encodeHello(hello{version: protocolVersion, task: 0x09, k: 1}))
	var ute *UnknownTaskError
	if !errors.As(err, &ute) {
		t.Fatalf("err = %v (%T), want *UnknownTaskError", err, err)
	}
	if ute.Task != 0x09 {
		t.Fatalf("Task = 0x%02x, want 0x09", ute.Task)
	}
	if ute.Known != task.WireRange() {
		t.Fatalf("Known = %q, want the registry range %q", ute.Known, task.WireRange())
	}
	if ute.Kind() != KindProtocol {
		t.Fatalf("Kind = %v, want KindProtocol", ute.Kind())
	}
	want := "cluster: unknown task 0x09 (known tasks 0x01, 0x02, 0x03, 0x04, 0x05)"
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
}

// TestUnknownTaskHelloWire: a worker answers a HELLO carrying an unknown
// task byte with an ERROR frame that names the byte and the known range —
// the coordinator-side operator sees which side is out of date.
func TestUnknownTaskHelloWire(t *testing.T) {
	addrs, shutdown, err := ServeLoopback(1)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	h := hello{version: protocolVersion, task: 0x7f, k: 1}
	if _, err := writeFrame(conn, frameHello, encodeHello(h)); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameError {
		t.Fatalf("got frame 0x%02x, want ERROR", typ)
	}
	msg := string(payload)
	if !strings.Contains(msg, "unknown task 0x7f") || !strings.Contains(msg, "known tasks") {
		t.Fatalf("ERROR payload %q does not name the byte and the known range", msg)
	}
}

// FuzzDiversityCodec: the diversity CORESET body decoder must never panic on
// arbitrary bytes, and anything it accepts must re-encode canonically (decode
// → encode → decode is a fixpoint).
func FuzzDiversityCodec(f *testing.F) {
	d := task.MustGet("diversity")
	b := d.NewBuilder(2, 100, task.Params{})
	b.Add(graph.Edge{U: 1, V: 99})
	b.Add(graph.Edge{U: 4, V: 57})
	s := b.Finish(100)
	s.Edges = 2
	f.Add(task.AppendSummary(nil, diversityTask, s))
	f.Add(task.AppendSummary(nil, diversityTask, task.Summary{}))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := task.DecodeSummary(diversityTask, data)
		if err != nil {
			return
		}
		re := task.AppendSummary(nil, diversityTask, sum)
		got, err := task.DecodeSummary(diversityTask, re)
		if err != nil {
			t.Fatalf("re-decode of a re-encoded summary failed: %v", err)
		}
		if !reflect.DeepEqual(got, sum) {
			t.Fatalf("decode/encode not a fixpoint:\n got %+v\nwant %+v", got, sum)
		}
	})
}
