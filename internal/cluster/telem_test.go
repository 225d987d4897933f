package cluster

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// TestTelemCodec: the TELEM payload round-trips field-for-field, and the
// strict decoder rejects both truncation and trailing garbage — the two ways
// a corrupt frame can still be a parseable prefix.
func TestTelemCodec(t *testing.T) {
	want := workerTelem{
		decodeNS: 1_500_000, buildNS: 92_000_000, encodeNS: 310_000,
		edgesIn: 4096, repairIters: 17, removals: 9, peakCoreset: 801,
	}
	full := appendTelem(nil, want)
	got, err := decodeTelem(full)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	for i := 1; i < len(full); i++ {
		if _, err := decodeTelem(full[:i]); err == nil {
			t.Fatalf("truncated TELEM (%d of %d bytes) accepted", i, len(full))
		}
	}
	if _, err := decodeTelem(append(full, 0x00)); err == nil {
		t.Fatal("trailing bytes after TELEM accepted")
	}
	// The fold into the report schema converts nanoseconds to milliseconds.
	ms := want.machineStats(3)
	if ms.Machine != 3 || ms.BuildMS != 92 || ms.EdgesIn != 4096 || ms.PeakCoreset != 801 {
		t.Fatalf("machineStats fold: %+v", ms)
	}
}

// legacyWorker emulates a pre-telemetry worker: a valid handshake with the
// old one-byte ACK (no capability bits), the telemetry request in HELLO
// ignored, and EOS answered with a bare CORESET — no TELEM frame. The HELLO
// it decoded lands in sawHello so the test can assert what the coordinator
// asked for.
func legacyWorker(t *testing.T, sawHello chan<- hello) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		typ, payload, _, err := readFrame(conn)
		if err != nil || typ != frameHello {
			return
		}
		h, err := decodeHello(payload)
		if err != nil {
			return
		}
		sawHello <- h
		if _, err := writeFrame(conn, frameAck, []byte{protocolVersion}); err != nil {
			return
		}
		var edges []graph.Edge
		for {
			typ, payload, _, err := readFrame(conn)
			if err != nil {
				return
			}
			if typ == frameEOS {
				break
			}
			batch, _, err := graph.DecodeEdgeBatch(payload)
			if err != nil {
				return
			}
			edges = append(edges, batch...)
		}
		sum := stream.Summary{Edges: len(edges), Stored: len(edges), Coreset: edges}
		_, _ = writeFrame(conn, frameCoreset, task.AppendSummary(nil, matchingTask, sum))
	}()
	return ln.Addr().String()
}

// TestBareCoresetTolerated: a mixed fleet — one telemetry-capable worker, one
// legacy worker that never sends TELEM — must complete, with the legacy
// machine's MachineStats entry present but zeroed in its phase fields. The
// capability is negotiated, never assumed.
func TestBareCoresetTolerated(t *testing.T) {
	capable := startWorkers(t, 1)
	sawHello := make(chan hello, 1)
	legacy := legacyWorker(t, sawHello)

	g := gen.GNP(1500, 12.0/1500, rng.New(51))
	cfg := Config{Workers: []string{capable[0], legacy}, Seed: 51, BatchSize: 64, RunID: "r-telmtest"}
	var sums []stream.Summary
	var st *Stats
	err := runWithTimeout(t, 30*time.Second, func() error {
		var err error
		sums, st, err = summaries(context.Background(), stream.NewGraphSource(g), cfg, matchingTask, task.Params{})
		return err
	})
	if err != nil {
		t.Fatalf("mixed fleet run failed: %v", err)
	}

	// The coordinator always asks: the legacy worker saw the telemetry bit
	// and the run ID, and simply did not reciprocate.
	h := <-sawHello
	if !h.telem || h.runID != cfg.RunID {
		t.Fatalf("legacy worker saw telem=%v runID=%q, want telem=true runID=%q", h.telem, h.runID, cfg.RunID)
	}

	if len(st.MachineStats) != 2 {
		t.Fatalf("MachineStats has %d entries, want one per machine", len(st.MachineStats))
	}
	cap0, leg1 := st.MachineStats[0], st.MachineStats[1]
	if cap0.DecodeMS+cap0.BuildMS+cap0.EncodeMS <= 0 {
		t.Errorf("capable machine reported no phase time: %+v", cap0)
	}
	if cap0.EdgesIn != sums[0].Edges {
		t.Errorf("capable machine EdgesIn = %d, want its summary's %d", cap0.EdgesIn, sums[0].Edges)
	}
	if leg1.DecodeMS != 0 || leg1.BuildMS != 0 || leg1.EncodeMS != 0 || leg1.RepairIters != 0 || leg1.PeakCoreset != 0 {
		t.Errorf("legacy machine has nonzero phase telemetry: %+v", leg1)
	}
	// Edge accounting still comes from the CORESET summary, TELEM or not.
	if leg1.Machine != 1 || leg1.EdgesIn != sums[1].Edges || sums[1].Edges == 0 {
		t.Errorf("legacy machine entry = %+v, want EdgesIn = %d > 0", leg1, sums[1].Edges)
	}
}

// telemCorruptingWorker speaks a full valid run but answers EOS with a TELEM
// frame carrying the given payload (then a well-formed CORESET, which the
// coordinator must never reach).
func telemCorruptingWorker(t *testing.T, telemPayload []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if typ, _, _, err := readFrame(conn); err != nil || typ != frameHello {
					return
				}
				if _, err := writeFrame(conn, frameAck, []byte{protocolVersion, ackCapTelem}); err != nil {
					return
				}
				for {
					typ, _, _, err := readFrame(conn)
					if err != nil {
						return
					}
					if typ == frameEOS {
						break
					}
				}
				if _, err := writeFrame(conn, frameTelem, telemPayload); err != nil {
					return
				}
				sum := stream.Summary{Coreset: []graph.Edge{}}
				_, _ = writeFrame(conn, frameCoreset, task.AppendSummary(nil, matchingTask, sum))
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestCorruptTelemIsTerminal: a garbled TELEM frame — truncated mid-field or
// carrying trailing bytes — must fail the run as KindProtocol, non-retryable,
// even when the run is configured for replay: a peer that corrupts telemetry
// cannot be trusted about the coreset, and replaying it would fail
// identically.
func TestCorruptTelemIsTerminal(t *testing.T) {
	full := appendTelem(nil, workerTelem{decodeNS: 1, buildNS: 2, encodeNS: 3, edgesIn: 4})
	for name, payload := range map[string][]byte{
		"truncated":     full[:3],
		"trailing-junk": append(append([]byte{}, full...), 0x07),
		"empty-payload": {},
	} {
		t.Run(name, func(t *testing.T) {
			healthy := startWorkers(t, 1)
			corrupt := telemCorruptingWorker(t, payload)
			g := gen.GNP(800, 0.01, rng.New(57))
			cfg := Config{
				Workers: []string{healthy[0], corrupt},
				Seed:    57, BatchSize: 64,
				MaxRetries: 2, RetryBackoff: time.Millisecond, // replay armed, must not fire
			}
			err := runWithTimeout(t, 30*time.Second, func() error {
				_, _, err := summaries(context.Background(), stream.NewGraphSource(g), cfg, matchingTask, task.Params{})
				return err
			})
			var we *WorkerError
			if !errors.As(err, &we) {
				t.Fatalf("err = %v, want *WorkerError", err)
			}
			if we.Machine != 1 || we.Kind != KindProtocol || we.Retryable {
				t.Fatalf("corrupt TELEM classified machine=%d kind=%s retryable=%v, want machine 1 protocol terminal",
					we.Machine, we.Kind, we.Retryable)
			}
			if errors.Is(err, ErrRetriesExhausted) {
				t.Fatalf("err = %v: replay was attempted on a protocol failure", err)
			}
		})
	}
}

// TestReplayedMachineTelemetry: a machine lost after EOS (its answer never
// arrives) recovers via replay, and its MachineStats entry describes the
// REPLACEMENT attempt — real phase times, full edge count, Replayed flag set
// — never a zeroed or partial record from the failed attempt.
func TestReplayedMachineTelemetry(t *testing.T) {
	backends := startWorkers(t, 2)
	proxyAddr, closeProxy := flakyProxy(t, backends[1], []proxyPlan{{dropAfterEOS: true}, {}})
	t.Cleanup(closeProxy)

	g := gen.GNP(2000, 16.0/2000, rng.New(53))
	cfg := Config{
		Workers: []string{backends[0], proxyAddr},
		Seed:    53, BatchSize: 64,
		MaxRetries: 2, RetryBackoff: time.Millisecond,
	}
	var sums []stream.Summary
	var st *Stats
	err := runWithTimeout(t, 30*time.Second, func() error {
		var err error
		sums, st, err = summaries(context.Background(), stream.NewGraphSource(g), cfg, matchingTask, task.Params{})
		return err
	})
	if err != nil {
		t.Fatalf("replay did not recover: %v", err)
	}
	if !reflect.DeepEqual(st.ReplayedMachines, []int{1}) {
		t.Fatalf("ReplayedMachines = %v, want [1]", st.ReplayedMachines)
	}
	if len(st.MachineStats) != 2 {
		t.Fatalf("MachineStats has %d entries, want one per machine including the replayed one", len(st.MachineStats))
	}
	if st.MachineStats[0].Replayed {
		t.Errorf("healthy machine 0 marked replayed: %+v", st.MachineStats[0])
	}
	ms := st.MachineStats[1]
	if !ms.Replayed {
		t.Errorf("replayed machine 1 not marked: %+v", ms)
	}
	if ms.DecodeMS+ms.BuildMS+ms.EncodeMS <= 0 {
		t.Errorf("replayed machine has no phase telemetry (replacement attempt's TELEM lost): %+v", ms)
	}
	// The replacement processed the full shard: its telemetry must account
	// for every edge the machine's summary reports, not a prefix from the
	// aborted first attempt.
	if ms.EdgesIn != sums[1].Edges || ms.EdgesIn == 0 {
		t.Errorf("replayed machine EdgesIn = %d, want its summary's %d > 0", ms.EdgesIn, sums[1].Edges)
	}
}
