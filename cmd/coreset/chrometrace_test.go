package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// TestChromeTraceGolden pins the exact timeline assembled from a fixed run
// report: every field, including the synthetic timestamps, is a deterministic
// function of the report, so the whole JSON document is golden-testable.
func TestChromeTraceGolden(t *testing.T) {
	rep := &graph.RunReport{
		Task: "edcs", Mode: "cluster", K: 2, DurationMS: 10,
		RoundStats: []graph.RoundReport{
			{Round: 0, DurationMS: 6, MachineStats: []graph.MachineStats{
				{Machine: 0, DecodeMS: 1, BuildMS: 2, EncodeMS: 0.5, EdgesIn: 40, BuildCounters: graph.BuildCounters{RepairIters: 3, Removals: 1, PeakCoreset: 20}},
				{Machine: 1, DecodeMS: 1.5, BuildMS: 1, EncodeMS: 0.25, EdgesIn: 38, BuildCounters: graph.BuildCounters{PeakCoreset: 19}, Replayed: true},
			}},
			{Round: 1, DurationMS: 4, MachineStats: []graph.MachineStats{
				{Machine: 0, DecodeMS: 0.5, BuildMS: 1, EncodeMS: 0.5, EdgesIn: 20, BuildCounters: graph.BuildCounters{PeakCoreset: 12}},
			}},
		},
	}
	events := chromeTrace(rep)

	var names []string
	for _, e := range events {
		var b strings.Builder
		b.WriteString(e.Ph)
		b.WriteByte(' ')
		b.WriteString(e.Name)
		names = append(names, b.String())
	}
	wantNames := []string{
		"M process_name", "M process_name", "M process_name",
		"X round 0", "X decode", "X build", "X encode", "X decode", "X build", "X encode",
		"X round 1", "X decode", "X build", "X encode",
	}
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("event sequence %v, want %v", names, wantNames)
	}

	// Spot-check the synthetic layout: round 1 starts where round 0 ended,
	// and machine 0's build span in round 0 starts after its decode span.
	if got := events[10]; got.Ts != 6000 || got.Dur != 4000 || got.Pid != 0 || got.Tid != 1 {
		t.Fatalf("round 1 span = %+v, want ts=6000 dur=4000 pid=0 tid=1", got)
	}
	if got := events[5]; got.Ts != 1000 || got.Dur != 2000 || got.Pid != 1 || got.Tid != 0 {
		t.Fatalf("machine 0 build span = %+v, want ts=1000 dur=2000 pid=1 tid=0", got)
	}
	if got := events[7]; got.Args["replayed"] != true {
		t.Fatalf("machine 1 span args = %v, want replayed=true", got.Args)
	}

	// The full document is deterministic: rebuilding it yields identical JSON.
	a, _ := json.Marshal(chromeTrace(rep))
	b, _ := json.Marshal(chromeTrace(rep))
	if string(a) != string(b) {
		t.Fatal("chromeTrace is not deterministic for a fixed report")
	}
}

// TestTraceOutCluster runs a real 2-worker cluster with -trace-out and
// validates the written file: Perfetto envelope, one pid per machine plus the
// coordinator, per-machine decode/build/encode spans, and each machine's
// phase spans fitting inside the coordinator's measured round wall time. Run
// twice to check the structure (everything but ts/dur) is seed-deterministic.
func TestTraceOutCluster(t *testing.T) {
	addrs, shutdown, err := cluster.ServeLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)

	load := func(path string) []traceEvent {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("trace file is not valid JSON: %v", err)
		}
		return doc.TraceEvents
	}
	runOnce := func(path string) []traceEvent {
		t.Helper()
		_, errOut, code := runCLI(t, "-task", "edcs", "-seed", "5", "-cluster", strings.Join(addrs, ","),
			"-gen", "gnp", "-n", "400", "-deg", "6", "-q", "-trace-out", path)
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errOut)
		}
		return load(path)
	}

	dir := t.TempDir()
	events := runOnce(filepath.Join(dir, "a.json"))

	pids := map[int]bool{}
	phases := map[int][]string{} // machine pid -> phase names in order
	var roundDur float64
	for _, e := range events {
		if e.Ph != "M" && e.Ph != "X" {
			t.Fatalf("unexpected event kind %q in %+v", e.Ph, e)
		}
		pids[e.Pid] = true
		if e.Ph == "X" && e.Pid == 0 {
			roundDur = e.Dur
		}
		if e.Ph == "X" && e.Pid > 0 {
			phases[e.Pid] = append(phases[e.Pid], e.Name)
		}
	}
	if !reflect.DeepEqual(pids, map[int]bool{0: true, 1: true, 2: true}) {
		t.Fatalf("pids %v, want coordinator plus one per machine {0,1,2}", pids)
	}
	for pid := 1; pid <= 2; pid++ {
		if !reflect.DeepEqual(phases[pid], []string{"decode", "build", "encode"}) {
			t.Fatalf("machine pid %d phases %v, want [decode build encode]", pid, phases[pid])
		}
	}
	// Each machine's phases happen inside the coordinator's round window, so
	// their durations must sum to no more than the round wall time (plus
	// generous slack for timer granularity).
	for pid := 1; pid <= 2; pid++ {
		var sum float64
		for _, e := range events {
			if e.Ph == "X" && e.Pid == pid {
				sum += e.Dur
			}
		}
		if sum > roundDur+50_000 {
			t.Fatalf("machine pid %d phase spans sum to %.0fus, exceeding round wall %.0fus", pid, sum, roundDur)
		}
	}

	// Determinism: a second identical run produces the same structure once
	// the measured ts/dur values are zeroed.
	again := runOnce(filepath.Join(dir, "b.json"))
	normalize := func(evs []traceEvent) []traceEvent {
		out := make([]traceEvent, len(evs))
		for i, e := range evs {
			e.Ts, e.Dur = 0, 0
			out[i] = e
		}
		return out
	}
	if !reflect.DeepEqual(normalize(events), normalize(again)) {
		t.Fatal("trace structure differs between two identical runs")
	}
}

// TestTraceOutRequiresCluster: the timeline is assembled from worker
// telemetry, so -trace-out outside the cluster runtime is an error, never a
// silently empty file.
func TestTraceOutRequiresCluster(t *testing.T) {
	_, errOut, code := runCLI(t, "-task", "matching", "-trace-out", filepath.Join(t.TempDir(), "t.json"), "-in", writePath10(t))
	if code != 2 || !strings.Contains(errOut, "-trace-out requires -cluster") {
		t.Fatalf("exit %d, stderr %q; want exit 2 naming the flag", code, errOut)
	}
}
