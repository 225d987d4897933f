package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
)

// loadGraph materializes an input the way the batch runtime does: the CLI's
// one source dispatch, drained by stream.Collect.
func loadGraph(sp inputSpec) (*graph.Graph, error) {
	src, closeSrc, err := openSource(sp)
	if err != nil {
		return nil, err
	}
	if closeSrc != nil {
		defer closeSrc()
	}
	return stream.Collect(src)
}

func TestLoadGraphGenerators(t *testing.T) {
	for _, name := range []string{"gnp", "powerlaw", "star"} {
		g, err := loadGraph(inputSpec{genName: name, n: 500, deg: 6, seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N != 500 {
			t.Fatalf("%s: n = %d", name, g.N)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestLoadGraphUnknownGenerator(t *testing.T) {
	if _, err := loadGraph(inputSpec{genName: "nope", n: 10, deg: 2, seed: 1}); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

func TestLoadGraphMissingArgs(t *testing.T) {
	if _, err := loadGraph(inputSpec{n: 10, deg: 2, seed: 1}); err == nil {
		t.Fatal("no input source accepted")
	}
}

func TestLoadGraphFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("p 4 2\n0 1\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(inputSpec{in: path, n: 0, deg: 0, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.M() != 2 {
		t.Fatalf("loaded n=%d m=%d", g.N, g.M())
	}
}

func TestLoadGraphFileMissing(t *testing.T) {
	if _, err := loadGraph(inputSpec{in: "/does/not/exist", n: 0, deg: 0, seed: 1}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// runCLI executes the command in-process and returns (stdout, stderr, code).
func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// writePath10 writes a 10-vertex path graph in the text format.
func writePath10(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "path10.txt")
	in := "p 10 9\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n"
	if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Golden tests for the streaming runtime: fixed input, fixed seed, exact
// output. The hash sharder and the exact per-machine summaries are fully
// deterministic, so the summary lines are pinned verbatim.
func TestStreamGoldenMatchingFromFile(t *testing.T) {
	out, errOut, code := runCLI(t, "-task", "matching", "-k", "2", "-seed", "3", "-stream", "-q", "-in", writePath10(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if want := "matching: 4 edges (streamed, 2 machines)\n"; out != want {
		t.Fatalf("stdout = %q, want %q", out, want)
	}
}

func TestStreamGoldenVCFromFile(t *testing.T) {
	out, errOut, code := runCLI(t, "-task", "vc", "-k", "2", "-seed", "3", "-stream", "-q", "-in", writePath10(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if want := "vertex cover: 8 vertices (streamed, 2 machines)\n"; out != want {
		t.Fatalf("stdout = %q, want %q", out, want)
	}
}

func TestStreamGoldenSyntheticGNP(t *testing.T) {
	args := []string{"-task", "matching", "-gen", "gnp", "-n", "2000", "-deg", "6", "-seed", "7", "-k", "4", "-stream"}
	out, errOut, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	// Drop the throughput line (wall-clock) and compare the rest verbatim.
	var kept []string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "throughput:") {
			kept = append(kept, line)
		}
	}
	want := strings.Join([]string{
		"stream: n=2000, 5960 edges in 6 batches, k=4 machines",
		// Byte counts are pinned to the sorted-set codec
		// (graph.AppendEdgeSet), the shared wire/accounting encoding of
		// every coreset body; 7946 / 2071 under the delta batch codec.
		"communication: total 4712 bytes, max machine 1220 bytes",
		"coreset edges per machine: [679 705 655 671]",
		"live greedy per machine: [621 627 591 614]",
		"matching: 980 edges (streamed, 4 machines)",
	}, "\n")
	if got := strings.Join(kept, "\n"); got != want {
		t.Fatalf("stdout:\n%s\nwant:\n%s", got, want)
	}
}

// Streaming and batch modes agree on the same input when handed the same
// explicit partitioning is proven in internal/stream; here we pin that both
// CLI modes run and report the same format family.
func TestCLIBatchStillWorks(t *testing.T) {
	out, errOut, code := runCLI(t, "-task", "matching", "-k", "2", "-seed", "3", "-q", "-in", writePath10(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "(distributed, 2 machines)") {
		t.Fatalf("batch summary missing: %q", out)
	}
}

func TestCLIStreamRejectsBadInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("p 2 1\n0 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errOut, code := runCLI(t, "-task", "matching", "-stream", "-in", path)
	if code == 0 {
		t.Fatal("invalid input accepted")
	}
	if !strings.Contains(errOut, "out of declared range") {
		t.Fatalf("stderr = %q", errOut)
	}
}

func TestCLIUnknownTask(t *testing.T) {
	for _, extra := range [][]string{nil, {"-stream"}} {
		args := append([]string{"-task", "nope", "-gen", "gnp", "-n", "100"}, extra...)
		if _, _, code := runCLI(t, args...); code != 2 {
			t.Fatalf("unknown task (args %v) exited %d, want 2", args, code)
		}
	}
}

// -k below 1 is rejected once, before mode dispatch: the same message and
// exit code in every runtime (batch mode used to panic in partition.RandomK).
func TestCLIRejectsBadK(t *testing.T) {
	for _, mode := range [][]string{nil, {"-stream"}, {"-cluster", "local"}} {
		for _, k := range []string{"0", "-3"} {
			args := append([]string{"-task", "matching", "-k", k, "-gen", "gnp", "-n", "100"}, mode...)
			_, errOut, code := runCLI(t, args...)
			if code != 2 {
				t.Fatalf("args %v exited %d, want 2", args, code)
			}
			if want := "coreset: -k must be at least 1 (got " + k + ")"; strings.TrimSpace(errOut) != want {
				t.Fatalf("args %v: stderr = %q, want %q", args, errOut, want)
			}
		}
	}
}

func TestLoadGraphDeterministicSeed(t *testing.T) {
	a, err := loadGraph(inputSpec{genName: "gnp", n: 300, deg: 8, seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadGraph(inputSpec{genName: "gnp", n: 300, deg: 8, seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.M() != b.M() {
		t.Fatal("generator not deterministic under seed")
	}
}

// normalizeReport zeroes the wall-clock fields so the rest of the report can
// be compared verbatim.
func normalizeReport(t *testing.T, jsonOut string) string {
	t.Helper()
	var rep graph.RunReport
	if err := json.Unmarshal([]byte(jsonOut), &rep); err != nil {
		t.Fatalf("decoding report %q: %v", jsonOut, err)
	}
	if rep.DurationMS <= 0 {
		t.Fatalf("report has no duration: %q", jsonOut)
	}
	rep.DurationMS = 0
	rep.EdgesPerSec = 0
	for i := range rep.RoundStats {
		rep.RoundStats[i].DurationMS = 0
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// Golden tests for -json: fixed input, fixed seed, exact report (modulo
// wall clock). The schema is shared with the coreset service, so these
// also pin the service's result format.
func TestJSONGoldenBatchMatching(t *testing.T) {
	out, errOut, code := runCLI(t, "-task", "matching", "-k", "2", "-seed", "3", "-json", "-in", writePath10(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	want := `{
  "task": "matching",
  "mode": "batch",
  "n": 10,
  "m": 9,
  "k": 2,
  "seed": 3,
  "solutionSize": 5,
  "partEdges": [
    3,
    6
  ],
  "coresetEdges": [
    2,
    3
  ],
  "totalCommBytes": 11,
  "maxMachineBytes": 6,
  "compositionEdges": 5,
  "durationMs": 0
}`
	if got := normalizeReport(t, out); got != want {
		t.Fatalf("report:\n%s\nwant:\n%s", got, want)
	}
}

func TestJSONGoldenStreamVC(t *testing.T) {
	out, errOut, code := runCLI(t, "-task", "vc", "-k", "2", "-seed", "3", "-stream", "-json", "-in", writePath10(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	want := `{
  "task": "vc",
  "mode": "stream",
  "n": 10,
  "m": 9,
  "k": 2,
  "seed": 3,
  "solutionSize": 8,
  "partEdges": [
    3,
    6
  ],
  "storedEdges": [
    3,
    6
  ],
  "live": [
    0,
    0
  ],
  "coresetEdges": [
    3,
    6
  ],
  "coresetFixed": [
    0,
    0
  ],
  "totalCommBytes": 15,
  "maxMachineBytes": 8,
  "compositionEdges": 9,
  "batches": 1,
  "durationMs": 0
}`
	if got := normalizeReport(t, out); got != want {
		t.Fatalf("report:\n%s\nwant:\n%s", got, want)
	}
}

// Golden test for -task edcs -json: fixed input, fixed seed and β, exact
// report (modulo wall clock). On this bounded-degree input P2 forces the
// whole partition into H, so coresetEdges equals partEdges.
func TestJSONGoldenBatchEDCS(t *testing.T) {
	out, errOut, code := runCLI(t, "-task", "edcs", "-k", "2", "-seed", "3", "-beta", "8", "-json", "-in", writePath10(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	want := `{
  "task": "edcs",
  "mode": "batch",
  "n": 10,
  "m": 9,
  "k": 2,
  "seed": 3,
  "beta": 8,
  "solutionSize": 5,
  "partEdges": [
    3,
    6
  ],
  "coresetEdges": [
    3,
    6
  ],
  "totalCommBytes": 13,
  "maxMachineBytes": 7,
  "compositionEdges": 9,
  "durationMs": 0
}`
	if got := normalizeReport(t, out); got != want {
		t.Fatalf("report:\n%s\nwant:\n%s", got, want)
	}
}

// A -beta the EDCS cannot use — or on a task it does not apply to — must be
// rejected up front, never silently replaced by the default or silently
// ignored, with the SAME message shape the service's job validation
// (service.CreateJobRequest.normalize) produces for the equivalent request,
// so a user moving between the CLI and the service reads one vocabulary.
// The expected strings are golden: they must track the service's text.
func TestCLIRejectsUnusableBeta(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"too-small": {
			[]string{"-task", "edcs", "-beta", "1", "-gen", "gnp", "-n", "100"},
			`coreset: beta must be in [2, 1048576] (got 1)`,
		},
		"too-large": {
			[]string{"-task", "edcs", "-beta", "2000000", "-gen", "gnp", "-n", "100"},
			`coreset: beta must be in [2, 1048576] (got 2000000)`,
		},
		"wrong-task": {
			[]string{"-task", "matching", "-beta", "16", "-gen", "gnp", "-n", "100"},
			`coreset: beta only applies to task "edcs" (got task "matching")`,
		},
	} {
		_, errOut, code := runCLI(t, tc.args...)
		if code != 2 {
			t.Fatalf("%s: exited %d, want 2", name, code)
		}
		if strings.TrimSpace(errOut) != tc.want {
			t.Fatalf("%s: stderr = %q, want %q", name, errOut, tc.want)
		}
	}
}

// -rounds follows the same fail-fast rule as -beta: rejected with the
// service's message shape on the wrong task or out of range, never silently
// ignored.
func TestCLIRejectsUnusableRounds(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"wrong-task": {
			[]string{"-task", "vc", "-rounds", "2", "-gen", "gnp", "-n", "100"},
			`coreset: rounds only applies to task "edcs" (got task "vc")`,
		},
		"negative": {
			[]string{"-task", "edcs", "-rounds", "-1", "-gen", "gnp", "-n", "100"},
			`coreset: rounds must be in [0, 64] (got -1)`,
		},
		"too-large": {
			[]string{"-task", "edcs", "-rounds", "65", "-gen", "gnp", "-n", "100"},
			`coreset: rounds must be in [0, 64] (got 65)`,
		},
	} {
		_, errOut, code := runCLI(t, tc.args...)
		if code != 2 {
			t.Fatalf("%s: exited %d, want 2", name, code)
		}
		if strings.TrimSpace(errOut) != tc.want {
			t.Fatalf("%s: stderr = %q, want %q", name, errOut, tc.want)
		}
	}
}

// Golden test for a multi-round -json report: the path graph cannot shrink
// (P2 keeps every edge), so the driver early-exits after round 0 with a cap
// of 3, and the report carries the per-round breakdown. The single-round
// fields (solutionSize, coresetEdges, comm bytes) must match
// TestJSONGoldenBatchEDCS exactly — rounds=N never changes round 0.
func TestJSONGoldenMultiRoundEDCS(t *testing.T) {
	out, errOut, code := runCLI(t, "-task", "edcs", "-k", "2", "-seed", "3", "-beta", "8",
		"-rounds", "3", "-json", "-in", writePath10(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	want := `{
  "task": "edcs",
  "mode": "batch",
  "n": 10,
  "m": 9,
  "k": 2,
  "seed": 3,
  "beta": 8,
  "solutionSize": 5,
  "coresetEdges": [
    3,
    6
  ],
  "totalCommBytes": 13,
  "maxMachineBytes": 7,
  "compositionEdges": 9,
  "durationMs": 0,
  "rounds": 3,
  "roundsRun": 1,
  "roundStats": [
    {
      "round": 0,
      "k": 2,
      "seed": 3,
      "inputEdges": 9,
      "unionEdges": 9,
      "totalCommBytes": 13,
      "maxMachineBytes": 7,
      "durationMs": 0
    }
  ]
}`
	if got := normalizeReport(t, out); got != want {
		t.Fatalf("report:\n%s\nwant:\n%s", got, want)
	}
}

// A -rounds 1 run must report the identical composition as the single-round
// EDCS path — across batch and stream — with only the round bookkeeping
// added: the CLI face of the driver's rounds=1 parity guarantee.
func TestMultiRoundOneMatchesSingleRoundCLI(t *testing.T) {
	base := []string{"-task", "edcs", "-gen", "gnp", "-n", "1500", "-deg", "25", "-seed", "11", "-k", "4", "-beta", "16", "-json"}
	for _, mode := range [][]string{nil, {"-stream"}} {
		single, errOut, code := runCLI(t, append(append([]string{}, base...), mode...)...)
		if code != 0 {
			t.Fatalf("single exit %d, stderr: %s", code, errOut)
		}
		multi, errOut, code := runCLI(t, append(append(append([]string{}, base...), "-rounds", "1"), mode...)...)
		if code != 0 {
			t.Fatalf("multi exit %d, stderr: %s", code, errOut)
		}
		var s, m graph.RunReport
		if err := json.Unmarshal([]byte(single), &s); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(multi), &m); err != nil {
			t.Fatal(err)
		}
		if m.RoundsRun != 1 || len(m.RoundStats) != 1 {
			t.Fatalf("mode %v: rounds=1 ran %d rounds", mode, m.RoundsRun)
		}
		if s.SolutionSize != m.SolutionSize || !reflect.DeepEqual(s.CoresetEdges, m.CoresetEdges) ||
			s.TotalCommBytes != m.TotalCommBytes || s.MaxMachineBytes != m.MaxMachineBytes {
			t.Fatalf("mode %v: rounds=1 diverged from single-round:\nsingle %s\nmulti %s", mode, single, multi)
		}
	}
}

// The EDCS streaming runtime must emit the identical report fields for the
// same input (mode and streaming telemetry aside) — CLI-level seed parity.
func TestEDCSStreamMatchesBatch(t *testing.T) {
	args := []string{"-task", "edcs", "-gen", "gnp", "-n", "1500", "-deg", "25", "-seed", "11", "-k", "4", "-beta", "16", "-json"}
	outBatch, errOut, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("batch exit %d, stderr: %s", code, errOut)
	}
	outStream, errOut, code := runCLI(t, append(args, "-stream")...)
	if code != 0 {
		t.Fatalf("stream exit %d, stderr: %s", code, errOut)
	}
	var b, s graph.RunReport
	if err := json.Unmarshal([]byte(outBatch), &b); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(outStream), &s); err != nil {
		t.Fatal(err)
	}
	if b.SolutionSize == 0 || b.SolutionSize != s.SolutionSize {
		t.Fatalf("solutions differ: batch %d, stream %d", b.SolutionSize, s.SolutionSize)
	}
	if !reflect.DeepEqual(b.CoresetEdges, s.CoresetEdges) || b.TotalCommBytes != s.TotalCommBytes {
		t.Fatalf("coreset accounting differs:\nbatch  %v (%d B)\nstream %v (%d B)",
			b.CoresetEdges, b.TotalCommBytes, s.CoresetEdges, s.TotalCommBytes)
	}
}

// The streamed powerlaw generator must shard the exact same graph the batch
// path materializes: same seed, same report modulo mode-specific fields.
func TestPowerlawStreamMatchesBatch(t *testing.T) {
	args := []string{"-task", "matching", "-gen", "powerlaw", "-n", "2000", "-seed", "11", "-k", "4", "-json"}
	outBatch, errOut, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("batch exit %d, stderr: %s", code, errOut)
	}
	outStream, errOut, code := runCLI(t, append(args, "-stream")...)
	if code != 0 {
		t.Fatalf("stream exit %d, stderr: %s", code, errOut)
	}
	var b, s graph.RunReport
	if err := json.Unmarshal([]byte(outBatch), &b); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(outStream), &s); err != nil {
		t.Fatal(err)
	}
	if b.M != s.M || b.N != s.N {
		t.Fatalf("shapes differ: batch n=%d m=%d, stream n=%d m=%d", b.N, b.M, s.N, s.M)
	}
	if b.M == 0 {
		t.Fatal("powerlaw generated no edges")
	}
	if b.SolutionSize == 0 || s.SolutionSize == 0 {
		t.Fatalf("degenerate solutions: batch %d, stream %d", b.SolutionSize, s.SolutionSize)
	}
}
