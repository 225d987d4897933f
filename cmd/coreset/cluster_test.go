package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// workerProcEnv diverts the test binary into the binary's own entry point,
// which is how the "-cluster local" tests below fork REAL worker processes:
// TestMain re-execs this very binary, SpawnLocal passes workerArgs
// ("worker -exit-on-stdin-eof -q"), and the child serves runs over TCP
// exactly as a deployed `coreset worker` would.
const workerProcEnv = "CORESET_TEST_WORKER_PROC"

func TestMain(m *testing.M) {
	if os.Getenv(workerProcEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestClusterFlagAgainstResidentWorkers: -cluster host:port,... must
// reproduce the -stream answer exactly on the same (input, seed), with k
// taken from the address list.
func TestClusterFlagAgainstResidentWorkers(t *testing.T) {
	addrs, shutdown, err := cluster.ServeLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	path := writePath10(t)

	streamOut, _, code := runCLI(t, "-task", "matching", "-k", "2", "-seed", "3", "-stream", "-q", "-in", path)
	if code != 0 {
		t.Fatalf("stream run exited %d", code)
	}
	clusterOut, errOut, code := runCLI(t, "-task", "matching", "-seed", "3", "-cluster", strings.Join(addrs, ","), "-q", "-in", path)
	if code != 0 {
		t.Fatalf("cluster run exited %d, stderr: %s", code, errOut)
	}
	want := strings.Replace(streamOut, "streamed", "cluster", 1)
	if clusterOut != want {
		t.Fatalf("cluster stdout %q, want %q", clusterOut, want)
	}
}

// TestClusterJSONReport: the -json report for a cluster run carries mode
// "cluster", measured wire bytes and the simulated estimate alongside.
func TestClusterJSONReport(t *testing.T) {
	addrs, shutdown, err := cluster.ServeLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)

	out, errOut, code := runCLI(t, "-task", "vc", "-seed", "3", "-cluster", strings.Join(addrs, ","), "-json", "-in", writePath10(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var rep graph.RunReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("decoding report: %v\n%s", err, out)
	}
	if rep.Mode != "cluster" || rep.K != 2 || rep.Task != "vc" {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.TotalCommBytes <= 0 || rep.EstCommBytes <= 0 {
		t.Fatalf("wire accounting missing: measured %d, est %d", rep.TotalCommBytes, rep.EstCommBytes)
	}
	// The estimate is the exact length of the CORESET bodies, so a measured
	// frame exceeds it by its 5-byte header and the three one-byte stats
	// varints of a 10-vertex shard, and by nothing else.
	if want := rep.EstCommBytes + rep.K*(5+3); rep.TotalCommBytes != want {
		t.Fatalf("measured %d, want est %d + %d frames * 8 = %d", rep.TotalCommBytes, rep.EstCommBytes, rep.K, want)
	}
	if rep.ShardBytes <= 0 {
		t.Fatal("no shard traffic measured")
	}
}

// TestClusterLocalSelfSpawn forks two real worker OS processes (this test
// binary re-execed via TestMain) and runs a full cluster pipeline against
// them — the "-cluster local" path end to end, answers pinned against
// -stream.
func TestClusterLocalSelfSpawn(t *testing.T) {
	if testing.Short() {
		t.Skip("forks processes")
	}
	t.Setenv(workerProcEnv, "1") // children inherit it and become workers
	path := writePath10(t)

	streamOut, _, code := runCLI(t, "-task", "vc", "-k", "2", "-seed", "3", "-stream", "-q", "-in", path)
	if code != 0 {
		t.Fatalf("stream run exited %d", code)
	}
	clusterOut, errOut, code := runCLI(t, "-task", "vc", "-k", "2", "-seed", "3", "-cluster", "local", "-q", "-in", path)
	if code != 0 {
		t.Fatalf("cluster local run exited %d, stderr: %s", code, errOut)
	}
	want := strings.Replace(streamOut, "streamed", "cluster", 1)
	if clusterOut != want {
		t.Fatalf("cluster stdout %q, want %q", clusterOut, want)
	}
}

func TestClusterRejectsBadAddressList(t *testing.T) {
	if _, errOut, code := runCLI(t, "-cluster", "a:1,,b:2", "-in", writePath10(t)); code == 0 || !strings.Contains(errOut, "empty worker address") {
		t.Fatalf("empty address accepted (exit %d, stderr %q)", code, errOut)
	}
}

// TestMaxRetriesRequiresCluster: -max-retries only means something for the
// cluster runtime; setting it anywhere else is an error, never a silently
// ignored flag.
func TestMaxRetriesRequiresCluster(t *testing.T) {
	_, errOut, code := runCLI(t, "-task", "matching", "-max-retries", "1", "-in", writePath10(t))
	if code != 2 || !strings.Contains(errOut, "-max-retries requires -cluster") {
		t.Fatalf("exit %d, stderr %q; want exit 2 naming the flag", code, errOut)
	}
}

// TestClusterChaosSIGKILL is the process-level chaos drill: real forked
// worker OS processes, one of them SIGKILLed between rounds of a live EDCS
// session. The coordinator must absorb the loss — burn one replay attempt on
// the dead address, recover on the spare — and the disturbed session's
// per-round coresets must be deep-equal to the in-process streaming oracle.
func TestClusterChaosSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("forks processes")
	}
	t.Setenv(workerProcEnv, "1") // children inherit it and become workers
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// Three processes: two fleet members plus one standby the replay engine
	// may promote.
	lw, err := cluster.SpawnLocal(exe, workerArgs, 3, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lw.Close() })
	addrs := lw.Addrs()

	g := gen.GNP(600, 30.0/600, rng.New(7))
	p := edcs.ParamsForBeta(16)
	cfg := cluster.Config{
		Workers:      addrs[:2],
		Spares:       addrs[2:],
		BatchSize:    64,
		MaxRetries:   3,
		RetryBackoff: 10 * time.Millisecond,
	}
	d := task.MustGet("edcs")
	sess, err := cluster.Dial(context.Background(), cfg, d, task.Params{EDCS: p}, 2, g.N)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	seeds := []uint64{7, 8}
	input := g.Edges
	for r := 0; r < 2; r++ {
		if r == 1 {
			// SIGKILL a fleet member between rounds: its connection drops and
			// its address refuses dials from here on.
			if err := lw.Kill(1); err != nil {
				t.Fatal(err)
			}
		}
		sums, st, err := sess.Round(context.Background(), stream.NewSliceSource(g.N, input), 2, seeds[r])
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if r == 1 {
			// At least two attempts: the dead address, then the spare.
			if st.Retries < 2 {
				t.Fatalf("round 1 Retries = %d, want >= 2 (dead re-dial, then spare)", st.Retries)
			}
			if !reflect.DeepEqual(st.ReplayedMachines, []int{1}) {
				t.Fatalf("round 1 ReplayedMachines = %v, want [1]", st.ReplayedMachines)
			}
		} else if st.Retries != 0 {
			t.Fatalf("round 0 Retries = %d, want 0 (undisturbed)", st.Retries)
		}

		want, _, err := stream.Summaries(context.Background(),
			stream.NewSliceSource(g.N, input), stream.Config{K: 2, Seed: seeds[r], BatchSize: 64}, d, task.Params{EDCS: p})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !reflect.DeepEqual(sums[i].Coreset, want[i].Coreset) {
				t.Fatalf("round %d machine %d coreset diverged from the in-process oracle", r, i)
			}
		}
		input = nil
		for _, s := range sums {
			input = append(input, s.Coreset...)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close after chaos session: %v", err)
	}
}

// TestClusterUnreachableWorker: a dead address must fail the run with the
// worker named on stderr, not hang.
func TestClusterUnreachableWorker(t *testing.T) {
	_, errOut, code := runCLI(t, "-task", "matching", "-seed", "1", "-cluster", "127.0.0.1:1", "-in", writePath10(t))
	if code == 0 {
		t.Fatal("run against dead worker succeeded")
	}
	if !strings.Contains(errOut, "worker 0 (127.0.0.1:1)") {
		t.Fatalf("stderr %q does not name the failed worker", errOut)
	}
}
