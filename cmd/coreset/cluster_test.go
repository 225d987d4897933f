package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/task"
)

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
	// frame exceeds it by its 5-byte header, its 4-byte checksum trailer and
	// the three one-byte stats varints of a 10-vertex shard, and by nothing
	// else.
	if want := rep.EstCommBytes + rep.K*(5+4+3); rep.TotalCommBytes != want {
		t.Fatalf("measured %d, want est %d + %d frames * 12 = %d", rep.TotalCommBytes, rep.EstCommBytes, rep.K, want)
	}
	if rep.ShardBytes <= 0 {
		t.Fatal("no shard traffic measured")
	}
}

// TestClusterLocalSelfSpawn runs "-cluster local" end to end for every
// task: the run serves its own loopback fleet, reports the -stream run's
// answer, and its measured bytes exceed the estimate — which is exactly the
// -stream run's coreset bytes — by the frame headers.
func TestClusterLocalSelfSpawn(t *testing.T) {
	for _, name := range task.Names() {
		t.Run(name, func(t *testing.T) {
			args := []string{"-task", name, "-k", "2", "-seed", "3", "-gen", "gnp", "-n", "400", "-deg", "6", "-json"}
			report := func(mode ...string) graph.RunReport {
				t.Helper()
				out, errOut, code := runCLI(t, append(args, mode...)...)
				if code != 0 {
					t.Fatalf("%v exited %d, stderr: %s", mode, code, errOut)
				}
				if errOut != "" {
					t.Fatalf("%v wrote to stderr: %s", mode, errOut)
				}
				var rep graph.RunReport
				if err := json.Unmarshal([]byte(out), &rep); err != nil {
					t.Fatalf("decoding %v report: %v\n%s", mode, err, out)
				}
				return rep
			}
			sr, cr := report("-stream"), report("-cluster", "local")
			if cr.Mode != "cluster" || cr.K != 2 {
				t.Fatalf("cluster report header: mode %q k %d", cr.Mode, cr.K)
			}
			if cr.SolutionSize != sr.SolutionSize || !reflect.DeepEqual(cr.CoresetEdges, sr.CoresetEdges) {
				t.Fatalf("cluster answer %d %v, stream %d %v", cr.SolutionSize, cr.CoresetEdges, sr.SolutionSize, sr.CoresetEdges)
			}
			if cr.EstCommBytes != sr.TotalCommBytes {
				t.Fatalf("cluster estCommBytes %d, stream totalCommBytes %d", cr.EstCommBytes, sr.TotalCommBytes)
			}
			if cr.TotalCommBytes <= cr.EstCommBytes {
				t.Fatalf("measured %d bytes not above the estimate %d (frame headers)", cr.TotalCommBytes, cr.EstCommBytes)
			}
		})
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
