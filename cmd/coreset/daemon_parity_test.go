package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/service"
)

// comparableJSON strips what legitimately differs between two runs of the same
// request: wall-clock figures, the workers' phase timings and, in cluster
// mode, the coordinator-to-worker byte count — the HELLO frame carries the
// run ID, seed-derived on the CLI and per-job in the daemon, and the two
// differ in length.
func comparableJSON(t *testing.T, rep graph.RunReport) string {
	t.Helper()
	zeroPhases := func(ms []graph.MachineStats) {
		for i := range ms {
			ms[i].DecodeMS, ms[i].BuildMS, ms[i].EncodeMS = 0, 0, 0
		}
	}
	rep.DurationMS, rep.EdgesPerSec, rep.ShardBytes = 0, 0, 0
	zeroPhases(rep.MachineStats)
	for i := range rep.RoundStats {
		rep.RoundStats[i].DurationMS, rep.RoundStats[i].ShardBytes = 0, 0
		zeroPhases(rep.RoundStats[i].MachineStats)
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCLIMatchesDaemon: the package comment's promise that "CLI runs and
// service queries are interchangeable downstream" — the same (gen, task, k,
// seed, mode) through coreset -json and through a service job yields the
// same report, in every runtime, single- and multi-round.
func TestCLIMatchesDaemon(t *testing.T) {
	// The CLI's -seed seeds generator and partitioning alike; the daemon
	// names them separately, so the graph is registered under the job seed.
	const k, seed = 2, 5
	addrs, shutdown, err := cluster.ServeLoopback(k)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	srv := service.New(service.Config{ClusterWorkers: addrs})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})
	api := service.NewClient(ts.URL, ts.Client())
	gen := service.GenSpec{Name: "gnp", N: 600, Deg: 40, Seed: seed}
	info, err := api.AddGraph(context.Background(), service.CreateGraphRequest{Gen: &gen})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		task, mode string
		rounds     int
		flags      []string
	}{
		{"vc", service.ModeBatch, 0, nil},
		{"edcs", service.ModeBatch, 2, nil},
		{"matching", service.ModeStream, 0, []string{"-stream"}},
		{"edcs", service.ModeStream, 2, []string{"-stream"}},
		{"diversity", service.ModeCluster, 0, []string{"-cluster", strings.Join(addrs, ",")}},
		{"edcs", service.ModeCluster, 2, []string{"-cluster", strings.Join(addrs, ",")}},
	} {
		args := append([]string{"-json", "-task", tc.task, "-k", strconv.Itoa(k), "-seed", strconv.Itoa(seed),
			"-rounds", strconv.Itoa(tc.rounds), "-gen", gen.Name, "-n", strconv.Itoa(gen.N),
			"-deg", strconv.FormatFloat(gen.Deg, 'g', -1, 64)}, tc.flags...)
		out, errOut, code := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%s/%s: CLI exit %d, stderr: %s", tc.task, tc.mode, code, errOut)
		}
		var cli graph.RunReport
		if err := json.Unmarshal([]byte(out), &cli); err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		view, err := api.Run(ctx, service.CreateJobRequest{
			Graph: info.ID, Task: tc.task, K: k, Seed: seed, Mode: tc.mode, Rounds: tc.rounds})
		cancel()
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.task, tc.mode, err)
		}
		if tc.mode == service.ModeCluster && (cli.ShardBytes <= 0 || view.Result.ShardBytes <= 0) {
			t.Fatalf("%s/%s: no shard traffic measured (CLI %d, daemon %d)", tc.task, tc.mode, cli.ShardBytes, view.Result.ShardBytes)
		}
		if got, want := comparableJSON(t, *view.Result), comparableJSON(t, cli); got != want {
			t.Errorf("%s/%s rounds=%d: daemon report differs from the CLI's\ndaemon:\n%s\nCLI:\n%s", tc.task, tc.mode, tc.rounds, got, want)
		}
	}
}
