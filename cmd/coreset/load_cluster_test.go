package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestClusterTarget drives -target cluster against two loopback workers,
// single-round and multi-round: every job must succeed in both waves (the
// fleet, then the in-process replay of the same workload) and both latency
// lines must print.
func TestClusterTarget(t *testing.T) {
	addrs, shutdown, err := cluster.ServeLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	latency := regexp.MustCompile(`(?m)^(cluster|in-process): +6 jobs in .*, 0 failed, 2 warmup; latency p50 \S+  p90 \S+  p99 \S+  max \S+$`)
	for name, extra := range map[string][]string{
		"single-round": {"-task", "vc"},
		"rounds=2":     {"-task", "edcs", "-beta", "8", "-rounds", "2"},
	} {
		var out, errb bytes.Buffer
		code := runLoad(append([]string{
			"-target", "cluster", "-cluster", strings.Join(addrs, ","),
			"-gen", "gnp", "-n", "400", "-deg", "30", "-jobs", "6", "-c", "2", "-seeds", "3",
		}, extra...), &out, &errb)
		if code != 0 {
			t.Fatalf("%s: exit %d\nstdout: %s\nstderr: %s", name, code, out.String(), errb.String())
		}
		if got := latency.FindAllStringSubmatch(out.String(), -1); len(got) != 2 || got[0][1] != "cluster" || got[1][1] != "in-process" {
			t.Fatalf("%s: want a cluster and an in-process latency line, got:\n%s", name, out.String())
		}
	}
}
