package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// TestLoadModeCluster load-tests a worker fleet the way production traffic
// reaches one: a service over two loopback workers, every job in mode
// cluster, single-round and multi-round. Every job must succeed, the
// latency line must print, and the fleet's wire counters must move.
func TestLoadModeCluster(t *testing.T) {
	addrs, shutdown, err := cluster.ServeLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	svc := service.New(service.Config{Workers: 2, ClusterWorkers: addrs})
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})

	summary := regexp.MustCompile(`(?m)^6 jobs in .*, 0 failed, 0 excluded as warmup$`)
	latency := regexp.MustCompile(`(?m)^latency: p50 \S+  p90 \S+  p99 \S+  max \S+$`)
	for name, extra := range map[string][]string{
		"single-round": {"-task", "vc"},
		"rounds=2":     {"-task", "edcs", "-beta", "8", "-rounds", "2"},
	} {
		var out, errb bytes.Buffer
		code := runLoad(append([]string{
			"-addr", ts.URL, "-scrape", ts.URL, "-mode", "cluster", "-k", "2",
			"-gen", "gnp", "-n", "400", "-deg", "30", "-jobs", "6", "-c", "2", "-seeds", "3",
		}, extra...), &out, &errb)
		s := out.String()
		if code != 0 || !summary.MatchString(s) || !latency.MatchString(s) {
			t.Fatalf("%s: exit %d\nstdout: %s\nstderr: %s", name, code, s, errb.String())
		}
		if !strings.Contains(s, cluster.MetricCoresetBytes) {
			t.Fatalf("%s: the fleet's wire counters did not move:\n%s", name, s)
		}
	}
}

// TestLoadHasNoClusterTarget: a fleet is load-tested through the service
// (-mode cluster), so the flags of the old direct path are undefined.
func TestLoadHasNoClusterTarget(t *testing.T) {
	for _, args := range [][]string{
		{"-target", "cluster"},
		{"-cluster", "127.0.0.1:1"},
		{"-max-retries", "1"},
	} {
		var out, errb bytes.Buffer
		if code := runLoad(args, &out, &errb); code != 2 || !strings.Contains(errb.String(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 for an undefined flag", args, code, errb.String())
		}
	}
}
