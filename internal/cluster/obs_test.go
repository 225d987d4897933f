package cluster

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// metricsProbe is the registry a test hands the coordinator, read back the
// way a scraper reads it: get sums one family over its "machine" children,
// so per-connection counters compare with the run's totals.
type metricsProbe struct {
	t   *testing.T
	reg *obs.Registry
}

func newMetricsProbe(t *testing.T) *metricsProbe {
	return &metricsProbe{t: t, reg: obs.NewRegistry()}
}

func (p *metricsProbe) get(name string) int64 {
	p.t.Helper()
	var text bytes.Buffer
	if _, err := p.reg.WriteTo(&text); err != nil {
		p.t.Fatal(err)
	}
	samples, err := obs.ParseText(&text)
	if err != nil {
		p.t.Fatal(err)
	}
	sum, found := 0.0, false
	for key, v := range samples {
		if key == name || strings.HasPrefix(key, name+"{") {
			sum, found = sum+v, true
		}
	}
	if !found {
		p.t.Fatalf("%s is not registered", name)
	}
	return int64(sum)
}

// TestObsCleanRun: an undisturbed run reports its wire activity to the
// registry — dials, frames in both directions, shard and coreset bytes —
// and none of the failure/replay counters move.
func TestObsCleanRun(t *testing.T) {
	backends := startWorkers(t, 3)
	probe := newMetricsProbe(t)
	g := gen.GNP(1500, 12.0/1500, rng.New(7))
	_, st, err := summaries(context.Background(), stream.NewGraphSource(g),
		Config{Workers: backends, Seed: 7, BatchSize: 64, Metrics: probe.reg}, matchingTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got := probe.get(MetricDialAttempts); got != 3 {
		t.Errorf("%s = %d, want 3", MetricDialAttempts, got)
	}
	if got := probe.get(MetricFramesReceived); got != 6 {
		t.Errorf("%s = %d, want 6 (one TELEM + one CORESET per machine)", MetricFramesReceived, got)
	}
	// The registry's byte accounting must agree with the Stats the run reports.
	if got := probe.get(MetricShardBytes); got != int64(st.ShardBytes) {
		t.Errorf("%s = %d, want Stats.ShardBytes = %d", MetricShardBytes, got, st.ShardBytes)
	}
	if got := probe.get(MetricCoresetBytes); got != int64(st.TotalCommBytes) {
		t.Errorf("%s = %d, want Stats.TotalCommBytes = %d", MetricCoresetBytes, got, st.TotalCommBytes)
	}
	if probe.get(MetricFramesSent) < 3+3 { // at least one HELLO and one EOS per machine
		t.Errorf("%s = %d, want >= 6", MetricFramesSent, probe.get(MetricFramesSent))
	}
	for _, name := range []string{MetricWorkerFailures, MetricRetries, MetricReplays, MetricBackoffSleeps} {
		if got := probe.get(name); got != 0 {
			t.Errorf("%s = %d on a clean run, want 0", name, got)
		}
	}
}

// TestObsReplayCounters is the observability acceptance bar for fault
// tolerance: a run with an injected worker kill mid-round must increment
// cluster_replays_total (plus the failure, retry and backoff counters) while
// still recovering.
func TestObsReplayCounters(t *testing.T) {
	backends := startWorkers(t, 3)
	// Worker 1's connection dies on the first SHARD frame; the second
	// connection (the replay) behaves.
	proxyAddr, closeProxy := flakyProxy(t, backends[1], []proxyPlan{{dropAfterFrames: 2}, {}})
	t.Cleanup(closeProxy)

	probe := newMetricsProbe(t)
	g := gen.GNP(3000, 20.0/3000, rng.New(11))
	cfg := Config{
		Workers: []string{backends[0], proxyAddr, backends[2]},
		Seed:    11, BatchSize: 64,
		MaxRetries: 2, RetryBackoff: time.Millisecond,
		Metrics: probe.reg,
	}
	var st *core.PipelineStats
	err := runWithTimeout(t, 30*time.Second, func() error {
		var err error
		_, st, err = summaries(context.Background(), stream.NewGraphSource(g), cfg, matchingTask, task.Params{})
		return err
	})
	if err != nil {
		t.Fatalf("replay did not recover: %v", err)
	}
	if got := probe.get(MetricReplays); got < 1 {
		t.Errorf("%s = %d after an injected worker kill, want >= 1", MetricReplays, got)
	}
	if got := probe.get(MetricWorkerFailures); got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricWorkerFailures, got)
	}
	if got := probe.get(MetricRetries); got != int64(st.Retries) {
		t.Errorf("%s = %d, want Stats.Retries = %d", MetricRetries, got, st.Retries)
	}
	if got := probe.get(MetricBackoffSleeps); got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricBackoffSleeps, got)
	}
	// Replay re-dials: the original 3 fan-out dials plus at least one more.
	if got := probe.get(MetricDialAttempts); got < 4 {
		t.Errorf("%s = %d, want >= 4", MetricDialAttempts, got)
	}
}
