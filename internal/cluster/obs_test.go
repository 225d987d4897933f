package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// memSink is a minimal obs.Sink capturing counts for assertions.
type memSink struct {
	mu     sync.Mutex
	counts map[string]int64
}

func newMemSink() *memSink { return &memSink{counts: make(map[string]int64)} }

func (s *memSink) Count(name string, delta int64) {
	s.mu.Lock()
	s.counts[name] += delta
	s.mu.Unlock()
}

func (s *memSink) Observe(name string, v float64) {}

func (s *memSink) get(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[name]
}

// TestObsCleanRun: an undisturbed run reports its wire activity through the
// injected sink — dials, frames in both directions, shard and coreset bytes —
// and none of the failure/replay counters move.
func TestObsCleanRun(t *testing.T) {
	backends := startWorkers(t, 3)
	sink := newMemSink()
	g := gen.GNP(1500, 12.0/1500, rng.New(7))
	_, st, err := summaries(context.Background(), stream.NewGraphSource(g),
		Config{Workers: backends, Seed: 7, BatchSize: 64, Obs: sink}, matchingTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.get(MetricDialAttempts); got != 3 {
		t.Errorf("%s = %d, want 3", MetricDialAttempts, got)
	}
	if got := sink.get(MetricFramesReceived); got != 6 {
		t.Errorf("%s = %d, want 6 (one TELEM + one CORESET per machine)", MetricFramesReceived, got)
	}
	// The sink's byte accounting must agree with the Stats the run reports.
	if got := sink.get(MetricShardBytes); got != int64(st.ShardBytes) {
		t.Errorf("%s = %d, want Stats.ShardBytes = %d", MetricShardBytes, got, st.ShardBytes)
	}
	if got := sink.get(MetricCoresetBytes); got != int64(st.TotalCommBytes) {
		t.Errorf("%s = %d, want Stats.TotalCommBytes = %d", MetricCoresetBytes, got, st.TotalCommBytes)
	}
	if sink.get(MetricFramesSent) < 3+3 { // at least one HELLO and one EOS per machine
		t.Errorf("%s = %d, want >= 6", MetricFramesSent, sink.get(MetricFramesSent))
	}
	for _, name := range []string{MetricWorkerFailures, MetricRetries, MetricReplays, MetricBackoffSleeps} {
		if got := sink.get(name); got != 0 {
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

	sink := newMemSink()
	g := gen.GNP(3000, 20.0/3000, rng.New(11))
	cfg := Config{
		Workers: []string{backends[0], proxyAddr, backends[2]},
		Seed:    11, BatchSize: 64,
		MaxRetries: 2, RetryBackoff: time.Millisecond,
		Obs: sink,
	}
	var st *Stats
	err := runWithTimeout(t, 30*time.Second, func() error {
		var err error
		_, st, err = summaries(context.Background(), stream.NewGraphSource(g), cfg, matchingTask, task.Params{})
		return err
	})
	if err != nil {
		t.Fatalf("replay did not recover: %v", err)
	}
	if got := sink.get(MetricReplays); got < 1 {
		t.Errorf("%s = %d after an injected worker kill, want >= 1", MetricReplays, got)
	}
	if got := sink.get(MetricWorkerFailures); got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricWorkerFailures, got)
	}
	if got := sink.get(MetricRetries); got != int64(st.Retries) {
		t.Errorf("%s = %d, want Stats.Retries = %d", MetricRetries, got, st.Retries)
	}
	if got := sink.get(MetricBackoffSleeps); got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricBackoffSleeps, got)
	}
	// Replay re-dials: the original 3 fan-out dials plus at least one more.
	if got := sink.get(MetricDialAttempts); got < 4 {
		t.Errorf("%s = %d, want >= 4", MetricDialAttempts, got)
	}
}
