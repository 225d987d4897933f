package service

import (
	"net/http"
	"testing"
)

// BenchmarkServiceQuery measures the full HTTP query path of the service in
// its two regimes: "cold" submits a fresh (graph, task, k, seed, mode) key
// every iteration, so each query runs the whole streaming pipeline; "hit"
// replays one key, so after the first iteration every query is served from
// the result cache. The gap between the two sub-benchmarks is the value of
// keeping coresets resident — the service's reason to exist.
func BenchmarkServiceQuery(b *testing.B) {
	_, c := newTestService(b, Config{Workers: 4, QueueDepth: 256, CacheSize: -1})
	var info GraphInfo
	if code := c.postJSON("/v1/graphs", CreateGraphRequest{Gen: &GenSpec{Name: "gnp", N: 20000, Deg: 8, Seed: 1}}, &info); code != http.StatusCreated {
		b.Fatalf("create: status %d", code)
	}
	query := func(b *testing.B, seed uint64) {
		b.Helper()
		var v JobView
		if code := c.postJSON("/v1/jobs", CreateJobRequest{Graph: info.ID, Task: TaskVC, K: 4, Seed: seed}, &v); code != http.StatusAccepted && code != http.StatusOK {
			b.Fatalf("submit: status %d", code)
		}
		for v.State == string(JobQueued) || v.State == string(JobRunning) {
			if code := c.do("GET", "/v1/jobs/"+v.ID+"?wait=5s", "", nil, &v); code != http.StatusOK {
				b.Fatalf("poll: status %d", code)
			}
		}
		if v.State != string(JobDone) {
			b.Fatalf("job state %s (%s)", v.State, v.Error)
		}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			query(b, uint64(1000+i)) // fresh key every iteration
		}
		b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/query")
	})
	b.Run("hit", func(b *testing.B) {
		query(b, 7) // warm the key once, outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(b, 7)
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/1000, "ms/query")
	})
}
