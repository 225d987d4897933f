package service_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"repro/internal/service"
)

// The service's HTTP API end to end, as `coreset serve` mounts it: register
// a graph by generator spec (the registry draws it once and keeps the edges,
// as it would an upload), run jobs to completion with long polls, repeat one
// to have it answered from the result cache, and read the counters — first
// from /v1/stats, then from the Prometheus exposition at /metrics — all
// through the typed service.Client.
func ExampleServer() {
	svc := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(svc)
	api := service.NewClient(ts.URL, nil)
	ctx := context.Background()

	graph, err := api.AddGraph(ctx, service.CreateGraphRequest{Gen: &service.GenSpec{Name: "gnp", N: 5000, Deg: 8, Seed: 1}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered graph %s (n=%d)\n", graph.ID, graph.N)

	// Two cold jobs, then the first again: the pipelines are deterministic
	// functions of the seed, so the repeat is served from memory.
	for _, seed := range []uint64{7, 8, 7} {
		job, err := api.Run(ctx, service.CreateJobRequest{Graph: graph.ID, Task: service.TaskMatching, K: 4, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("job %s (seed %d): %s, cached=%v, matching %d\n", job.ID, seed, job.State, job.Cached, job.Result.SolutionSize)
	}

	stats, err := api.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stats: %d jobs done, cache %d hit / %d miss\n", stats.Jobs.Done, stats.Cache.Hits, stats.Cache.Misses)

	metrics, err := api.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{
		`service_job_duration_seconds_count{task="matching",mode="stream"}`,
		"service_jobs_done_total",
		"service_cache_hits_total",
		"service_cache_misses_total",
		"service_cache_entries",
	} {
		fmt.Println(name, metrics[name])
	}

	// Graceful shutdown: the listener first, then the job pool drains.
	ts.Close()
	if err := svc.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	// Output:
	// registered graph g-1 (n=5000)
	// job j-1 (seed 7): done, cached=false, matching 2492
	// job j-2 (seed 8): done, cached=false, matching 2487
	// job j-3 (seed 7): done, cached=true, matching 2492
	// stats: 3 jobs done, cache 1 hit / 2 miss
	// service_job_duration_seconds_count{task="matching",mode="stream"} 2
	// service_jobs_done_total 3
	// service_cache_hits_total 1
	// service_cache_misses_total 2
	// service_cache_entries 2
}
