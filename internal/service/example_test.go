package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/service"
)

// The service's HTTP API end to end, as `coreset serve` mounts it: register
// a graph by generator spec (the registry draws it once and keeps the edges,
// as it would an upload), run jobs to completion with long polls, repeat one
// to have it answered from the result cache, and read the counters — first
// from /v1/stats, then from the Prometheus exposition at /metrics.
func ExampleServer() {
	svc := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(svc)

	var graph service.GraphInfo
	call(ts.URL+"/v1/graphs", service.CreateGraphRequest{Gen: &service.GenSpec{Name: "gnp", N: 5000, Deg: 8, Seed: 1}}, &graph)
	fmt.Printf("registered graph %s (n=%d)\n", graph.ID, graph.N)

	// Two cold jobs, then the first again: the pipelines are deterministic
	// functions of the seed, so the repeat is served from memory.
	for _, seed := range []uint64{7, 8, 7} {
		var job service.JobView
		call(ts.URL+"/v1/jobs", service.CreateJobRequest{Graph: graph.ID, Task: service.TaskMatching, K: 4, Seed: seed}, &job)
		for job.State == string(service.JobQueued) || job.State == string(service.JobRunning) {
			call(ts.URL+"/v1/jobs/"+job.ID+"?wait=2s", nil, &job)
		}
		fmt.Printf("job %s (seed %d): %s, cached=%v, matching %d\n", job.ID, seed, job.State, job.Cached, job.Result.SolutionSize)
	}

	var stats service.StatsView
	call(ts.URL+"/v1/stats", nil, &stats)
	fmt.Printf("stats: %d jobs done, cache %d hit / %d miss\n", stats.Jobs.Done, stats.Cache.Hits, stats.Cache.Misses)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(body), "\n") {
		for _, family := range []string{"service_jobs_done_total", "service_cache_", "service_job_duration_seconds_count"} {
			if strings.HasPrefix(line, family) {
				fmt.Println(line)
			}
		}
	}

	// Graceful shutdown: the listener first, then the job pool drains.
	ts.Close()
	if err := svc.Shutdown(context.Background()); err != nil {
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

// call POSTs body as JSON to url, or GETs url when body is nil, and decodes
// the JSON answer into out.
func call(url string, body, out any) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(url)
	} else {
		data, _ := json.Marshal(body)
		resp, err = http.Post(url, "application/json", bytes.NewReader(data))
	}
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		log.Fatalf("%s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
