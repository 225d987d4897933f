package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rounds"
	"repro/internal/task"
)

// scrape fetches and parses GET /metrics.
func (c *client) scrape() map[string]float64 {
	c.t.Helper()
	m, err := c.api.Metrics(context.Background())
	if err != nil {
		c.t.Fatal(err)
	}
	return m
}

// TestMetricsEndpoint runs jobs (one executed, one cache hit) and checks the
// counters /metrics reports against what actually happened.
func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 2})
	c.postJSON("/v1/graphs", CreateGraphRequest{ID: "g", Gen: &GenSpec{Name: "gnp", N: 300, Deg: 4, Seed: 1}}, nil)

	req := CreateJobRequest{Graph: "g", Task: TaskMatching, K: 3, Seed: 5}
	if v := c.runJob(req); v.State != string(JobDone) {
		t.Fatalf("job state %s", v.State)
	}
	if v := c.runJob(req); !v.Cached {
		t.Fatal("second submission was not a cache hit")
	}

	m := c.scrape()
	if got := m[MetricJobsSubmitted]; got != 2 {
		t.Errorf("%s = %v, want 2", MetricJobsSubmitted, got)
	}
	if got := m[MetricJobsDone]; got != 2 { // the cache hit is terminal too
		t.Errorf("%s = %v, want 2", MetricJobsDone, got)
	}
	if got := m[MetricCacheHits]; got != 1 {
		t.Errorf("%s = %v, want 1", MetricCacheHits, got)
	}
	if got := m[MetricCacheMisses]; got != 1 {
		t.Errorf("%s = %v, want 1", MetricCacheMisses, got)
	}
	if got := m[MetricGraphs]; got != 1 {
		t.Errorf("%s = %v, want 1", MetricGraphs, got)
	}
	if m[MetricUptime] <= 0 {
		t.Errorf("%s = %v, want > 0", MetricUptime, m[MetricUptime])
	}
	// The executed job (not the cache hit) must have landed exactly one
	// sample in the task×mode latency histogram.
	countKey := fmt.Sprintf(`%s_count{task="%s",mode="%s"}`, MetricJobDuration, TaskMatching, ModeStream)
	if got := m[countKey]; got != 1 {
		t.Errorf("%s = %v, want 1", countKey, got)
	}
	if got := m[MetricJobsInflight]; got != 0 {
		t.Errorf("%s = %v after all jobs finished, want 0", MetricJobsInflight, got)
	}
}

// TestMetricsScrapeWhileSubmitting is the scrape-while-submitting race test:
// concurrent job submissions and /metrics scrapes must be data-race free
// (run under -race) and every scrape must stay parseable.
func TestMetricsScrapeWhileSubmitting(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 4, QueueDepth: 256, CacheSize: -1})
	c.postJSON("/v1/graphs", CreateGraphRequest{ID: "g", Gen: &GenSpec{Name: "gnp", N: 200, Deg: 4, Seed: 1}}, nil)

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				// Distinct seeds defeat the cache, so jobs really execute.
				c.runJob(CreateJobRequest{Graph: "g", Task: TaskMatching, K: 2, Seed: uint64(1000*w + i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		m := c.scrape()
		if m[MetricJobsSubmitted] < 0 {
			t.Fatal("negative counter")
		}
		select {
		case <-done:
			if got := c.scrape()[MetricJobsDone]; got != 45 {
				t.Fatalf("%s = %v, want 45", MetricJobsDone, got)
			}
			return
		default:
		}
	}
}

// TestHealthzDraining pins the shutdown sequence: /healthz serves "ok" while
// running, flips to 503 "draining" at BeginDrain, and Shutdown still drains
// every accepted job.
func TestHealthzDraining(t *testing.T) {
	s := New(Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	get := func() (int, string) {
		req := httptest.NewRequest("GET", "/healthz", nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec.Code, strings.TrimSpace(rec.Body.String())
	}
	if code, body := get(); code != http.StatusOK || body != "ok" {
		t.Fatalf("healthz before drain: %d %q, want 200 ok", code, body)
	}
	s.BeginDrain()
	if code, body := get(); code != http.StatusServiceUnavailable || body != "draining" {
		t.Fatalf("healthz during drain: %d %q, want 503 draining", code, body)
	}
}

// TestShutdownSequence exercises the full drain path over HTTP: submit work,
// BeginDrain, observe 503 on /healthz while the job still completes.
func TestShutdownSequence(t *testing.T) {
	s, c := newTestService(t, Config{Workers: 1})
	c.postJSON("/v1/graphs", CreateGraphRequest{ID: "g", Gen: &GenSpec{Name: "gnp", N: 300, Deg: 4, Seed: 1}}, nil)
	var v JobView
	if code := c.postJSON("/v1/jobs", CreateJobRequest{Graph: "g", Task: TaskMatching, K: 2, Seed: 9}, &v); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	s.BeginDrain()
	resp, err := c.srv.Client().Get(c.srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || strings.TrimSpace(string(body)) != "draining" {
		t.Fatalf("healthz during drain: %d %q", resp.StatusCode, body)
	}
	// The accepted job still reaches a terminal state.
	var got JobView
	c.do("GET", "/v1/jobs/"+v.ID+"?wait=30s", "", nil, &got)
	if got.State != string(JobDone) {
		t.Fatalf("job after drain: %s", got.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestStatsUptime: /v1/stats carries uptime_seconds consistent with uptimeMs.
func TestStatsUptime(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 1})
	time.Sleep(10 * time.Millisecond)
	st := c.stats()
	if st.UptimeSeconds <= 0 {
		t.Fatalf("uptime_seconds = %v, want > 0", st.UptimeSeconds)
	}
	if ratio := st.UptimeMS / 1000 / st.UptimeSeconds; ratio < 0.5 || ratio > 2 {
		t.Fatalf("uptimeMs %v inconsistent with uptime_seconds %v", st.UptimeMS, st.UptimeSeconds)
	}
}

// TestJobTracing: a server configured with a Tracer emits job span events
// stamped with a run ID.
func TestJobTracing(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	s := New(Config{Workers: 1, Tracer: obs.NewTextTracer(&syncWriter{mu: &mu, w: &buf}, "")})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	c := &client{t: t, srv: ts, api: NewClient(ts.URL, ts.Client())}
	c.postJSON("/v1/graphs", CreateGraphRequest{ID: "g", Gen: &GenSpec{Name: "gnp", N: 200, Deg: 4, Seed: 1}}, nil)
	c.runJob(CreateJobRequest{Graph: "g", Task: TaskMatching, K: 2, Seed: 3})

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "msg=job.start") || !strings.Contains(out, "msg=job.end") {
		t.Fatalf("trace missing job span:\n%s", out)
	}
	if !strings.Contains(out, "run=r-") {
		t.Fatalf("trace events not stamped with a run ID:\n%s", out)
	}
	if !strings.Contains(out, "state=done") {
		t.Fatalf("job.end missing terminal state:\n%s", out)
	}
}

type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestMetricsExposition reads the /metrics text a scraper reads after a
// single-round job and a two-round one: every advertised family is there,
// every registered task has its pre-touched service_jobs_total child (a new
// task needs no service change to show up), the union sizes of the rounds
// landed in a finite bucket of their own layout, and every sample line is
// "name{labels} value" with a numeric value.
func TestMetricsExposition(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 2})
	c.postJSON("/v1/graphs", CreateGraphRequest{ID: "g", Gen: &GenSpec{Name: "gnp", N: 3000, Deg: 60, Seed: 7}}, nil)
	for _, req := range []CreateJobRequest{
		{Graph: "g", Task: TaskMatching, K: 4, Seed: 7},
		{Graph: "g", Task: TaskEDCS, K: 4, Seed: 7, Rounds: 2},
	} {
		if v := c.runJob(req); v.State != string(JobDone) {
			t.Fatalf("%s job ended %s: %s", req.Task, v.State, v.Error)
		}
	}
	resp, err := http.Get(c.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, name := range []string{MetricJobsSubmitted, MetricJobsDone, MetricJobsTotal, MetricCacheHits, MetricCacheMisses,
		MetricJobDuration + "_bucket", MetricUptime, rounds.MetricRounds, rounds.MetricUnionEdges + "_bucket"} {
		if !strings.Contains("\n"+text, "\n"+name) {
			t.Errorf("no %s sample", name)
		}
	}
	for _, name := range task.Names() {
		if !strings.Contains(text, "\n"+MetricJobsTotal+`{task="`+name+`"}`) {
			t.Errorf("no %s child for task %s", MetricJobsTotal, name)
		}
	}
	finite := false
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("bad sample: %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad sample value: %q", line)
		}
		if strings.HasPrefix(line, rounds.MetricUnionEdges+"_bucket{") && !strings.Contains(line, `le="+Inf"`) && v > 0 {
			finite = true
		}
	}
	if !finite {
		t.Errorf("no finite %s bucket is non-zero:\n%s", rounds.MetricUnionEdges, text)
	}
}
