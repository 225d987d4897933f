package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// client drives the httptest server: through the typed Client for whole
// flows, through do/postJSON where a test checks a status code.
type client struct {
	t   testing.TB
	srv *httptest.Server
	api *Client
}

func newTestService(t testing.TB, cfg Config) (*Server, *client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, &client{t: t, srv: ts, api: NewClient(ts.URL, ts.Client())}
}

func (c *client) do(method, path, contentType string, body []byte, out any) int {
	c.t.Helper()
	req, err := http.NewRequest(method, c.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			c.t.Fatalf("%s %s: decoding %q: %v", method, path, data, err)
		}
	}
	return resp.StatusCode
}

func (c *client) postJSON(path string, body any, out any) int {
	c.t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	return c.do("POST", path, "application/json", data, out)
}

// runJob runs a job to done; any other end fails the test.
func (c *client) runJob(req CreateJobRequest) JobView {
	c.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := c.api.Run(ctx, req)
	if err != nil {
		c.t.Fatal(err)
	}
	return v
}

func (c *client) stats() StatsView {
	c.t.Helper()
	st, err := c.api.Stats(context.Background())
	if err != nil {
		c.t.Fatal(err)
	}
	return st
}

const path10 = "p 10 9\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n"

// TestEndToEnd is the acceptance flow: upload a graph, run a job, re-query
// the same key and observe that the cached result is identical and came
// from the cache (hit counter, no second pipeline run).
func TestEndToEnd(t *testing.T) {
	for _, task := range []string{TaskMatching, TaskVC} {
		for _, mode := range []string{ModeStream, ModeBatch} {
			t.Run(task+"/"+mode, func(t *testing.T) {
				_, c := newTestService(t, Config{Workers: 2})

				var info GraphInfo
				if code := c.do("POST", "/v1/graphs", "text/plain", []byte(path10), &info); code != http.StatusCreated {
					t.Fatalf("upload: status %d", code)
				}
				if info.N != 10 || info.M != 9 {
					t.Fatalf("uploaded graph: %+v", info)
				}

				req := CreateJobRequest{Graph: info.ID, Task: task, K: 2, Seed: 3, Mode: mode}
				first := c.runJob(req)
				if first.State != string(JobDone) {
					t.Fatalf("first job: %+v", first)
				}
				if first.Cached {
					t.Fatal("first job claims cached")
				}
				if first.Result == nil || first.Result.SolutionSize == 0 {
					t.Fatalf("first job missing result: %+v", first)
				}

				second := c.runJob(req)
				if !second.Cached {
					t.Fatalf("repeat query not served from cache: %+v", second)
				}
				if !reflect.DeepEqual(first.Result, second.Result) {
					t.Fatalf("cached result differs:\n%+v\n%+v", first.Result, second.Result)
				}

				st := c.stats()
				if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
					t.Fatalf("cache counters: %+v", st.Cache)
				}
				if st.Jobs.Done != 2 {
					t.Fatalf("job counters: %+v", st.Jobs)
				}
			})
		}
	}
}

// TestMultiRoundJobs: a rounds >= 1 EDCS job runs the multi-round driver in
// every mode, its report carries the per-round breakdown, batch and stream
// agree (seed parity through the service), and the round cap is part of the
// cache key — the same request repeats from cache, while rounds=0 and
// rounds=1 are distinct entries.
func TestMultiRoundJobs(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 2})
	var info GraphInfo
	spec := CreateGraphRequest{Gen: &GenSpec{Name: "gnp", N: 800, Deg: 30, Seed: 1}}
	if code := c.postJSON("/v1/graphs", spec, &info); code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}

	req := CreateJobRequest{Graph: info.ID, Task: TaskEDCS, K: 4, Seed: 7, Beta: 8, Rounds: 3}
	req.Mode = ModeStream
	streamJob := c.runJob(req)
	req.Mode = ModeBatch
	batchJob := c.runJob(req)
	for _, v := range []JobView{streamJob, batchJob} {
		if v.State != string(JobDone) {
			t.Fatalf("job %+v", v)
		}
		r := v.Result
		if r.Rounds != 3 || r.RoundsRun < 2 || len(r.RoundStats) != r.RoundsRun {
			t.Fatalf("missing round breakdown: %+v", r)
		}
	}
	if streamJob.Result.SolutionSize != batchJob.Result.SolutionSize ||
		streamJob.Result.RoundsRun != batchJob.Result.RoundsRun ||
		streamJob.Result.TotalCommBytes != batchJob.Result.TotalCommBytes {
		t.Fatalf("modes disagree:\nstream %+v\nbatch  %+v", streamJob.Result, batchJob.Result)
	}

	// Same request again: cache hit. rounds=0 (single-round) instead: a
	// different key, so a fresh run — whose report has no round breakdown.
	if again := c.runJob(req); !again.Cached {
		t.Fatalf("repeat multi-round query not cached: %+v", again)
	}
	req.Rounds = 0
	single := c.runJob(req)
	if single.Cached {
		t.Fatal("rounds=0 must not share the rounds=3 cache entry")
	}
	if single.Result.RoundsRun != 0 || len(single.Result.RoundStats) != 0 {
		t.Fatalf("single-round report grew round fields: %+v", single.Result)
	}
}

// Batch and stream jobs on the same generator spec must agree with the CLI
// parameter mapping: same spec, same seed, same composed answer per mode.
// Registration draws the spec once, so its reply carries the drawn edge
// count — the one the materializing generator gives — and charges the
// resident edges.
func TestGeneratorGraphJobs(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 2})
	drawn := map[string]int{
		"gnp":      len(gen.GNP(500, 6.0/500, rng.New(1)).Edges),
		"star":     len(gen.Star(500).Edges),
		"powerlaw": len(gen.ChungLu(500, 2.0, 500/16+1, rng.New(1)).Edges),
	}
	for _, name := range []string{"gnp", "star", "powerlaw"} {
		var info GraphInfo
		spec := CreateGraphRequest{Gen: &GenSpec{Name: name, N: 500, Deg: 6, Seed: 1}}
		if code := c.postJSON("/v1/graphs", spec, &info); code != http.StatusCreated {
			t.Fatalf("%s: create status %d", name, code)
		}
		if info.Source != "gen" || info.M != drawn[name] || info.Bytes != 8*int64(drawn[name])+128 {
			t.Fatalf("%s: info %+v, want m=%d bytes=%d", name, info, drawn[name], 8*drawn[name]+128)
		}
		stream := c.runJob(CreateJobRequest{Graph: info.ID, Task: TaskMatching, K: 3, Seed: 7, Mode: ModeStream})
		batch := c.runJob(CreateJobRequest{Graph: info.ID, Task: TaskMatching, K: 3, Seed: 7, Mode: ModeBatch})
		if stream.State != string(JobDone) || batch.State != string(JobDone) {
			t.Fatalf("%s: states %s / %s (%s %s)", name, stream.State, batch.State, stream.Error, batch.Error)
		}
		if stream.Result.M != batch.Result.M {
			t.Fatalf("%s: modes saw different edge counts: %d vs %d", name, stream.Result.M, batch.Result.M)
		}
	}
}

func TestGraphAPIErrors(t *testing.T) {
	_, c := newTestService(t, Config{})

	var errBody map[string]string
	if code := c.do("POST", "/v1/graphs", "text/plain", []byte("p 2 1\n0 5\n"), &errBody); code != http.StatusBadRequest {
		t.Fatalf("invalid edge list: status %d", code)
	}
	if code := c.postJSON("/v1/graphs", CreateGraphRequest{}, &errBody); code != http.StatusBadRequest {
		t.Fatalf("empty request: status %d", code)
	}
	if code := c.postJSON("/v1/graphs", CreateGraphRequest{Gen: &GenSpec{Name: "nope", N: 5}}, &errBody); code != http.StatusBadRequest {
		t.Fatalf("unknown generator: status %d", code)
	}

	var info GraphInfo
	if code := c.do("POST", "/v1/graphs?id=mine", "text/plain", []byte(path10), &info); code != http.StatusCreated {
		t.Fatalf("named upload: status %d", code)
	}
	if info.ID != "mine" {
		t.Fatalf("named upload got id %q", info.ID)
	}
	if code := c.do("POST", "/v1/graphs?id=mine", "text/plain", []byte(path10), &errBody); code != http.StatusConflict {
		t.Fatalf("duplicate id: status %d", code)
	}
	if code := c.do("GET", "/v1/graphs/nope", "", nil, &errBody); code != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d", code)
	}
	if code := c.do("DELETE", "/v1/graphs/mine", "", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := c.do("GET", "/v1/graphs/mine", "", nil, &errBody); code != http.StatusNotFound {
		t.Fatalf("deleted graph still visible: status %d", code)
	}
}

// TestHostileGenSpecRefused: a spec whose gnp p = deg/n leaves [0, 1], or
// whose deg is not a finite number, fails validation, and the daemon answers
// 400 where the generator used to panic in the handler.
func TestHostileGenSpecRefused(t *testing.T) {
	_, c := newTestService(t, Config{})
	for _, spec := range []GenSpec{
		{Name: "gnp", N: 0, Deg: 8},
		{Name: "gnp", N: 10, Deg: 10.5},
		{Name: "gnp", N: 10, Deg: -1},
		{Name: "powerlaw", N: 0, Deg: 1e308},
		{Name: "gnp", N: 10, Deg: math.NaN()},
		{Name: "gnp", N: 10, Deg: math.Inf(1)},
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("%+v: accepted", spec)
		}
		if math.IsNaN(spec.Deg) || math.IsInf(spec.Deg, 0) {
			continue // JSON cannot spell them
		}
		var errBody map[string]string
		if code := c.postJSON("/v1/graphs", CreateGraphRequest{Gen: &spec}, &errBody); code != http.StatusBadRequest || !strings.Contains(errBody["error"], "invalid") {
			t.Errorf("%+v: status %d, body %v; want 400", spec, code, errBody)
		}
	}
	for _, spec := range []GenSpec{{Name: "gnp", N: 0, Deg: 0}, {Name: "gnp", N: 10, Deg: 10}} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%+v: %v", spec, err)
		}
	}
}

func TestJobAPIErrors(t *testing.T) {
	_, c := newTestService(t, Config{})
	var info GraphInfo
	if code := c.do("POST", "/v1/graphs", "text/plain", []byte(path10), &info); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}

	var errBody map[string]string
	cases := []struct {
		req  CreateJobRequest
		code int
	}{
		{CreateJobRequest{Graph: "nope", Task: TaskMatching, K: 2}, http.StatusNotFound},
		{CreateJobRequest{Graph: info.ID, Task: "nope", K: 2}, http.StatusBadRequest},
		{CreateJobRequest{Graph: info.ID, Task: TaskMatching, K: 0}, http.StatusBadRequest},
		{CreateJobRequest{Graph: info.ID, Task: TaskMatching, K: 2, Mode: "warp"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code := c.postJSON("/v1/jobs", tc.req, &errBody); code != tc.code {
			t.Fatalf("%+v: status %d, want %d", tc.req, code, tc.code)
		}
	}
	if code := c.do("GET", "/v1/jobs/j-999", "", nil, &errBody); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", code)
	}
	if code := c.do("GET", "/healthz", "", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
}

// A queued job canceled before any worker picks it up must come back
// canceled, deterministically: the single worker is busy with an earlier
// long job while we cancel.
func TestCancelQueuedJob(t *testing.T) {
	s, c := newTestService(t, Config{Workers: 1})
	var info GraphInfo
	if code := c.postJSON("/v1/graphs", CreateGraphRequest{Gen: &GenSpec{Name: "gnp", N: 300000, Deg: 8, Seed: 1}}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}

	var blocker JobView
	if code := c.postJSON("/v1/jobs", CreateJobRequest{Graph: info.ID, Task: TaskVC, K: 4, Seed: 1}, &blocker); code != http.StatusAccepted {
		t.Fatalf("blocker: status %d", code)
	}
	var victim JobView
	if code := c.postJSON("/v1/jobs", CreateJobRequest{Graph: info.ID, Task: TaskVC, K: 4, Seed: 2}, &victim); code != http.StatusAccepted {
		t.Fatalf("victim: status %d", code)
	}
	if code := c.do("DELETE", "/v1/jobs/"+victim.ID, "", nil, &victim); code != http.StatusAccepted {
		t.Fatalf("cancel: status %d", code)
	}

	j, ok := s.mgr.Get(victim.ID)
	if !ok {
		t.Fatal("victim vanished")
	}
	<-j.Done()
	if got := j.State(); got != JobCanceled {
		t.Fatalf("victim state %s, want canceled", got)
	}

	// A terminal job has dropped its context; canceling it, or a cache hit
	// (born done), is a no-op that leaves it done.
	b, ok := s.mgr.Get(blocker.ID)
	if !ok {
		t.Fatal("blocker vanished")
	}
	<-b.Done()
	hit, err := s.mgr.Submit(CreateJobRequest{Graph: info.ID, Task: TaskVC, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, done := range []*Job{b, hit} {
		done.Cancel()
		var v JobView
		if code := c.do("DELETE", "/v1/jobs/"+done.ID, "", nil, &v); code != http.StatusAccepted {
			t.Fatalf("cancel %s: status %d", done.ID, code)
		}
		if v.State != string(JobDone) || v.Result == nil {
			t.Fatalf("canceling terminal job %s moved it: %+v", done.ID, v)
		}
	}
	if v := hit.View(); !v.Cached {
		t.Fatalf("repeat of the blocker was not a cache hit: %+v", v)
	}
}

func TestRegistryEviction(t *testing.T) {
	r := NewRegistry(2, 0)
	for i := 0; i < 3; i++ {
		if _, err := r.AddSpec(fmt.Sprintf("s-%d", i), &GenSpec{Name: "star", N: 10}); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Count != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
	if r.Has("s-0") {
		t.Fatal("LRU entry s-0 survived eviction")
	}

	// Pinned entries survive even when they are the LRU choice.
	e, err := r.Acquire("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddSpec("s-3", &GenSpec{Name: "star", N: 10}); err != nil {
		t.Fatal(err)
	}
	if !r.Has("s-1") {
		t.Fatal("pinned entry evicted")
	}
	if err := r.Remove("s-1"); err == nil {
		t.Fatal("removed a pinned entry")
	}
	r.Release(e)
	if err := r.Remove("s-1"); err != nil {
		t.Fatal(err)
	}
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	k := func(i int) Key { return Key{Graph: fmt.Sprintf("g-%d", i), Task: TaskMatching, K: 1, Mode: ModeStream} }
	rep := func(i int) *graph.RunReport { return &graph.RunReport{SolutionSize: i} }
	c.Put(k(1), rep(1))
	c.Put(k(2), rep(2))
	if _, ok := c.Get(k(1)); !ok { // bumps k(1) to front
		t.Fatal("k1 missing")
	}
	c.Put(k(3), rep(3)) // evicts k(2)
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("k2 survived eviction")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("k1 evicted despite recent use")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// Submissions beyond the queue depth are rejected with 503, not blocked.
func TestQueueFull(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	var info GraphInfo
	if code := c.postJSON("/v1/graphs", CreateGraphRequest{Gen: &GenSpec{Name: "gnp", N: 300000, Deg: 8, Seed: 1}}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	full := 0
	for i := 0; i < 8; i++ {
		req := CreateJobRequest{Graph: info.ID, Task: TaskVC, K: 4, Seed: uint64(100 + i)}
		var out map[string]any
		if code := c.postJSON("/v1/jobs", req, &out); code == http.StatusServiceUnavailable {
			full++
		}
	}
	if full == 0 {
		t.Fatal("queue never reported full")
	}
}

// TestUploadTooLarge pins the MaxBytesReader wiring.
func TestUploadTooLarge(t *testing.T) {
	_, c := newTestService(t, Config{MaxUploadBytes: 64})
	body := path10 + strings.Repeat("# padding\n", 20)
	var errBody map[string]string
	if code := c.do("POST", "/v1/graphs", "text/plain", []byte(body), &errBody); code != http.StatusBadRequest {
		t.Fatalf("oversized upload: status %d", code)
	}
}

// A graph re-registered under a reused ID must never be served the old
// graph's cached results: the cache key carries the registry generation.
func TestCacheNotReusedAcrossGraphReplacement(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 2})
	if code := c.do("POST", "/v1/graphs?id=g", "text/plain", []byte(path10), nil); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	req := CreateJobRequest{Graph: "g", Task: TaskMatching, K: 2, Seed: 3, Mode: ModeStream}
	first := c.runJob(req)
	if first.State != string(JobDone) || first.Result.M != 9 {
		t.Fatalf("first: %+v", first)
	}

	if code := c.do("DELETE", "/v1/graphs/g", "", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	// Re-register a DIFFERENT graph under the same ID: a 4-cycle.
	if code := c.do("POST", "/v1/graphs?id=g", "text/plain", []byte("p 4 4\n0 1\n1 2\n2 3\n0 3\n"), nil); code != http.StatusCreated {
		t.Fatalf("re-upload: status %d", code)
	}
	second := c.runJob(req)
	if second.Cached {
		t.Fatal("replacement graph served the old graph's cached result")
	}
	if second.Result.M != 4 {
		t.Fatalf("second job saw m=%d, want the new graph's 4", second.Result.M)
	}
}

// Adding a graph while every other entry is pinned must never evict the
// entry being added.
func TestEvictionSparesJustAddedEntry(t *testing.T) {
	r := NewRegistry(1, 0)
	if _, err := r.AddSpec("a", &GenSpec{Name: "star", N: 10}); err != nil {
		t.Fatal(err)
	}
	ea, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release(ea)
	if _, err := r.AddSpec("b", &GenSpec{Name: "star", N: 10}); err != nil {
		t.Fatal(err)
	}
	if !r.Has("b") {
		t.Fatal("the just-added entry was evicted")
	}
	if st := r.Stats(); st.Count != 2 {
		t.Fatalf("stats %+v (cap is soft while entries are pinned)", st)
	}
}

// Terminal jobs beyond the retention window are pruned, but the lifetime
// counters in /v1/stats keep counting.
func TestJobRetentionPrunes(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 1, JobRetention: 2})
	if code := c.do("POST", "/v1/graphs?id=g", "text/plain", []byte(path10), nil); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	var first JobView
	for i := 0; i < 5; i++ {
		v := c.runJob(CreateJobRequest{Graph: "g", Task: TaskMatching, K: 2, Seed: uint64(i)})
		if i == 0 {
			first = v
		}
	}
	if code := c.do("GET", "/v1/jobs/"+first.ID, "", nil, nil); code != http.StatusNotFound {
		t.Fatalf("pruned job still pollable: status %d", code)
	}
	st := c.stats()
	if st.Jobs.Done != 5 || st.Jobs.Submitted != 5 {
		t.Fatalf("lifetime counters lost jobs: %+v", st.Jobs)
	}
}

// Request parameters have hard sanity caps.
func TestRequestCaps(t *testing.T) {
	_, c := newTestService(t, Config{})
	if code := c.do("POST", "/v1/graphs?id=g", "text/plain", []byte(path10), nil); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	var errBody map[string]string
	if code := c.postJSON("/v1/jobs", CreateJobRequest{Graph: "g", Task: TaskMatching, K: MaxJobK + 1}, &errBody); code != http.StatusBadRequest {
		t.Fatalf("oversized k: status %d", code)
	}
	if code := c.postJSON("/v1/jobs", CreateJobRequest{Graph: "g", Task: TaskMatching, K: 2, Batch: MaxJobBatch + 1}, &errBody); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d", code)
	}
	if code := c.postJSON("/v1/graphs", CreateGraphRequest{Gen: &GenSpec{Name: "star", N: MaxGraphN + 1}}, &errBody); code != http.StatusBadRequest {
		t.Fatalf("oversized n: status %d", code)
	}
}
