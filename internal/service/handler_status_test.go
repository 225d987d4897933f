package service

import (
	"net/http"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/task"
)

// TestJobSubmissionStatusCodes pins the HTTP classification of every job
// rejection: client mistakes are 4xx (validation failures, unsupported
// deployment modes, unknown graphs), capacity is 503, and nothing a client
// can type may surface as a 5xx. Submit-side validation is where this
// regressed historically, so each rejection is asserted by its exact code.
func TestJobSubmissionStatusCodes(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 1})
	var info GraphInfo
	if code := c.postJSON("/v1/graphs", CreateGraphRequest{Gen: &GenSpec{Name: "star", N: 50}}, &info); code != http.StatusCreated {
		t.Fatalf("register graph: status %d", code)
	}

	cases := []struct {
		name string
		req  CreateJobRequest
		want int
	}{
		{"unknown-task", CreateJobRequest{Graph: info.ID, Task: "nope", K: 2}, http.StatusBadRequest},
		{"unknown-mode", CreateJobRequest{Graph: info.ID, Task: TaskMatching, K: 2, Mode: "nope"}, http.StatusBadRequest},
		{"zero-k", CreateJobRequest{Graph: info.ID, Task: TaskMatching, K: 0}, http.StatusBadRequest},
		{"huge-k", CreateJobRequest{Graph: info.ID, Task: TaskMatching, K: MaxJobK + 1}, http.StatusBadRequest},
		{"negative-batch", CreateJobRequest{Graph: info.ID, Task: TaskVC, K: 2, Batch: -1}, http.StatusBadRequest},
		{"beta-on-matching", CreateJobRequest{Graph: info.ID, Task: TaskMatching, K: 2, Beta: 8}, http.StatusBadRequest},
		{"beta-too-small", CreateJobRequest{Graph: info.ID, Task: TaskEDCS, K: 2, Beta: 1}, http.StatusBadRequest},
		{"beta-too-large", CreateJobRequest{Graph: info.ID, Task: TaskEDCS, K: 2, Beta: MaxJobBeta + 1}, http.StatusBadRequest},
		{"rounds-on-matching", CreateJobRequest{Graph: info.ID, Task: TaskMatching, K: 2, Rounds: 2}, http.StatusBadRequest},
		{"rounds-on-vc", CreateJobRequest{Graph: info.ID, Task: TaskVC, K: 2, Rounds: 1}, http.StatusBadRequest},
		{"rounds-negative", CreateJobRequest{Graph: info.ID, Task: TaskEDCS, K: 2, Rounds: -1}, http.StatusBadRequest},
		{"rounds-too-large", CreateJobRequest{Graph: info.ID, Task: TaskEDCS, K: 2, Rounds: MaxJobRounds + 1}, http.StatusBadRequest},
		{"rounds-valid", CreateJobRequest{Graph: info.ID, Task: TaskEDCS, K: 2, Rounds: 2}, http.StatusAccepted},
		{"no-cluster-fleet", CreateJobRequest{Graph: info.ID, Task: TaskMatching, K: 2, Mode: ModeCluster}, http.StatusBadRequest},
		{"unknown-graph", CreateJobRequest{Graph: "ghost", Task: TaskMatching, K: 2}, http.StatusNotFound},
		{"valid", CreateJobRequest{Graph: info.ID, Task: TaskMatching, K: 2}, http.StatusAccepted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := c.postJSON("/v1/jobs", tc.req, nil)
			if code != tc.want {
				t.Fatalf("status %d, want %d", code, tc.want)
			}
			if tc.want >= 500 || (code >= 500 && tc.want < 500) {
				t.Fatalf("client-caused rejection surfaced as server error %d", code)
			}
		})
	}

	// The status says how a job was taken, not how far it has got: a fresh
	// job is 202 even if a worker finishes it before the handler answers,
	// and only a cache hit is 200.
	repeat := CreateJobRequest{Graph: info.ID, Task: TaskVC, K: 2, Seed: 77}
	if v := c.runJob(repeat); v.State != string(JobDone) || v.Cached {
		t.Fatalf("fresh job ended %s (cached %v)", v.State, v.Cached)
	}
	var hit JobView
	if code := c.postJSON("/v1/jobs", repeat, &hit); code != http.StatusOK || !hit.Cached {
		t.Fatalf("repeat of a finished job: status %d, cached %v; want 200, cached", code, hit.Cached)
	}

	// The cluster k-mismatch needs a configured fleet to get past the
	// ErrNoCluster check.
	addrs, shutdown, err := cluster.ServeLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	_, cf := newTestService(t, Config{Workers: 1, ClusterWorkers: addrs})
	var finfo GraphInfo
	if code := cf.postJSON("/v1/graphs", CreateGraphRequest{Gen: &GenSpec{Name: "star", N: 50}}, &finfo); code != http.StatusCreated {
		t.Fatalf("register graph: status %d", code)
	}
	if code := cf.postJSON("/v1/jobs", CreateJobRequest{Graph: finfo.ID, Task: TaskMatching, K: 3, Mode: ModeCluster}, nil); code != http.StatusBadRequest {
		t.Fatalf("cluster k mismatch: status %d, want %d", code, http.StatusBadRequest)
	}
}

// TestJobsAcrossModes: every registered task runs in all three modes, and
// for the same (graph, seed, k) the three reports compose the identical
// answer from identical per-machine summaries (seed parity through the
// service layer). Only what a mode measures for itself may differ: batch
// counts, wall clock, and the cluster's wire bytes, whose body-length
// estimate is what batch and stream report. A repeated query hits the cache.
func TestJobsAcrossModes(t *testing.T) {
	const k = 2
	addrs, shutdown, err := cluster.ServeLoopback(k)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	_, c := newTestService(t, Config{Workers: 2, ClusterWorkers: addrs})

	var info GraphInfo
	if code := c.postJSON("/v1/graphs", CreateGraphRequest{Gen: &GenSpec{Name: "gnp", N: 1500, Deg: 20, Seed: 9}}, &info); code != http.StatusCreated {
		t.Fatalf("register graph: status %d", code)
	}

	// modeFree keeps what every mode must agree on.
	modeFree := func(r *graph.RunReport) graph.RunReport {
		out := *r
		out.Mode, out.Batches, out.DurationMS, out.EdgesPerSec = "", 0, 0, 0
		out.MachineStats, out.ShardBytes = nil, 0
		if out.EstCommBytes != 0 { // cluster: compare the body lengths, as batch and stream report them
			out.TotalCommBytes, out.MaxMachineBytes = out.EstCommBytes, out.EstMaxMachineBytes
			out.EstCommBytes, out.EstMaxMachineBytes = 0, 0
		}
		return out
	}
	for _, name := range task.Names() {
		req := CreateJobRequest{Graph: info.ID, Task: name, K: k, Seed: 4}
		if task.MustGet(name).UsesBeta {
			req.Beta = 16
		}
		var want graph.RunReport
		for _, mode := range []string{ModeBatch, ModeStream, ModeCluster} {
			req.Mode = mode
			v := c.runJob(req)
			if v.State != string(JobDone) {
				t.Fatalf("%s %s job ended %s: %s", name, mode, v.State, v.Error)
			}
			if v.Result.Task != name || v.Result.Mode != mode || v.Result.SolutionSize == 0 {
				t.Fatalf("%s %s report: %+v", name, mode, v.Result)
			}
			got := modeFree(v.Result)
			if mode == ModeBatch {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s report differs from batch:\n got %+v\nwant %+v", name, mode, got, want)
			}
		}
	}

	again := c.runJob(CreateJobRequest{Graph: info.ID, Task: TaskEDCS, K: k, Seed: 4, Mode: ModeStream, Beta: 16})
	if !again.Cached {
		t.Fatal("repeated edcs job missed the cache")
	}
	// A different beta is a different computation: it must not hit the
	// beta=16 entry.
	other := c.runJob(CreateJobRequest{Graph: info.ID, Task: TaskEDCS, K: k, Seed: 4, Mode: ModeStream, Beta: 32})
	if other.Cached {
		t.Fatal("different beta served from the old cache entry")
	}
}
