package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
)

// timeless strips what legitimately differs between two runs of the same
// request: wall-clock figures, the workers' phase timings and the measured
// coordinator-to-worker bytes (the HELLO frame carries the run ID, whose
// length differs between a daemon job and a bare engine.Run).
func timeless(t *testing.T, rep graph.RunReport) string {
	t.Helper()
	zeroPhases := func(ms []graph.MachineStats) {
		for i := range ms {
			ms[i].DecodeMS, ms[i].BuildMS, ms[i].EncodeMS = 0, 0, 0
		}
	}
	rep.DurationMS, rep.EdgesPerSec, rep.ShardBytes = 0, 0, 0
	zeroPhases(rep.MachineStats)
	for i := range rep.RoundStats {
		rep.RoundStats[i].DurationMS, rep.RoundStats[i].ShardBytes = 0, 0
		zeroPhases(rep.RoundStats[i].MachineStats)
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRegisteredSpecMatchesSpecSource: a generator spec is drawn once at
// registration, and a job over the resident draw returns the report the
// CLI's path — engine.Run over spec.Source(), which regenerates the edges —
// gives for the same request, in every runtime.
func TestRegisteredSpecMatchesSpecSource(t *testing.T) {
	const k, seed = 2, 5
	addrs, shutdown, err := cluster.ServeLoopback(k)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	_, c := newTestService(t, Config{Workers: 2, ClusterWorkers: addrs})

	for _, spec := range []GenSpec{
		{Name: "gnp", N: 600, Deg: 12, Seed: 3},
		{Name: "star", N: 300},
		{Name: "powerlaw", N: 600, Seed: 3},
	} {
		var info GraphInfo
		if code := c.postJSON("/v1/graphs", CreateGraphRequest{Gen: &spec}, &info); code != http.StatusCreated {
			t.Fatalf("%s: register status %d", spec.Name, code)
		}
		for _, mode := range []string{ModeBatch, ModeStream, ModeCluster} {
			for _, req := range []CreateJobRequest{
				{Task: TaskMatching},
				{Task: TaskVC},
				{Task: TaskEDCS, Beta: 8, Rounds: 2},
			} {
				req.Graph, req.K, req.Seed, req.Mode = info.ID, k, seed, mode
				name := fmt.Sprintf("%s/%s/%s", spec.Name, mode, req.Task)
				view := c.runJob(req)
				if view.State != string(JobDone) {
					t.Fatalf("%s: job ended %s: %s", name, view.State, view.Error)
				}
				src, err := spec.Source()
				if err != nil {
					t.Fatal(err)
				}
				want, err := engine.Run(context.Background(), engine.Spec{
					Task: req.Task, Beta: view.Request.Beta, Rounds: req.Rounds,
					Runtime: mode, K: k, Seed: seed,
					Cluster: cluster.Config{Workers: addrs},
				}, src)
				if err != nil {
					t.Fatalf("%s: engine.Run: %v", name, err)
				}
				if got, want := timeless(t, *view.Result), timeless(t, *want); got != want {
					t.Errorf("%s: daemon report differs from engine.Run over spec.Source()\ndaemon:\n%s\nsource:\n%s", name, got, want)
				}
			}
		}
	}
}

// TestSpecOverDrawBudgetRefused: a spec whose draw needs more than
// MaxUploadBytes/8 resident edges is refused with 400 and the ingest hint,
// and the registry gains no entry; a draw of exactly the budget fits.
func TestSpecOverDrawBudgetRefused(t *testing.T) {
	const budget = 4096 // bytes: 512 edges
	s, c := newTestService(t, Config{MaxUploadBytes: budget})

	for _, spec := range []GenSpec{
		{Name: "gnp", N: 2000, Deg: 8, Seed: 1},
		{Name: "star", N: budget/8 + 2}, // one edge past the budget
	} {
		var errBody map[string]string
		if code := c.postJSON("/v1/graphs", CreateGraphRequest{Gen: &spec}, &errBody); code != http.StatusBadRequest {
			t.Fatalf("%s n=%d: status %d, want 400", spec.Name, spec.N, code)
		}
		for _, hint := range []string{"coreset ingest -gen", `{"dataset"`} {
			if !strings.Contains(errBody["error"], hint) {
				t.Fatalf("%s n=%d: error %q does not name %s", spec.Name, spec.N, errBody["error"], hint)
			}
		}
	}
	if st := s.reg.Stats(); st.Count != 0 || st.Adds != 0 || st.Bytes != 0 {
		t.Fatalf("refused specs left registry state: %+v", st)
	}

	var info GraphInfo
	if code := c.postJSON("/v1/graphs", CreateGraphRequest{Gen: &GenSpec{Name: "star", N: budget/8 + 1}}, &info); code != http.StatusCreated {
		t.Fatalf("a draw of exactly the budget: status %d", code)
	}
	if info.M != budget/8 || info.Bytes != budget+128 {
		t.Fatalf("budget-sized draw: %+v", info)
	}
}

// TestPowerlawRefusedBeforeSetup: a powerlaw spec whose setup alone is over
// the draw budget is refused before its iterator draws a weight. At n = 2^22
// under a 1 KiB budget that is under 1 MiB allocated, where minting the
// iterator first cost 21 B per vertex (84 MiB).
func TestPowerlawRefusedBeforeSetup(t *testing.T) {
	r := NewRegistry(0, 1<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := r.AddSpec("", &GenSpec{Name: "powerlaw", N: 1 << 22, Seed: 1})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "coreset ingest -gen powerlaw") {
		t.Fatalf("err = %v; want a refusal naming the ingest path", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("the refusal allocated %d B", got)
	}
}

// TestResidentBytesChargeCapacity: every resident entry, uploaded or
// generated, charges the capacity of the edge slice it keeps, plus the fixed
// entry overhead.
func TestResidentBytesChargeCapacity(t *testing.T) {
	s, c := newTestService(t, Config{})
	var headerless strings.Builder
	for i := 0; i < 999; i++ {
		fmt.Fprintf(&headerless, "%d %d\n", i, i+1)
	}
	for _, body := range []string{path10, headerless.String()} {
		if code := c.do("POST", "/v1/graphs", "text/plain", []byte(body), nil); code != http.StatusCreated {
			t.Fatalf("upload: status %d", code)
		}
	}
	for _, spec := range []GenSpec{{Name: "gnp", N: 3000, Deg: 8, Seed: 2}, {Name: "star", N: 50}, {Name: "powerlaw", N: 800, Seed: 2}} {
		if code := c.postJSON("/v1/graphs", CreateGraphRequest{Gen: &spec}, nil); code != http.StatusCreated {
			t.Fatalf("%s: status %d", spec.Name, code)
		}
	}

	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) != 5 {
		t.Fatalf("registry holds %d entries, want 5", len(r.entries))
	}
	for id, e := range r.entries {
		if want := 8*int64(cap(e.G.Edges)) + 128; e.Bytes != want {
			t.Errorf("%s: Bytes %d, want 8·cap(edges)+128 = %d", id, e.Bytes, want)
		}
		if e.M != len(e.G.Edges) {
			t.Errorf("%s: M %d, holds %d edges", id, e.M, len(e.G.Edges))
		}
	}
}
