package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// buildStoredGraph writes a deterministic GNP graph into root/name as a
// dataset and returns the in-memory original.
func buildStoredGraph(t *testing.T, root, name string, n int, seed uint64) *graph.Graph {
	t.Helper()
	g := gen.GNP(n, 8.0/float64(n), rng.New(seed))
	st, err := dataset.OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := st.Path(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dataset.NewBuilder(dir, dataset.IngestOptions{SegmentEdges: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(g.Edges...); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(g.N, name, 0, 0); err != nil {
		t.Fatal(err)
	}
	return g
}

// edgeListBytes renders g in the cmd/coreset text format for uploads.
func edgeListBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "p %d %d\n", g.N, g.M())
	for _, e := range g.Edges {
		fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
	}
	return []byte(sb.String())
}

// datasetHandle digs the registered entry's dataset handle out of the
// registry, for asserting on its SegmentReads counter.
func datasetHandle(t *testing.T, s *Server, id string) *dataset.Dataset {
	t.Helper()
	e, err := s.reg.Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	defer s.reg.Release(e)
	if e.DS == nil {
		t.Fatalf("graph %q is not dataset-backed", id)
	}
	return e.DS
}

// TestDatasetRegisterAndJob: registering a stored dataset and running jobs
// against it must agree with the same edges uploaded in-memory, in both
// stream and batch modes.
func TestDatasetRegisterAndJob(t *testing.T) {
	root := t.TempDir()
	g := buildStoredGraph(t, root, "web", 400, 3)
	_, c := newTestService(t, Config{DatasetDir: root})

	var info GraphInfo
	if code := c.postJSON("/v1/graphs", CreateGraphRequest{Dataset: "web"}, &info); code != http.StatusCreated {
		t.Fatalf("register dataset: status %d", code)
	}
	if info.ID != "web" || info.Source != "dataset" || info.Hash == "" {
		t.Fatalf("info = %+v, want id web, source dataset, a content hash", info)
	}
	if info.N != g.N || info.M != g.M() {
		t.Fatalf("info shape %d/%d, want %d/%d", info.N, info.M, g.N, g.M())
	}

	// The in-memory oracle: the same graph uploaded as an edge list.
	var up GraphInfo
	if code := c.do("POST", "/v1/graphs?id=oracle", "text/plain", edgeListBytes(t, g), &up); code != http.StatusCreated {
		t.Fatalf("upload oracle: status %d", code)
	}
	for _, mode := range []string{ModeStream, ModeBatch} {
		got := c.runJob(CreateJobRequest{Graph: "web", Task: TaskMatching, K: 3, Seed: 7, Mode: mode})
		want := c.runJob(CreateJobRequest{Graph: "oracle", Task: TaskMatching, K: 3, Seed: 7, Mode: mode})
		if got.State != string(JobDone) {
			t.Fatalf("%s: dataset job failed: %s", mode, got.Error)
		}
		if got.Result.SolutionSize != want.Result.SolutionSize {
			t.Fatalf("%s: dataset job solution %d, in-memory %d", mode, got.Result.SolutionSize, want.Result.SolutionSize)
		}
	}

	// Unknown dataset names and daemons without a store reject cleanly.
	if code := c.postJSON("/v1/graphs", CreateGraphRequest{Dataset: "missing"}, nil); code != http.StatusNotFound {
		t.Fatalf("missing dataset: status %d, want 404", code)
	}
	_, noStore := newTestService(t, Config{})
	var refusal map[string]string
	if code := noStore.postJSON("/v1/graphs", CreateGraphRequest{Dataset: "web"}, &refusal); code != http.StatusBadRequest {
		t.Fatalf("dataset without a store: status %d, want 400", code)
	}
	if !strings.Contains(refusal["error"], "coreset serve -datasets") {
		t.Fatalf("dataset without a store: error %q does not name the flag that configures one", refusal["error"])
	}
	if code := c.postJSON("/v1/graphs", CreateGraphRequest{Dataset: "web", EdgeList: "0 1\n"}, nil); code != http.StatusBadRequest {
		t.Fatalf("dataset+edgeList: status %d, want 400", code)
	}
}

// TestDatasetCacheHitZeroReparse pins the acceptance criterion: a repeated
// job on a registered dataset is served from the cache with ZERO re-parse —
// the dataset's segment-read counter must not move for the cached job. And
// because the cache key is the manifest's content hash, re-registering the
// same bytes under a different ID keeps hitting the same cached results.
func TestDatasetCacheHitZeroReparse(t *testing.T) {
	root := t.TempDir()
	buildStoredGraph(t, root, "web", 300, 5)
	s, c := newTestService(t, Config{DatasetDir: root})
	if code := c.postJSON("/v1/graphs", CreateGraphRequest{Dataset: "web"}, nil); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	ds := datasetHandle(t, s, "web")

	req := CreateJobRequest{Graph: "web", Task: TaskMatching, K: 2, Seed: 9, Mode: ModeStream}
	first := c.runJob(req)
	if first.State != string(JobDone) || first.Cached {
		t.Fatalf("first job: state %s cached %v", first.State, first.Cached)
	}
	reads := ds.SegmentReads()
	if reads == 0 {
		t.Fatal("first job did not read the dataset — the test is not testing anything")
	}

	second := c.runJob(req)
	if !second.Cached {
		t.Fatal("repeated job was not served from the cache")
	}
	if got := ds.SegmentReads(); got != reads {
		t.Fatalf("cached job read the dataset: %d segment reads, was %d", got, reads)
	}
	if second.Result.SolutionSize != first.Result.SolutionSize {
		t.Fatal("cached result differs from the original")
	}

	// Same bytes, different registration: still a cache hit, still no reads.
	if code := c.postJSON("/v1/graphs", CreateGraphRequest{ID: "web2", Dataset: "web"}, nil); code != http.StatusCreated {
		t.Fatalf("re-register: status %d", code)
	}
	req2 := req
	req2.Graph = "web2"
	third := c.runJob(req2)
	if !third.Cached {
		t.Fatal("same-bytes dataset under a new ID missed the cache")
	}
	if got := ds.SegmentReads(); got != reads {
		t.Fatalf("hash-keyed cache hit still read the dataset: %d reads, was %d", got, reads)
	}
}

// TestRegistryEvictionVsDatasetPins is the satellite coverage: an entry
// backing an in-flight job (Acquired) is never evicted no matter how stale,
// and LRU eviction picks the oldest unpinned entry instead.
func TestRegistryEvictionVsDatasetPins(t *testing.T) {
	root := t.TempDir()
	buildStoredGraph(t, root, "pinned", 100, 1)
	buildStoredGraph(t, root, "idle", 100, 2)
	st, err := dataset.OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	open := func(name string) *dataset.Dataset {
		d, err := st.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}

	reg := NewRegistry(2)
	if _, err := reg.AddDataset("pinned", open("pinned")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddDataset("idle", open("idle")); err != nil {
		t.Fatal(err)
	}
	// Pin "pinned" as an in-flight job would, then touch "idle" so "pinned"
	// becomes the least-recently-used entry — the LRU victim candidate.
	e, err := reg.Acquire("pinned")
	if err != nil {
		t.Fatal(err)
	}
	reg.Release(mustEntry(t, reg, "idle"))

	// Push past the cap: the zero-ref "idle" must go, the pinned entry stays
	// even though it is least-recently-used.
	if _, err := reg.AddSpec("fresh", &GenSpec{Name: "gnp", N: 100, Deg: 4}); err != nil {
		t.Fatal(err)
	}
	if !reg.Has("pinned") {
		t.Fatal("pinned dataset entry was evicted while a job held it")
	}
	if reg.Has("idle") {
		t.Fatal("LRU did not evict the idle entry")
	}

	// Released and stale, the dataset entry becomes evictable like any other.
	reg.Release(e)
	if _, err := reg.AddSpec("fresh2", &GenSpec{Name: "gnp", N: 100, Deg: 4}); err != nil {
		t.Fatal(err)
	}
	if reg.Has("pinned") {
		t.Fatal("released LRU dataset entry survived eviction")
	}

	// Cache scope sanity: dataset entries key by hash, others by ID+gen.
	sF, gF, _ := reg.CacheScope("fresh2")
	if sF != "fresh2" || gF == 0 {
		t.Fatalf("spec scope = (%q, %d), want the ID with a nonzero generation", sF, gF)
	}
	buildStoredGraph(t, root, "other", 120, 9)
	if _, err := reg.AddDataset("again", open("pinned")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddDataset("other", open("other")); err != nil {
		t.Fatal(err)
	}
	sA, gA, _ := reg.CacheScope("again")
	sO, _, _ := reg.CacheScope("other")
	if gA != 0 || !strings.HasPrefix(sA, "ds:") {
		t.Fatalf("dataset scope = (%q, %d), want a ds: hash with gen 0", sA, gA)
	}
	if sA == sO {
		t.Fatal("different datasets share a cache scope")
	}
}

func mustEntry(t *testing.T, reg *Registry, id string) *GraphEntry {
	t.Helper()
	e, err := reg.Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
