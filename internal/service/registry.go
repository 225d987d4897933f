package service

import (
	"fmt"
	"sync"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
)

// Registry holds the graphs the service can run jobs against, keyed by
// string ID. An entry is one of two kinds: resident edges in memory — an
// uploaded edge list, or a generator spec drawn once at registration, just
// as the paper's simultaneous model hands every machine an input that is
// already there — or a reference to a stored dataset (internal/dataset —
// edges on disk, streamed segment by segment, so a registered
// billion-edge graph costs the registry a file handle). A generated draw is
// bounded by the same resident budget one upload gets; larger synthetic
// graphs are frozen with `coreset ingest -gen` and registered as datasets.
// Entries are ref-counted: a job Acquires its graph for the duration of the
// run, and eviction only ever removes zero-ref entries, least-recently-used
// first, once the resident count exceeds the configured cap.
type Registry struct {
	mu          sync.Mutex
	maxResident int // soft cap on entries (<= 0: unlimited)
	maxDraw     int // cap on one generated draw, in edges (< 0: unlimited)
	seq         int // for assigned IDs
	tick        int64
	entries     map[string]*GraphEntry
	adds        int64
	evictions   int64
}

// GraphEntry is one registered graph. The descriptive fields are immutable
// after creation; refs and lastUse are guarded by the registry mutex.
type GraphEntry struct {
	ID    string
	Gen   *GenSpec         // the spec a generated entry was drawn from (source "gen")
	G     *graph.Graph     // non-nil for resident entries (uploaded or generated)
	DS    *dataset.Dataset // non-nil for dataset-backed entries
	N     int
	M     int
	Bytes int64

	// generation is unique across every entry the registry has ever held.
	// It is part of the result-cache key, so a graph re-registered under a
	// reused ID can never be served another graph's cached results.
	generation int64

	refs    int
	lastUse int64
}

// Generation returns the entry's registry-unique generation number.
func (e *GraphEntry) Generation() int64 { return e.generation }

// NewRegistry returns a registry evicting idle graphs beyond maxResident
// entries (<= 0 disables eviction) and refusing a generator spec whose draw
// needs more than maxDrawBytes of resident edges (<= 0: no bound). The
// server passes Config.MaxUploadBytes, the budget one upload already gets.
func NewRegistry(maxResident int, maxDrawBytes int64) *Registry {
	r := &Registry{maxResident: maxResident, maxDraw: -1, entries: make(map[string]*GraphEntry)}
	if maxDrawBytes > 0 {
		r.maxDraw = int(maxDrawBytes / edgeBytes)
	}
	return r
}

// AddGraph registers an uploaded, already-validated graph under id (assigned
// when empty) and returns its registered view.
func (r *Registry) AddGraph(id string, g *graph.Graph) (GraphInfo, error) {
	if g.N > MaxGraphN {
		return GraphInfo{}, fmt.Errorf("service: n=%d exceeds the cap of %d vertices", g.N, MaxGraphN)
	}
	return r.add(id, residentEntry(g))
}

// AddSpec draws a generator spec once and registers its edges under id
// (assigned when empty), resident like an upload. The edges are the
// iterator's own draw order, so a job over the entry partitions, summarises
// and caches exactly as a run over spec.Source() does. A draw longer than
// the registry's bound stops at the first edge past it and is refused.
func (r *Registry) AddSpec(id string, spec *GenSpec) (GraphInfo, error) {
	edges, err := r.draw(spec)
	if err != nil {
		return GraphInfo{}, err
	}
	cp := *spec
	e := residentEntry(&graph.Graph{N: spec.N, Edges: edges})
	e.Gen = &cp
	return r.add(id, e)
}

// draw runs spec's iterator into an exactly-sized edge slice: one pass
// counts the edges (stopping past the bound, so a refused spec allocates
// nothing), a second replays the same draw sequence into the slice.
func (r *Registry) draw(spec *GenSpec) ([]graph.Edge, error) {
	// A powerlaw iterator draws every vertex's weight and label before its
	// first edge; a spec whose setup alone is over the budget is refused
	// before it is paid for.
	if spec.Name == "powerlaw" && r.maxDraw >= 0 && gen.PowerlawSetupBytes(spec.N, powerlawCap(spec.N)) > int64(r.maxDraw)*edgeBytes {
		return nil, r.overBudget(spec)
	}
	it, err := spec.Iter()
	if err != nil {
		return nil, err
	}
	m := 0
	for _, ok := it.Next(); ok; _, ok = it.Next() {
		if m++; r.maxDraw >= 0 && m > r.maxDraw {
			return nil, r.overBudget(spec)
		}
	}
	edges := make([]graph.Edge, m)
	it, _ = spec.Iter() // validated above; cannot fail
	for i := range edges {
		edges[i], _ = it.Next()
	}
	return edges, nil
}

// overBudget refuses a spec that needs more than the resident budget one
// upload gets, and names the dataset path such a graph belongs on.
func (r *Registry) overBudget(spec *GenSpec) error {
	return fmt.Errorf("service: %s spec (n=%d) needs more than the %d B resident budget one upload gets; "+
		"for a graph this size run `coreset ingest -gen %s -n %d -deg %g -seed %d -out DIR/NAME` "+
		"and register {\"dataset\": \"NAME\"} on a daemon serving -datasets DIR",
		spec.Name, spec.N, int64(r.maxDraw)*edgeBytes, spec.Name, spec.N, spec.Deg, spec.Seed)
}

// edgeBytes is the resident size of one graph.Edge{U, V int32}.
const edgeBytes = 8

// residentEntry builds the entry for edges held in memory, charging the
// edge slice's capacity plus a small fixed overhead for the entry itself.
func residentEntry(g *graph.Graph) *GraphEntry {
	return &GraphEntry{
		G:     g,
		N:     g.N,
		M:     g.M(),
		Bytes: int64(cap(g.Edges))*edgeBytes + 128,
	}
}

// AddDataset registers a stored dataset under id (the registry assigns one
// when empty). The registry borrows the caller's open handle and never
// closes it: the daemon keeps its store handles for its lifetime, and tests
// can watch the same handle's SegmentReads counter a job increments. Only a
// manifest-sized view is resident — the edges stay on disk.
func (r *Registry) AddDataset(id string, ds *dataset.Dataset) (GraphInfo, error) {
	if ds.NumVertices() > MaxGraphN {
		return GraphInfo{}, fmt.Errorf("service: n=%d exceeds the cap of %d vertices", ds.NumVertices(), MaxGraphN)
	}
	e := &GraphEntry{DS: ds, N: ds.NumVertices(), M: ds.Edges(), Bytes: 256}
	return r.add(id, e)
}

// add registers e and returns its view, built under the same lock so the
// response can never observe a concurrent eviction or mutation.
func (r *Registry) add(id string, e *GraphEntry) (GraphInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == "" {
		r.seq++
		id = fmt.Sprintf("g-%d", r.seq)
	} else if _, dup := r.entries[id]; dup {
		return GraphInfo{}, fmt.Errorf("service: graph %q already exists", id)
	}
	e.ID = id
	r.tick++
	e.lastUse = r.tick
	r.entries[id] = e
	r.adds++
	e.generation = r.adds
	r.evictLocked(e)
	return e.infoLocked(), nil
}

// evictLocked removes zero-ref entries, least-recently-used first, until the
// resident count is within the cap. The entry being added (just) and entries
// pinned by running jobs are never removed, so the cap is soft under load.
func (r *Registry) evictLocked(just *GraphEntry) {
	if r.maxResident <= 0 {
		return
	}
	for len(r.entries) > r.maxResident {
		var victim *GraphEntry
		for _, e := range r.entries {
			if e.refs > 0 || e == just {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(r.entries, victim.ID)
		r.evictions++
	}
}

// Generation returns the current generation of id.
func (r *Registry) Generation(id string) (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return 0, false
	}
	return e.generation, true
}

// cacheScope returns the (graph, generation) pair result-cache keys use for
// this entry. Dataset entries key by content hash with generation 0:
// identity follows the bytes, so re-registering the same dataset — under
// the same ID after an eviction, or under a different ID entirely — keeps
// hitting the results already computed for those bytes. Resident entries
// keep the (ID, registry generation) scope, where a reused ID must never see
// the previous graph's results.
func (e *GraphEntry) cacheScope() (string, int64) {
	if e.DS != nil {
		return "ds:" + e.DS.Hash(), 0
	}
	return e.ID, e.generation
}

// CacheScope returns the cache keying scope for id; see cacheScope.
func (r *Registry) CacheScope(id string) (string, int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return "", 0, false
	}
	scope, gen := e.cacheScope()
	return scope, gen, true
}

// Acquire pins the graph for a job: the entry cannot be evicted until the
// matching Release. It returns an error if the graph is unknown (possibly
// already evicted).
func (r *Registry) Acquire(id string) (*GraphEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, fmt.Errorf("service: unknown graph %q", id)
	}
	e.refs++
	r.tick++
	e.lastUse = r.tick
	return e, nil
}

// Release undoes an Acquire.
func (r *Registry) Release(e *GraphEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.refs > 0 {
		e.refs--
	}
}

// Info returns the API view of a graph.
func (r *Registry) Info(id string) (GraphInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return GraphInfo{}, false
	}
	return e.infoLocked(), true
}

func (e *GraphEntry) infoLocked() GraphInfo {
	src, hash := "upload", ""
	switch {
	case e.Gen != nil:
		src = "gen"
	case e.DS != nil:
		src, hash = "dataset", e.DS.Hash()
	}
	return GraphInfo{ID: e.ID, Source: src, N: e.N, M: e.M, Bytes: e.Bytes, Refs: e.refs, Gen: e.Gen, Hash: hash}
}

// Has reports whether id is registered.
func (r *Registry) Has(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[id]
	return ok
}

// Remove deletes an idle graph. It refuses while jobs hold references.
func (r *Registry) Remove(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return fmt.Errorf("service: unknown graph %q", id)
	}
	if e.refs > 0 {
		return fmt.Errorf("service: graph %q is in use by %d job(s)", id, e.refs)
	}
	delete(r.entries, id)
	return nil
}

// Stats summarizes the registry.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RegistryStats{Count: len(r.entries), Adds: r.adds, Evictions: r.evictions}
	for _, e := range r.entries {
		st.Bytes += e.Bytes
	}
	return st
}

// Source mints a fresh streaming edge source for a job. Resident entries
// (uploaded or generated) stream their edge slice, read-only and safe to
// share across concurrent jobs; dataset entries stream segments off disk.
// Both are stream.Restartable, so every registry-backed cluster job can
// replay a lost round. Batch-mode jobs materialize the source
// (stream.Collect): a resident slice is handed over as is, a dataset
// becomes a transient edge list dropped when the job finishes.
func (e *GraphEntry) Source() stream.EdgeSource {
	if e.DS != nil {
		return stream.NewDatasetSource(e.DS)
	}
	return stream.NewGraphSource(e.G)
}
