package service

import (
	"fmt"
	"sync"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/stream"
)

// Registry holds the graphs the service can run jobs against, keyed by
// string ID. An entry is one of three kinds: an uploaded graph (edges
// resident in memory), a generator spec (edges re-derived on demand from
// O(1) parameters — the registry's cheap tier), or a reference to a stored
// dataset (internal/dataset — edges on disk, streamed segment by segment,
// so a registered billion-edge graph costs the registry a file handle).
// Entries are ref-counted: a job Acquires its graph for the duration of the
// run, and eviction only ever removes zero-ref entries, least-recently-used
// first, once the resident count exceeds the configured cap.
type Registry struct {
	mu          sync.Mutex
	maxResident int // soft cap on entries (<= 0: unlimited)
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
	Gen   *GenSpec         // non-nil for generator-backed entries
	G     *graph.Graph     // non-nil for uploaded entries
	DS    *dataset.Dataset // non-nil for dataset-backed entries
	N     int
	M     int // -1 when unknown (generator-backed)
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
// entries (<= 0 disables eviction).
func NewRegistry(maxResident int) *Registry {
	return &Registry{maxResident: maxResident, entries: make(map[string]*GraphEntry)}
}

// AddGraph registers an uploaded, already-validated graph under id (assigned
// when empty) and returns its registered view.
func (r *Registry) AddGraph(id string, g *graph.Graph) (GraphInfo, error) {
	if g.N > MaxGraphN {
		return GraphInfo{}, fmt.Errorf("service: n=%d exceeds the cap of %d vertices", g.N, MaxGraphN)
	}
	e := &GraphEntry{
		G: g,
		N: g.N,
		M: g.M(),
		// Edge{U,V int32} is 8 bytes; charge the slice plus a small fixed
		// overhead for the entry itself.
		Bytes: int64(g.M())*8 + 128,
	}
	return r.add(id, e)
}

// AddSpec registers a generator-backed graph under id (assigned when empty).
func (r *Registry) AddSpec(id string, spec *GenSpec) (GraphInfo, error) {
	if err := spec.Validate(); err != nil {
		return GraphInfo{}, err
	}
	cp := *spec
	e := &GraphEntry{Gen: &cp, N: spec.N, M: -1, Bytes: 128}
	return r.add(id, e)
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
// hitting the results already computed for those bytes. Upload and
// generator entries keep the (ID, registry generation) scope, where a
// reused ID must never see the previous graph's results.
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

// Source mints a fresh streaming edge source for a job. Uploaded entries
// stream their resident edge slice (read-only, safe to share across
// concurrent jobs); generator entries replay their draw sequence; dataset
// entries stream segments off disk. All three are stream.Restartable, so
// every registry-backed cluster job can replay a lost round. Batch-mode
// jobs materialize the source (stream.Collect): an upload's slice is handed
// over as is, generator and dataset entries become a transient edge list
// dropped when the job finishes.
func (e *GraphEntry) Source() (stream.EdgeSource, error) {
	switch {
	case e.Gen != nil:
		return e.Gen.Source()
	case e.DS != nil:
		return stream.NewDatasetSource(e.DS), nil
	}
	return stream.NewGraphSource(e.G), nil
}
