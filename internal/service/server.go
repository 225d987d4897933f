package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Config sizes the service. Zero values select the defaults.
type Config struct {
	// Workers is the job worker pool size (default 4).
	Workers int
	// QueueDepth is the pending-job queue length; a full queue returns
	// HTTP 503 (default 64).
	QueueDepth int
	// MaxGraphs caps resident registry entries; idle graphs beyond it are
	// evicted LRU-first (default 64, < 0 for unlimited).
	MaxGraphs int
	// CacheSize caps cached run reports (default 256, < 0 for unlimited).
	CacheSize int
	// MaxUploadBytes caps a POST /v1/graphs body (default 256 MiB). It is
	// also the resident budget of a generator spec's draw: a spec with more
	// than MaxUploadBytes/8 edges is refused (HTTP 400) and belongs in a
	// dataset store (coreset ingest -gen, then {"dataset": NAME}).
	MaxUploadBytes int64
	// JobRetention is how many terminal jobs stay pollable before the
	// oldest are pruned (default 4096, < 0 to keep everything).
	JobRetention int
	// ClusterWorkers lists cluster worker addresses (host:port). When
	// non-empty, jobs with mode "cluster" are dispatched to them (k must
	// equal the fleet size); when empty such jobs are rejected.
	ClusterWorkers []string
	// ClusterSpares lists standby worker addresses round replay may
	// substitute for a failed fleet member.
	ClusterSpares []string
	// ClusterMaxRetries is the per-machine, per-round replay budget for
	// cluster jobs. 0 means the service default (cluster.DefaultMaxRetries);
	// negative disables replay, restoring fail-fast cluster jobs.
	ClusterMaxRetries int
	// Tracer receives structured run-trace events (job spans with run IDs).
	// Nil disables tracing; see internal/obs.
	Tracer *obs.Tracer
	// DatasetDir is the root of a dataset store (coreset serve -datasets): POST
	// /v1/graphs with {"dataset": NAME} registers DatasetDir/NAME. Empty
	// rejects dataset registrations.
	DatasetDir string
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.MaxGraphs == 0 {
		c.MaxGraphs = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = 256 << 20
	}
	if c.JobRetention == 0 {
		c.JobRetention = 4096
	}
	return c
}

// Server wires the registry, job manager and result cache behind the HTTP
// API. It is an http.Handler; the caller owns the http.Server (and so the
// listener lifecycle), and calls Shutdown to drain the job pool.
type Server struct {
	cfg      Config
	reg      *Registry
	mgr      *Manager
	cache    *Cache
	store    *dataset.Store // nil without Config.DatasetDir
	mux      *http.ServeMux
	start    time.Time
	metrics  *obs.Registry
	ins      *Instruments
	draining atomic.Bool
}

// New builds a ready-to-serve service.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(cfg.MaxGraphs, cfg.MaxUploadBytes),
		cache:   NewCache(cfg.CacheSize),
		start:   time.Now(),
		metrics: obs.NewRegistry(),
	}
	if cfg.DatasetDir != "" {
		// OpenStore only fails on an uncreatable root; surface that on the
		// first registration attempt rather than turning New fallible.
		s.store, _ = dataset.OpenStore(cfg.DatasetDir)
	}
	s.ins = newInstruments(s.metrics, cfg.Tracer)
	s.mgr = NewManager(s.reg, s.cache, cfg.Workers, cfg.QueueDepth, cfg.JobRetention, ClusterConfig{
		Workers:    cfg.ClusterWorkers,
		Spares:     cfg.ClusterSpares,
		MaxRetries: cfg.ClusterMaxRetries,
	}, s.ins)
	s.registerStatFuncs()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/graphs", s.handleCreateGraph)
	s.mux.HandleFunc("GET /v1/graphs/{id}", s.handleGetGraph)
	s.mux.HandleFunc("DELETE /v1/graphs/{id}", s.handleDeleteGraph)
	s.mux.HandleFunc("POST /v1/jobs", s.handleCreateJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /metrics", s.metrics.Handler())
	return s
}

// ServeHTTP dispatches to the API mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain flips /healthz to "draining" (HTTP 503) without stopping any
// work. Call it before http.Server.Shutdown so load balancers stop routing
// new traffic while in-flight requests and queued jobs finish.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Shutdown drains the job manager; see Manager.Shutdown. Call it after the
// http.Server has stopped accepting requests. It implies BeginDrain, so a
// caller that skipped the explicit drain step still reports draining on any
// health probe that races the listener teardown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	return s.mgr.Shutdown(ctx)
}

// Metrics exposes the server's metrics registry — `coreset serve` mounts it on
// the admin listener next to net/http/pprof.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to do on error
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleCreateGraph ingests a graph. A JSON body carries a
// CreateGraphRequest (generator spec or inline edge list); any other
// content type is treated as raw edge-list text with the ID taken from the
// ?id= query parameter.
func (s *Server) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))

	// Non-JSON bodies are raw edge-list text, parsed incrementally straight
	// off the wire — the body is never buffered whole.
	if ct != "application/json" {
		s.addEdgeList(w, r.URL.Query().Get("id"), r.Body)
		return
	}

	var req CreateGraphRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	set := 0
	for _, has := range []bool{req.Gen != nil, req.EdgeList != "", req.Dataset != ""} {
		if has {
			set++
		}
	}
	switch {
	case set != 1:
		writeErr(w, http.StatusBadRequest, "body must set exactly one of gen, edgeList and dataset")
	case req.Gen != nil:
		s.addSpec(w, req.ID, req.Gen)
	case req.EdgeList != "":
		s.addEdgeList(w, req.ID, strings.NewReader(req.EdgeList))
	default:
		s.addDataset(w, req.ID, req.Dataset)
	}
}

// addDataset registers a dataset from the configured store by name. The ID
// defaults to the dataset name, so `{"dataset": "web"}` registers graph
// "web". The open handle stays with the registry entry for the daemon's
// lifetime; the edges never leave disk here.
func (s *Server) addDataset(w http.ResponseWriter, id, name string) {
	if s.store == nil {
		writeErr(w, http.StatusBadRequest, "this daemon has no dataset store configured (coreset serve -datasets)")
		return
	}
	ds, err := s.store.Open(name)
	if err != nil {
		writeErr(w, http.StatusNotFound, "dataset %q: %v", name, err)
		return
	}
	if id == "" {
		id = name
	}
	s.finishAdd(w, func() (GraphInfo, error) { return s.reg.AddDataset(id, ds) })
}

func (s *Server) addEdgeList(w http.ResponseWriter, id string, body io.Reader) {
	g, err := graph.ReadEdgeList(body)
	if err == nil {
		err = g.Validate()
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid edge list: %v", err)
		return
	}
	s.finishAdd(w, func() (GraphInfo, error) { return s.reg.AddGraph(id, g) })
}

func (s *Server) addSpec(w http.ResponseWriter, id string, spec *GenSpec) {
	s.finishAdd(w, func() (GraphInfo, error) { return s.reg.AddSpec(id, spec) })
}

func (s *Server) finishAdd(w http.ResponseWriter, add func() (GraphInfo, error)) {
	info, err := add()
	if err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "already exists") {
			code = http.StatusConflict
		}
		writeErr(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	info, ok := s.reg.Info(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown graph %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Remove(r.PathValue("id")); err != nil {
		code := http.StatusNotFound
		if strings.Contains(err.Error(), "in use") {
			code = http.StatusConflict
		}
		writeErr(w, code, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleCreateJob submits a job. Cache hits come back already done (HTTP
// 200); fresh submissions are accepted asynchronously (HTTP 202).
func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	// A job request is a handful of scalars; cap the body so a hostile
	// client cannot make the decoder buffer arbitrary memory.
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	var req CreateJobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	j, err := s.mgr.Submit(req)
	// Submission errors classify strictly: client mistakes (validation
	// failures, a mode this deployment cannot serve, an unknown graph) are
	// 4xx, transient capacity is 503, and anything unrecognized is an
	// internal fault — 500, never blamed on the client.
	switch {
	case err == nil:
	case errors.Is(err, ErrUnknownGraph):
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	case errors.Is(err, ErrInvalidRequest), errors.Is(err, ErrNoCluster):
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShuttingDown):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// The status says how the job was taken, not how far it has got: a
	// worker may finish a fresh job before View reads it, and it is still a
	// 202. Only a cache hit is born done.
	v := j.View()
	if v.Cached {
		writeJSON(w, http.StatusOK, v)
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

// handleGetJob returns a job, optionally long-polling: ?wait=2s blocks until
// the job reaches a terminal state or the duration (capped at 30s) elapses,
// whichever comes first. Pollers get the job's current view either way.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			writeErr(w, http.StatusBadRequest, "invalid wait duration %q", waitStr)
			return
		}
		if d > 30*time.Second {
			d = 30 * time.Second
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-j.Done():
		case <-t.C:
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusAccepted, j.View())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	up := time.Since(s.start)
	writeJSON(w, http.StatusOK, StatsView{
		UptimeMS:      float64(up.Microseconds()) / 1000,
		UptimeSeconds: up.Seconds(),
		Workers:       s.mgr.Workers(),
		Graphs:        s.reg.Stats(),
		Jobs:          s.mgr.Stats(),
		Cache:         s.cache.Stats(),
	})
}

// handleHealth distinguishes a serving daemon ("ok") from one draining for
// shutdown ("draining", HTTP 503) so load balancers stop routing before the
// listener closes.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
