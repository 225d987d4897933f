// Package service is the long-running coreset daemon: it keeps graphs and
// their coresets resident so that the summaries the paper proves reusable
// (a randomized composable coreset is computed once and composed into many
// answers) are actually reused across queries instead of being recomputed
// per CLI invocation.
//
// The subsystem has four parts, each in its own file:
//
//   - Registry (registry.go): graphs ingested by upload (edge-list text) or
//     by generator spec, held under string IDs with ref-counting and LRU
//     eviction.
//   - Manager (jobs.go): an async job manager with a bounded worker pool;
//     coreset jobs (task, k, seed, mode) run off a bounded queue with
//     context cancellation and graceful drain. A job is one engine.Run
//     (internal/engine): the manager turns the request into an engine.Spec
//     and owns nothing of the runtime × rounds dispatch, so a job's report
//     is the report cmd/coreset -json prints for the same request.
//   - Cache (cache.go): composed run reports keyed by
//     (graph, task, k, seed, mode) with hit/miss counters, so repeated
//     queries are served from memory.
//   - Server (server.go): the stdlib HTTP/JSON API wiring the three
//     together — POST /v1/graphs, POST /v1/jobs, GET /v1/jobs/{id},
//     GET /v1/stats, plus /healthz.
//
// The server is also instrumented end to end (metrics.go): an internal/obs
// registry rendered at GET /metrics carries job latency histograms per
// task×mode, queue depth, in-flight jobs, cache hit/miss and registry
// add/eviction counters, and every cluster/rounds event (wire bytes, dial
// attempts, retries, replays) reported through the injected obs.Sink.
// `coreset serve` can additionally mount the same registry together with
// net/http/pprof on an opt-in admin listener (-admin), keeping profiling
// endpoints off the public API port. /healthz returns "ok" while serving and
// "draining" (HTTP 503) once shutdown begins.
//
// This file holds the wire types shared by the handlers, the CLI tools and
// the tests.
package service

import (
	"errors"
	"fmt"

	"repro/internal/edcs"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// Task names accepted by the job API. The authoritative list is the task
// registry (internal/task) — normalize admits exactly the registered names,
// so a new task is accepted the moment it registers, with no change here.
// The constants below name the built-in tasks for call sites and tests.
// TaskEDCS composes a matching from per-machine edge-degree constrained
// subgraphs (arXiv:1711.03076) instead of the SPAA'17 maximum-matching
// coresets.
const (
	TaskMatching = "matching"
	TaskVC       = "vc"
	TaskEDCS     = "edcs"
)

// Execution modes accepted by the job API: the engine's runtimes, under the
// names the API has always used. ModeCluster dispatches the job to the
// worker fleet the daemon was configured with (coreset serve -cluster); it is
// rejected when no fleet is configured.
const (
	ModeBatch   = engine.Batch
	ModeStream  = engine.Stream
	ModeCluster = engine.Cluster
)

// Hard sanity caps on request parameters: a single unauthenticated request
// must not be able to make the daemon allocate per-machine or per-vertex
// state without bound. Both are far above every workload in this repository.
const (
	// MaxJobK caps machines per job (k goroutines, channels and coreset
	// slices are allocated per machine).
	MaxJobK = 1 << 16
	// MaxGraphN caps vertices in a generator spec or upload (per-machine VC
	// state is O(n)).
	MaxGraphN = 1 << 28
	// MaxJobBatch caps the streaming batch size (the sharder allocates
	// O(k*batch) buffer space).
	MaxJobBatch = 1 << 20
	// MaxJobBeta caps the EDCS degree bound — the one cap (edcs.MaxBeta)
	// every surface shares, so a request the daemon admits can never be
	// rejected downstream by the cluster wire protocol.
	MaxJobBeta = edcs.MaxBeta
	// MaxJobRounds caps the multi-round cap, shared with the CLI and (well
	// under) the cluster wire protocol's own bound for the same reason.
	MaxJobRounds = task.MaxRounds
)

// GenSpec describes a synthetic graph by generator name and parameters. It
// is the one generator table: cmd/coreset builds its -gen inputs through it,
// so a spec submitted to the service names the same graph a CLI run would
// build: gnp is G(n, Deg/n), star is K_{1,n-1}, powerlaw is Chung-Lu with
// exponent 2 and weight cap n/16+1.
type GenSpec struct {
	Name string  `json:"name"`           // gnp | star | powerlaw
	N    int     `json:"n"`              // vertices
	Deg  float64 `json:"deg,omitempty"`  // average degree (gnp)
	Seed uint64  `json:"seed,omitempty"` // generator seed
}

// Validate checks the spec without sampling anything.
func (s *GenSpec) Validate() error {
	if s.N > MaxGraphN {
		return fmt.Errorf("service: n=%d exceeds the cap of %d vertices", s.N, MaxGraphN)
	}
	switch s.Name {
	case "gnp", "powerlaw":
		if s.N < 0 || s.Deg < 0 || (s.N > 0 && s.Deg > float64(s.N)) {
			return fmt.Errorf("service: invalid %s spec (n=%d deg=%g)", s.Name, s.N, s.Deg)
		}
	case "star":
		if s.N < 1 {
			return fmt.Errorf("service: invalid star spec (n=%d)", s.N)
		}
	default:
		return fmt.Errorf("service: unknown generator %q", s.Name)
	}
	return nil
}

// Iter mints a fresh edge iterator replaying the spec's draw sequence from
// its seed. Every call returns an independent iterator, so concurrent jobs
// can stream the same spec simultaneously.
func (s *GenSpec) Iter() (gen.EdgeIter, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Name {
	case "gnp":
		return gen.GNPIter(s.N, s.Deg/float64(s.N), rng.New(s.Seed)), nil
	case "star":
		return gen.StarIter(s.N), nil
	default: // powerlaw
		return gen.PowerlawIter(s.N, 2.0, s.N/16+1, rng.New(s.Seed)), nil
	}
}

// Source mints a fresh streaming edge source for the spec. The source is
// restartable — each pass replays the spec's draw sequence from its seed —
// so cluster jobs over generator graphs can replay a lost round.
func (s *GenSpec) Source() (stream.EdgeSource, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	spec := *s
	return stream.NewIterSource(s.N, func() gen.EdgeIter {
		it, _ := spec.Iter() // validated above; cannot fail
		return it
	}), nil
}

// CreateGraphRequest is the JSON body of POST /v1/graphs. Exactly one of
// Gen, EdgeList and Dataset must be set. ID is optional; Dataset
// registrations default it to the dataset's name, others get a registry-
// assigned one.
type CreateGraphRequest struct {
	ID       string   `json:"id,omitempty"`
	Gen      *GenSpec `json:"gen,omitempty"`
	EdgeList string   `json:"edgeList,omitempty"` // inline text edge list (cmd/coreset format)
	// Dataset names a dataset in the daemon's store (coreset serve -datasets);
	// the edges stay on disk and jobs stream them segment by segment.
	Dataset string `json:"dataset,omitempty"`
}

// GraphInfo describes a registered graph. M is -1 for generator-backed
// entries, whose edge count is not known until a job streams them.
type GraphInfo struct {
	ID     string   `json:"id"`
	Source string   `json:"source"` // "upload" | "gen" | "dataset"
	N      int      `json:"n"`
	M      int      `json:"m"`
	Bytes  int64    `json:"bytes"` // approximate resident size
	Refs   int      `json:"refs"`  // jobs currently using the graph
	Gen    *GenSpec `json:"gen,omitempty"`
	Hash   string   `json:"hash,omitempty"` // dataset content hash (source "dataset")
}

// CreateJobRequest is the JSON body of POST /v1/jobs.
type CreateJobRequest struct {
	Graph string `json:"graph"`           // registry ID
	Task  string `json:"task"`            // matching | vc | edcs
	K     int    `json:"k"`               // number of machines
	Seed  uint64 `json:"seed"`            // partitioning seed
	Mode  string `json:"mode,omitempty"`  // batch | stream (default stream)
	Batch int    `json:"batch,omitempty"` // streaming batch size (0 = default)
	Beta  int    `json:"beta,omitempty"`  // EDCS degree bound (task edcs; 0 = default)
	// Rounds engages the multi-round MPC driver for task edcs: iterate the
	// EDCS sketch for up to Rounds rounds (internal/rounds). 0 keeps the
	// single-round pipeline; Rounds = 1 runs the driver but reproduces the
	// single-round coresets exactly.
	Rounds int `json:"rounds,omitempty"`
}

// ErrInvalidRequest tags every job-submission validation failure, so the
// HTTP layer can map client mistakes to 4xx without string matching. Server
// faults stay untagged and surface as 5xx.
var ErrInvalidRequest = errors.New("service: invalid job request")

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalidRequest}, args...)...)
}

func (r *CreateJobRequest) normalize() error {
	if r.Mode == "" {
		r.Mode = ModeStream
	}
	d, ok := task.Get(r.Task)
	if !ok {
		return badRequestf("unknown task %q", r.Task)
	}
	if err := task.ValidateParams(r.Task, r.Beta, r.Rounds); err != nil {
		return badRequestf("%s", err)
	}
	if d.UsesBeta && r.Beta == 0 {
		// Pin the default so cache keys are canonical; ParamsForBeta clamps
		// any bound >= 2 into a valid pair, so ValidateParams' range
		// check was the whole validation.
		r.Beta = edcs.DefaultBeta
	}
	if r.Mode != ModeBatch && r.Mode != ModeStream && r.Mode != ModeCluster {
		return badRequestf("unknown mode %q", r.Mode)
	}
	if r.K <= 0 || r.K > MaxJobK {
		return badRequestf("k must be in [1, %d] (got %d)", MaxJobK, r.K)
	}
	if r.Batch < 0 || r.Batch > MaxJobBatch {
		return badRequestf("batch must be in [0, %d] (got %d)", MaxJobBatch, r.Batch)
	}
	return nil
}

// JobView is the API representation of a job, returned by POST /v1/jobs and
// GET /v1/jobs/{id}. Result is set once State is "done".
type JobView struct {
	ID      string           `json:"id"`
	State   string           `json:"state"` // queued | running | done | failed | canceled
	Cached  bool             `json:"cached,omitempty"`
	Error   string           `json:"error,omitempty"`
	Request CreateJobRequest `json:"request"`
	Result  *graph.RunReport `json:"result,omitempty"`
}

// StatsView is the JSON body of GET /v1/stats — a point-in-time JSON mirror
// of the counters GET /metrics exposes in Prometheus form. UptimeSeconds
// duplicates UptimeMS in the unit monitoring tooling expects; UptimeMS stays
// for existing consumers.
type StatsView struct {
	UptimeMS      float64       `json:"uptimeMs"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	Workers       int           `json:"workers"`
	Graphs        RegistryStats `json:"graphs"`
	Jobs          JobStats      `json:"jobs"`
	Cache         CacheStats    `json:"cache"`
}

// RegistryStats summarizes the graph registry.
type RegistryStats struct {
	Count     int   `json:"count"`
	Bytes     int64 `json:"bytes"`
	Adds      int64 `json:"adds"`
	Evictions int64 `json:"evictions"`
}

// JobStats counts jobs by state plus queue occupancy.
//
// Retention-window caveat: Done, Failed, Canceled and Submitted are
// monotonic lifetime totals that survive retention pruning (they are the
// numbers behind the service_jobs_*_total counters in /metrics), but Queued
// and Running are scanned from the *retained* job set — after the retention
// window prunes a terminal job it no longer appears anywhere except the
// lifetime totals, so Done+Failed+Canceled will exceed the number of jobs
// still pollable via GET /v1/jobs/{id}.
type JobStats struct {
	Submitted int64 `json:"submitted"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Done      int   `json:"done"`
	Failed    int   `json:"failed"`
	Canceled  int   `json:"canceled"`
	QueueLen  int   `json:"queueLen"`
	// ByTask counts submissions per task name (lifetime, cache hits
	// included). Every registered task appears from startup with a zero
	// count — the keys come from the task registry, so a newly registered
	// task shows up here and in the service_jobs_total metric without any
	// service change.
	ByTask map[string]int64 `json:"byTask"`
}

// CacheStats reports result-cache effectiveness.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}
