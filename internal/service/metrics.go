package service

import (
	"time"

	"repro/internal/obs"
	"repro/internal/task"
)

// Metric names the service exposes at GET /metrics. Everything here is
// rendered from the same structures /v1/stats reads — the counters are the
// monotonic lifetime totals (they survive job-retention pruning), the gauges
// are instantaneous reads of queue and registry state.
const (
	MetricJobDuration   = "service_job_duration_seconds"
	MetricJobsTotal     = "service_jobs_total"
	MetricJobsInflight  = "service_jobs_inflight"
	MetricQueueDepth    = "service_queue_depth"
	MetricJobsSubmitted = "service_jobs_submitted_total"
	MetricJobsDone      = "service_jobs_done_total"
	MetricJobsFailed    = "service_jobs_failed_total"
	MetricJobsCanceled  = "service_jobs_canceled_total"
	MetricCacheHits     = "service_cache_hits_total"
	MetricCacheMisses   = "service_cache_misses_total"
	MetricCacheEntries  = "service_cache_entries"
	MetricGraphs        = "service_graphs_resident"
	MetricGraphBytes    = "service_graph_bytes"
	MetricGraphAdds     = "service_graph_adds_total"
	MetricGraphEvicted  = "service_graph_evictions_total"
	MetricUptime        = "service_uptime_seconds"
)

// Instruments bundles the collectors the job pipeline writes to directly and
// the registry the cluster and rounds layers register their own families on.
// A nil *Instruments is valid and silent, so Manager never nil-checks it
// mid-loop.
type Instruments struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	jobDur    *obs.HistogramVec // label values: task, mode
	jobsTotal *obs.CounterVec   // label values: task
	inflight  *obs.Gauge
}

// newInstruments creates the write-side collectors; the function-backed
// metrics over existing stats structures are registered later by
// registerStatFuncs, once the structures exist.
func newInstruments(reg *obs.Registry, tracer *obs.Tracer) *Instruments {
	ins := &Instruments{
		reg:    reg,
		tracer: tracer,
		jobDur: reg.HistogramVec(MetricJobDuration,
			"Wall-clock seconds per executed job (cache hits never reach the pipeline).",
			nil, "task", "mode"),
		jobsTotal: reg.CounterVec(MetricJobsTotal,
			"Jobs accepted per task (lifetime, cache hits included).", "task"),
		inflight: reg.Gauge(MetricJobsInflight, "Jobs currently executing on the worker pool."),
	}
	// Pre-touch one child per registered task so every task renders a
	// zero-valued series from the first scrape. The label values come from
	// the task registry — registering a new task is the only step needed
	// for it to appear here.
	for _, name := range task.Names() {
		ins.jobsTotal.With(name).Add(0)
	}
	return ins
}

// observeJob records one executed job's latency.
func (ins *Instruments) observeJob(task, mode string, d time.Duration) {
	if ins != nil {
		ins.jobDur.With(task, mode).Observe(d.Seconds())
	}
}

// noteJob counts one accepted job against its task's series.
func (ins *Instruments) noteJob(task string) {
	if ins != nil {
		ins.jobsTotal.With(task).Inc()
	}
}

func (ins *Instruments) jobStarted() {
	if ins != nil {
		ins.inflight.Inc()
	}
}

func (ins *Instruments) jobFinished() {
	if ins != nil {
		ins.inflight.Dec()
	}
}

// registry returns the registry the cluster and rounds runtimes write to
// (nil when instrumentation is off — library code stays silent).
func (ins *Instruments) registry() *obs.Registry {
	if ins == nil {
		return nil
	}
	return ins.reg
}

func (ins *Instruments) trace() *obs.Tracer {
	if ins == nil {
		return nil
	}
	return ins.tracer
}

// registerStatFuncs exposes the server's existing stats structures as
// function-backed metrics, read at scrape time. The cache hit/miss and
// lifetime job counters are genuinely monotonic (Cache never resets its
// counters; Manager's terminal totals survive retention pruning), which is
// what lets them carry the _total contract here while /v1/stats keeps
// serving the same numbers as point-in-time JSON.
func (s *Server) registerStatFuncs() {
	reg := s.metrics
	reg.GaugeFunc(MetricUptime, "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc(MetricQueueDepth, "Jobs waiting in the bounded submission queue.",
		func() float64 { return float64(len(s.mgr.queue)) })

	reg.CounterFunc(MetricJobsSubmitted, "Jobs accepted by POST /v1/jobs (including cache hits).",
		func() float64 { s, _, _, _ := s.mgr.lifetime(); return float64(s) })
	reg.CounterFunc(MetricJobsDone, "Jobs finished successfully (lifetime).",
		func() float64 { _, d, _, _ := s.mgr.lifetime(); return float64(d) })
	reg.CounterFunc(MetricJobsFailed, "Jobs finished in error (lifetime).",
		func() float64 { _, _, f, _ := s.mgr.lifetime(); return float64(f) })
	reg.CounterFunc(MetricJobsCanceled, "Jobs canceled before completion (lifetime).",
		func() float64 { _, _, _, c := s.mgr.lifetime(); return float64(c) })

	reg.CounterFunc(MetricCacheHits, "Result-cache hits (lifetime).",
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc(MetricCacheMisses, "Result-cache misses (lifetime).",
		func() float64 { return float64(s.cache.Stats().Misses) })
	reg.GaugeFunc(MetricCacheEntries, "Reports currently resident in the result cache.",
		func() float64 { return float64(s.cache.Stats().Entries) })

	reg.GaugeFunc(MetricGraphs, "Graphs currently resident in the registry.",
		func() float64 { return float64(s.reg.Stats().Count) })
	reg.GaugeFunc(MetricGraphBytes, "Approximate bytes of resident graph data.",
		func() float64 { return float64(s.reg.Stats().Bytes) })
	reg.CounterFunc(MetricGraphAdds, "Graphs ever registered (lifetime).",
		func() float64 { return float64(s.reg.Stats().Adds) })
	reg.CounterFunc(MetricGraphEvicted, "Idle graphs evicted beyond the resident cap (lifetime).",
		func() float64 { return float64(s.reg.Stats().Evictions) })
}
