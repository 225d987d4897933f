package main

// `coreset load` is the load generator for coreset deployments. Its
// default target is a `coreset serve` service: it registers a graph, fires a
// stream of jobs from concurrent clients, long-polls each to completion and
// reports client-side latency percentiles plus the server's cache counters.
// Cycling a small seed set (-seeds) makes repeated keys hit the result
// cache, so the tool doubles as a demonstration that cached queries are
// orders of magnitude cheaper than cold ones.
//
// With -target cluster it instead drives a coordinator+workers deployment
// directly: each job is a full cluster run (shard over TCP to the
// `coreset worker` fleet named by -cluster, compose the returned coresets),
// and the same workload is replayed through the in-process streaming
// runtime, so the end-to-end cluster latency percentiles print next to the
// in-process numbers they should be judged against.
//
// Task edcs works against both targets, and -rounds N makes every job a
// multi-round MPC run (internal/rounds): against the service the round cap
// rides in the job request (and its cache key), against a cluster each job
// holds one multi-round session over the fleet.
//
// With -scrape URL[,URL...] the tool snapshots each URL's GET /metrics
// before and after the run and prints the counter deltas attributable to the
// workload next to the latency percentiles. The URLs are explicit so one run
// can watch every metrics surface a deployment exposes side by side: the
// service (-addr base; submitted/done totals, cache traffic, wire byte
// counters) and each worker's -admin listener (per-worker frame, byte and
// phase counters), against either target.
//
// With -dataset NAME the service workload runs against a stored dataset from
// the service's -datasets store instead of a generator spec — jobs stream the
// graph off the service's disk, and repeats are served from the hash-keyed
// result cache. Adding -mix registers both the dataset and the -gen spec and
// alternates jobs between them, reporting per-kind latency percentiles next
// to the combined line, so disk-backed and generator-backed job costs can be
// compared in one run.
//
//	coreset load -addr http://127.0.0.1:8440 -gen gnp -n 20000 -deg 8 \
//	             -task matching -k 4 -jobs 32 -c 4 -seeds 4
//	coreset load -addr http://127.0.0.1:8440 -dataset web -mix -gen gnp \
//	             -n 20000 -deg 8 -task matching -jobs 32 -c 4
//	coreset load -target cluster -cluster 127.0.0.1:9601,127.0.0.1:9602 \
//	             -gen gnp -n 20000 -deg 8 -task matching -jobs 16 -c 2

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/task"
)

// workload is the shape of a load run, whatever its target.
type workload struct {
	jobs, conc, seeds, warmup int
	timeout                   time.Duration
}

// runLoad is the load subcommand.
func runLoad(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coreset load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8440", "service base URL (-target service)")
		target   = fs.String("target", "service", "what to load: service (coreset serve over HTTP) | cluster (coordinator+workers)")
		clusterW = fs.String("cluster", "", "comma-separated `coreset worker` addresses (-target cluster)")
		retries  = fs.Int("max-retries", cluster.DefaultMaxRetries, "per-machine, per-round replay budget after a worker failure (-target cluster; 0 = fail fast)")
		genName  = fs.String("gen", "gnp", "graph generator: gnp | star | powerlaw")
		dsName   = fs.String("dataset", "", "dataset name in the service's store (serve -datasets); replaces -gen for -target service")
		mix      = fs.Bool("mix", false, "with -dataset: alternate dataset-backed and gen-backed jobs and report per-kind latency percentiles")
		n        = fs.Int("n", 20000, "vertices")
		deg      = fs.Float64("deg", 8, "average degree (gnp)")
		gseed    = fs.Uint64("graphseed", 1, "generator seed")
		taskName = fs.String("task", "matching", "job task: "+strings.Join(task.Names(), " | "))
		beta     = fs.Int("beta", 0, "EDCS degree bound (task edcs; 0 = default)")
		rounds   = fs.Int("rounds", 0, "multi-round MPC round cap (task edcs; 0 = single round)")
		k        = fs.Int("k", 4, "machines per job (-target service; cluster uses the fleet size)")
		mode     = fs.String("mode", "stream", "job mode: stream | batch (-target service)")
		jobs     = fs.Int("jobs", 32, "total jobs to run")
		conc     = fs.Int("c", 4, "concurrent clients")
		seeds    = fs.Int("seeds", 4, "distinct job seeds to cycle (repeats hit the service cache)")
		warmup   = fs.Int("warmup", -1, "jobs excluded from latency percentiles as warmup (-1 = auto: one wave of clients for -target cluster, 0 for service)")
		timeout  = fs.Duration("timeout", 5*time.Minute, "per-job completion timeout")
		scrape   = fs.String("scrape", "", "comma-separated base URLs to snapshot GET /metrics around the run (serve -addr, worker -admin); deltas print per URL")
	)
	if code, ok := parseFlags(fs, args, ""); !ok {
		return code
	}
	if *jobs <= 0 || *conc <= 0 || *seeds <= 0 {
		fmt.Fprintln(stderr, "coreset load: -jobs, -c and -seeds must be > 0")
		return 2
	}
	// Fail fast on -beta/-rounds with the one shared validator the run
	// subcommand and the service's job API also use — silently benchmarking
	// something other than what the flags claim would mislabel every latency
	// percentile this tool prints.
	if err := task.ValidateParams(*taskName, *beta, *rounds); err != nil {
		fmt.Fprintln(stderr, "coreset load:", err)
		return 2
	}
	scrapers, err := newScrapeSet(*scrape)
	if err != nil {
		fmt.Fprintln(stderr, "coreset load:", err)
		return 2
	}
	if *mix && *dsName == "" {
		fmt.Fprintln(stderr, "coreset load: -mix requires -dataset (it alternates dataset-backed and gen-backed jobs)")
		return 2
	}
	if *target != "service" && *target != "cluster" {
		fmt.Fprintf(stderr, "coreset load: unknown target %q\n", *target)
		return 2
	}
	if err := checkMaxRetries(fs, *retries, *target == "cluster", "-target cluster"); err != nil {
		fmt.Fprintln(stderr, "coreset load:", err)
		return 2
	}
	wl := workload{jobs: *jobs, conc: *conc, seeds: *seeds, warmup: *warmup, timeout: *timeout}
	if *target == "cluster" {
		if *dsName != "" {
			fmt.Fprintln(stderr, "coreset load: -dataset requires -target service (the store lives with the service)")
			return 2
		}
		if *clusterW == "" {
			fmt.Fprintln(stderr, "coreset load: -target cluster needs -cluster host:port,...")
			return 2
		}
		addrs, err := cluster.ParseWorkerList(*clusterW)
		if err != nil {
			fmt.Fprintln(stderr, "coreset load:", err)
			return 2
		}
		// Membership comes from the task registry — the same list the -task
		// usage string advertises.
		if _, ok := task.Get(*taskName); !ok {
			fmt.Fprintf(stderr, "coreset load: unknown task %q (known tasks: %s)\n", *taskName, strings.Join(task.Names(), ", "))
			return 2
		}
		input := &service.GenSpec{Name: *genName, N: *n, Deg: *deg, Seed: *gseed}
		if err := input.Validate(); err != nil {
			fmt.Fprintln(stderr, "coreset load:", err)
			return 1
		}
		// Cluster cold-start (dials, worker first-touch) lands on the first
		// wave of jobs; exclude one wave per client unless told otherwise.
		if wl.warmup < 0 {
			wl.warmup = wl.conc
		}
		spec := engine.Spec{
			Task: *taskName, Beta: *beta, Rounds: *rounds, K: len(addrs),
			Cluster: cluster.Config{Workers: addrs, MaxRetries: *retries},
		}
		return runClusterTarget(spec, input, wl, scrapers, stdout, stderr)
	}
	if wl.warmup < 0 {
		wl.warmup = 0 // service cold-vs-hit asymmetry is the point; keep all samples by default
	}

	lg := &loadgen{base: *addr, client: &http.Client{Timeout: 2 * time.Minute}}

	// The workload's graphs, one per kind. Plain runs use a single kind (the
	// generator spec, or the stored dataset with -dataset); -mix registers
	// both and alternates jobs across them so dataset-backed and gen-backed
	// latency distributions print side by side.
	var graphIDs, kinds []string
	if *dsName != "" {
		var info service.GraphInfo
		if err := lg.postJSON("/v1/graphs", service.CreateGraphRequest{Dataset: *dsName}, &info); err != nil {
			fmt.Fprintln(stderr, "coreset load: registering dataset:", err)
			return 1
		}
		fmt.Fprintf(stdout, "graph %s: dataset %s n=%d m=%d\n", info.ID, *dsName, info.N, info.M)
		graphIDs, kinds = append(graphIDs, info.ID), append(kinds, "dataset")
	}
	if *dsName == "" || *mix {
		var info service.GraphInfo
		req := service.CreateGraphRequest{Gen: &service.GenSpec{Name: *genName, N: *n, Deg: *deg, Seed: *gseed}}
		if err := lg.postJSON("/v1/graphs", req, &info); err != nil {
			fmt.Fprintln(stderr, "coreset load: registering graph:", err)
			return 1
		}
		fmt.Fprintf(stdout, "graph %s: %s n=%d m=%d\n", info.ID, *genName, info.N, info.M)
		graphIDs, kinds = append(graphIDs, info.ID), append(kinds, "gen")
	}

	before, err := scrapers.snapshot()
	if err != nil {
		fmt.Fprintln(stderr, "coreset load: scraping /metrics:", err)
		return 1
	}
	done, failures, wall := fire(wl, "", stderr, func(i int) error {
		return lg.runJob(service.CreateJobRequest{
			Graph: graphIDs[i%len(graphIDs)], Task: *taskName, K: *k,
			Seed: uint64(i % wl.seeds), Mode: *mode,
			Beta: *beta, Rounds: *rounds,
		}, wl.timeout)
	})
	var latencies []time.Duration
	perKind := make(map[string][]time.Duration)
	for _, j := range done {
		kind := kinds[j.i%len(kinds)]
		latencies = append(latencies, j.d)
		perKind[kind] = append(perKind[kind], j.d)
	}

	sum, ok := summarize(latencies, wl.warmup)
	if !ok {
		fmt.Fprintln(stderr, "coreset load: no job succeeded")
		return 1
	}
	fmt.Fprintf(stdout, "%d jobs in %.2fs (%.1f jobs/sec), %d failed, %d excluded as warmup\n",
		len(latencies), wall.Seconds(), float64(len(latencies))/wall.Seconds(), failures, sum.Excluded)
	fmt.Fprintf(stdout, "latency: p50 %s  p90 %s  p99 %s  max %s\n",
		sum.P50.Round(time.Microsecond), sum.P90.Round(time.Microsecond),
		sum.P99.Round(time.Microsecond), sum.Max.Round(time.Microsecond))
	if len(kinds) > 1 {
		// -mix: one percentile line per graph kind, over that kind's own
		// samples (the shared warmup count applies to each series).
		for _, kind := range kinds {
			ks, ok := summarize(perKind[kind], wl.warmup)
			if !ok {
				fmt.Fprintf(stdout, "%-8s no successful jobs\n", kind+":")
				continue
			}
			fmt.Fprintf(stdout, "%-8s %d jobs; latency p50 %s  p90 %s  p99 %s  max %s\n",
				kind+":", len(perKind[kind]),
				ks.P50.Round(time.Microsecond), ks.P90.Round(time.Microsecond),
				ks.P99.Round(time.Microsecond), ks.Max.Round(time.Microsecond))
		}
	}

	var st service.StatsView
	if err := lg.getJSON("/v1/stats", &st); err != nil {
		fmt.Fprintln(stderr, "coreset load: stats:", err)
		return 1
	}
	fmt.Fprintf(stdout, "server: %d done / %d failed / %d canceled; cache %d hits / %d misses\n",
		st.Jobs.Done, st.Jobs.Failed, st.Jobs.Canceled, st.Cache.Hits, st.Cache.Misses)
	after, err := scrapers.snapshot()
	if err != nil {
		fmt.Fprintln(stderr, "coreset load: scraping /metrics:", err)
		return 1
	}
	scrapers.printDeltas(stdout, before, after)
	if failures > 0 {
		return 1
	}
	return 0
}

// timedJob is one successful job: its index and its latency.
type timedJob struct {
	i int
	d time.Duration
}

// fire runs wl.jobs jobs across wl.conc concurrent clients. do runs job i;
// a failure is logged under label. It returns the successes in completion
// order, the failure count and the wall time.
func fire(wl workload, label string, stderr io.Writer, do func(i int) error) (done []timedJob, failures int, wall time.Duration) {
	var mu sync.Mutex
	start := time.Now()
	next := make(chan int)
	go func() {
		for i := 0; i < wl.jobs; i++ {
			next <- i
		}
		close(next)
	}()
	var wg sync.WaitGroup
	for c := 0; c < wl.conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				err := do(i)
				d := time.Since(t0)
				mu.Lock()
				if err != nil {
					failures++
					fmt.Fprintf(stderr, "coreset load: %sjob %d: %v\n", label, i, err)
				} else {
					done = append(done, timedJob{i, d})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return done, failures, time.Since(start)
}

// scrapeSet is the set of /metrics surfaces -scrape snapshots around a run:
// each URL is a base (a service -addr or a worker -admin listener) whose
// GET /metrics is fetched before and after the workload. A nil set — the
// flag unset — costs nothing.
type scrapeSet struct {
	urls   []string
	client *http.Client
}

func newScrapeSet(spec string) (*scrapeSet, error) {
	if spec == "" {
		return nil, nil
	}
	var urls []string
	for _, u := range strings.Split(spec, ",") {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, errors.New("-scrape: empty URL in list")
		}
		urls = append(urls, u)
	}
	return &scrapeSet{urls: urls, client: &http.Client{Timeout: 30 * time.Second}}, nil
}

// snapshot fetches and parses every surface's exposition, keyed by base URL.
func (s *scrapeSet) snapshot() (map[string]map[string]float64, error) {
	if s == nil {
		return nil, nil
	}
	out := make(map[string]map[string]float64, len(s.urls))
	for _, u := range s.urls {
		m, err := s.scrapeOne(u)
		if err != nil {
			return nil, err
		}
		out[u] = m
	}
	return out, nil
}

func (s *scrapeSet) scrapeOne(base string) (map[string]float64, error) {
	resp, err := s.client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: HTTP %d", base, resp.StatusCode)
	}
	return obs.ParseText(resp.Body)
}

// printDeltas prints each surface's moved counters under its own header, so
// per-worker frame/byte deltas line up next to the service's job totals.
func (s *scrapeSet) printDeltas(w io.Writer, before, after map[string]map[string]float64) {
	if s == nil {
		return
	}
	for _, u := range s.urls {
		fmt.Fprintf(w, "metrics delta over the run (%s):\n", u)
		printMetricDeltas(w, before[u], after[u])
	}
}

// printMetricDeltas prints every counter that moved during the run, so the
// server-side accounting (job totals, cache traffic, histogram sample counts,
// cluster wire bytes) lines up next to the client-side latency percentiles.
// Gauges and idle counters are suppressed: a delta of zero says nothing about
// this workload. So are histogram buckets: _count/_sum carry the story.
func printMetricDeltas(w io.Writer, before, after map[string]float64) {
	names := make([]string, 0, len(after))
	for name := range after {
		base := metricBase(name)
		counter := strings.Contains(name, "_total") || strings.HasSuffix(base, "_count") || strings.HasSuffix(base, "_sum")
		if counter && !strings.Contains(name, "_bucket") && after[name] != before[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-60s +%g\n", name, after[name]-before[name])
	}
	if len(names) == 0 {
		fmt.Fprintln(w, "  (no counters moved)")
	}
}

// metricBase strips a label set from a sample name: "m_count{a=\"b\"}" → "m_count".
func metricBase(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// runClusterTarget drives a coordinator+workers deployment directly: every
// job is one full cluster run of spec against the fleet, then the identical
// workload replays through the in-process streaming runtime so the two
// latency distributions print side by side. Concurrent clients exercise the
// workers' many-runs-at-once path.
func runClusterTarget(spec engine.Spec, input *service.GenSpec, wl workload, scrapers *scrapeSet, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "cluster: %d workers, %s n=%d, task %s, %d jobs x %d clients\n",
		spec.K, input.Name, input.N, spec.Task, wl.jobs, wl.conc)

	before, err := scrapers.snapshot()
	if err != nil {
		fmt.Fprintln(stderr, "coreset load: scraping /metrics:", err)
		return 1
	}

	// Both waves are the same engine.Spec, the runtime aside: what differs
	// between the two latency lines is where the machines live, nothing else.
	fireWave := func(label, runtime string) (latencies []time.Duration, failures int, retries int64, wall time.Duration) {
		var replays atomic.Int64
		done, failures, wall := fire(wl, label+" ", stderr, func(i int) error {
			src, err := input.Source()
			if err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(context.Background(), wl.timeout)
			defer cancel()
			sp := spec
			sp.Runtime, sp.Seed = runtime, uint64(i%wl.seeds)
			rep, err := engine.Run(ctx, sp, src)
			if err == nil {
				replays.Add(int64(rep.Retries))
			}
			return err
		})
		for _, j := range done {
			latencies = append(latencies, j.d)
		}
		return latencies, failures, replays.Load(), wall
	}
	report := func(label string, latencies []time.Duration, failures int, retries int64, wall time.Duration) bool {
		sum, ok := summarize(latencies, wl.warmup)
		if !ok {
			fmt.Fprintf(stderr, "coreset load: no %s job succeeded\n", label)
			return false
		}
		fmt.Fprintf(stdout, "%-10s %d jobs in %.2fs (%.1f jobs/sec), %d failed, %d warmup; latency p50 %s  p90 %s  p99 %s  max %s\n",
			label+":", len(latencies), wall.Seconds(), float64(len(latencies))/wall.Seconds(), failures, sum.Excluded,
			sum.P50.Round(time.Microsecond), sum.P90.Round(time.Microsecond),
			sum.P99.Round(time.Microsecond), sum.Max.Round(time.Microsecond))
		if retries > 0 {
			fmt.Fprintf(stdout, "%-10s %d worker-failure replay attempts absorbed across jobs\n", label+":", retries)
		}
		return failures == 0
	}

	cl, cf, cr, cw := fireWave("cluster", engine.Cluster)
	// Snapshot before the in-process replay: only the cluster wave touches
	// the workers, so the window should close with it.
	after, err := scrapers.snapshot()
	if err != nil {
		fmt.Fprintln(stderr, "coreset load: scraping /metrics:", err)
		return 1
	}
	sl, sf, sr, sw := fireWave("in-process", engine.Stream)
	okC := report("cluster", cl, cf, cr, cw)
	okS := report("in-process", sl, sf, sr, sw)
	scrapers.printDeltas(stdout, before, after)
	if !okC || !okS {
		return 1
	}
	return 0
}

type loadgen struct {
	base   string
	client *http.Client
}

func (l *loadgen) postJSON(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := l.client.Post(l.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	return decode(resp, out)
}

func (l *loadgen) getJSON(path string, out any) error {
	resp, err := l.client.Get(l.base + path)
	if err != nil {
		return err
	}
	return decode(resp, out)
}

func decode(resp *http.Response, out any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// runJob submits one job and long-polls it to a terminal state.
func (l *loadgen) runJob(req service.CreateJobRequest, timeout time.Duration) error {
	var v service.JobView
	if err := l.postJSON("/v1/jobs", req, &v); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for v.State == string(service.JobQueued) || v.State == string(service.JobRunning) {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s: timed out in state %s", v.ID, v.State)
		}
		if err := l.getJSON("/v1/jobs/"+v.ID+"?wait=2s", &v); err != nil {
			return err
		}
	}
	if v.State != string(service.JobDone) {
		return fmt.Errorf("job %s: state %s (%s)", v.ID, v.State, v.Error)
	}
	return nil
}
