// Command coresetload is the load generator for coreset deployments. Its
// default target is a coresetd daemon: it registers a graph, fires a stream
// of jobs from concurrent clients, long-polls each to completion and reports
// client-side latency percentiles plus the server's cache counters. Cycling
// a small seed set (-seeds) makes repeated keys hit the result cache, so the
// tool doubles as a demonstration that cached queries are orders of
// magnitude cheaper than cold ones.
//
// With -target cluster it instead drives a coordinator+workers deployment
// directly: each job is a full cluster run (shard over TCP to the
// coresetworker fleet named by -cluster, compose the returned coresets),
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
// coresetd daemon (-addr base; submitted/done totals, cache traffic, wire
// byte counters) and each coresetworker's -admin listener (per-worker frame,
// byte and phase counters), against either target.
//
// With -dataset NAME the service workload runs against a stored dataset from
// the daemon's -datasets store instead of a generator spec — jobs stream the
// graph off the daemon's disk, and repeats are served from the hash-keyed
// result cache. Adding -mix registers both the dataset and the -gen spec and
// alternates jobs between them, reporting per-kind latency percentiles next
// to the combined line, so disk-backed and generator-backed job costs can be
// compared in one run.
//
// Usage:
//
//	coresetload -addr http://127.0.0.1:8440 -gen gnp -n 20000 -deg 8 \
//	            -task matching -k 4 -jobs 32 -c 4 -seeds 4
//	coresetload -addr http://127.0.0.1:8440 -dataset web -mix -gen gnp \
//	            -n 20000 -deg 8 -task matching -jobs 32 -c 4
//	coresetload -target cluster -cluster 127.0.0.1:9601,127.0.0.1:9602 \
//	            -gen gnp -n 20000 -deg 8 -task matching -jobs 16 -c 2
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/task"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coresetload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8440", "coresetd base URL (-target service)")
		target   = fs.String("target", "service", "what to load: service (coresetd HTTP) | cluster (coordinator+workers)")
		clusterW = fs.String("cluster", "", "comma-separated coresetworker addresses (-target cluster)")
		retries  = fs.Int("max-retries", -1, "per-machine, per-round replay budget after a worker failure (-target cluster; -1 = default, 0 = fail fast)")
		genName  = fs.String("gen", "gnp", "graph generator: gnp | star | powerlaw")
		dsName   = fs.String("dataset", "", "dataset name in the daemon's store (coresetd -datasets); replaces -gen for -target service")
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
		scrape   = fs.String("scrape", "", "comma-separated base URLs to snapshot GET /metrics around the run (coresetd -addr, coresetworker -admin); deltas print per URL")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *jobs <= 0 || *conc <= 0 || *seeds <= 0 {
		fmt.Fprintln(stderr, "coresetload: -jobs, -c and -seeds must be > 0")
		return 2
	}
	// Fail fast on -beta/-rounds with the one shared validator cmd/coreset
	// and coresetd's job API also use — silently benchmarking something
	// other than what the flags claim would mislabel every latency
	// percentile this tool prints.
	if err := task.ValidateParams(*taskName, *beta, *rounds); err != nil {
		fmt.Fprintln(stderr, "coresetload:", err)
		return 2
	}
	scrapers, err := newScrapeSet(*scrape)
	if err != nil {
		fmt.Fprintln(stderr, "coresetload:", err)
		return 2
	}
	if *mix && *dsName == "" {
		fmt.Fprintln(stderr, "coresetload: -mix requires -dataset (it alternates dataset-backed and gen-backed jobs)")
		return 2
	}
	if *target == "cluster" {
		if *dsName != "" {
			fmt.Fprintln(stderr, "coresetload: -dataset requires -target service (the store lives with coresetd)")
			return 2
		}
		// Cluster cold-start (dials, worker first-touch) lands on the first
		// wave of jobs; exclude one wave per client unless told otherwise.
		w := *warmup
		if w < 0 {
			w = *conc
		}
		return runClusterTarget(*clusterW, *genName, *n, *deg, *gseed, *taskName, *beta, *rounds, *jobs, *conc, *seeds, w, *retries, *timeout, scrapers, stdout, stderr)
	}
	if *target != "service" {
		fmt.Fprintf(stderr, "coresetload: unknown target %q\n", *target)
		return 2
	}
	if *retries >= 0 {
		fmt.Fprintln(stderr, "coresetload: -max-retries requires -target cluster (replay only exists in the cluster runtime)")
		return 2
	}
	if *warmup < 0 {
		*warmup = 0 // service cold-vs-hit asymmetry is the point; keep all samples by default
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
			fmt.Fprintln(stderr, "coresetload: registering dataset:", err)
			return 1
		}
		fmt.Fprintf(stdout, "graph %s: dataset %s n=%d m=%d\n", info.ID, *dsName, info.N, info.M)
		graphIDs, kinds = append(graphIDs, info.ID), append(kinds, "dataset")
	}
	if *dsName == "" || *mix {
		var info service.GraphInfo
		req := service.CreateGraphRequest{Gen: &service.GenSpec{Name: *genName, N: *n, Deg: *deg, Seed: *gseed}}
		if err := lg.postJSON("/v1/graphs", req, &info); err != nil {
			fmt.Fprintln(stderr, "coresetload: registering graph:", err)
			return 1
		}
		fmt.Fprintf(stdout, "graph %s: %s n=%d\n", info.ID, *genName, info.N)
		graphIDs, kinds = append(graphIDs, info.ID), append(kinds, "gen")
	}

	before, err := scrapers.snapshot()
	if err != nil {
		fmt.Fprintln(stderr, "coresetload: scraping /metrics:", err)
		return 1
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		perKind   = make(map[string][]time.Duration)
		failures  int
	)
	start := time.Now()
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < *jobs; i++ {
			next <- i
		}
		close(next)
	}()
	for c := 0; c < *conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				kindIdx := i % len(graphIDs)
				jr := service.CreateJobRequest{
					Graph: graphIDs[kindIdx], Task: *taskName, K: *k,
					Seed: uint64(i % *seeds), Mode: *mode,
					Beta: *beta, Rounds: *rounds,
				}
				t0 := time.Now()
				err := lg.runJob(jr, *timeout)
				d := time.Since(t0)
				mu.Lock()
				if err != nil {
					failures++
					fmt.Fprintf(stderr, "coresetload: job %d: %v\n", i, err)
				} else {
					latencies = append(latencies, d)
					perKind[kinds[kindIdx]] = append(perKind[kinds[kindIdx]], d)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	sum, ok := summarize(latencies, *warmup)
	if !ok {
		fmt.Fprintln(stderr, "coresetload: no job succeeded")
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
			ks, ok := summarize(perKind[kind], *warmup)
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
		fmt.Fprintln(stderr, "coresetload: stats:", err)
		return 1
	}
	fmt.Fprintf(stdout, "server: %d done / %d failed / %d canceled; cache %d hits / %d misses\n",
		st.Jobs.Done, st.Jobs.Failed, st.Jobs.Canceled, st.Cache.Hits, st.Cache.Misses)
	after, err := scrapers.snapshot()
	if err != nil {
		fmt.Fprintln(stderr, "coresetload: scraping /metrics:", err)
		return 1
	}
	scrapers.printDeltas(stdout, before, after)
	if failures > 0 {
		return 1
	}
	return 0
}

// scrapeSet is the set of /metrics surfaces -scrape snapshots around a run:
// each URL is a base (a coresetd -addr or a coresetworker -admin listener)
// whose GET /metrics is fetched before and after the workload. A nil set —
// the flag unset — costs nothing.
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
// this workload.
func printMetricDeltas(w io.Writer, before, after map[string]float64) {
	names := make([]string, 0, len(after))
	for name := range after {
		if !strings.Contains(name, "_total") && !strings.HasSuffix(metricBase(name), "_count") && !strings.HasSuffix(metricBase(name), "_sum") && !strings.Contains(name, "_bucket") {
			continue // gauges: point-in-time values, deltas are noise
		}
		if strings.Contains(name, "_bucket") {
			continue // bucket-level deltas overwhelm the summary; _count/_sum carry the story
		}
		if after[name]-before[name] != 0 {
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
// job is one full cluster run against the fleet, then the identical workload
// replays through the in-process streaming runtime so the two latency
// distributions print side by side. Concurrent clients exercise the workers'
// many-runs-at-once path.
func runClusterTarget(clusterW, genName string, n int, deg float64, gseed uint64, taskName string, beta, roundCap, jobs, conc, seeds, warmup, maxRetries int, timeout time.Duration, scrapers *scrapeSet, stdout, stderr io.Writer) int {
	if clusterW == "" {
		fmt.Fprintln(stderr, "coresetload: -target cluster needs -cluster host:port,...")
		return 2
	}
	if maxRetries < 0 {
		maxRetries = cluster.DefaultMaxRetries // -1 means unset: replay on by default
	}
	addrs, err := cluster.ParseWorkerList(clusterW)
	if err != nil {
		fmt.Fprintln(stderr, "coresetload:", err)
		return 2
	}
	// Membership comes from the task registry — the same list the -task
	// usage string advertises.
	if _, ok := task.Get(taskName); !ok {
		fmt.Fprintf(stderr, "coresetload: unknown task %q (known tasks: %s)\n", taskName, strings.Join(task.Names(), ", "))
		return 2
	}
	input := &service.GenSpec{Name: genName, N: n, Deg: deg, Seed: gseed}
	if err := input.Validate(); err != nil {
		fmt.Fprintln(stderr, "coresetload:", err)
		return 1
	}
	fmt.Fprintf(stdout, "cluster: %d workers, %s n=%d, task %s, %d jobs x %d clients\n",
		len(addrs), genName, n, taskName, jobs, conc)

	before, err := scrapers.snapshot()
	if err != nil {
		fmt.Fprintln(stderr, "coresetload: scraping /metrics:", err)
		return 1
	}

	// Both waves are the same engine.Spec, the runtime aside: what differs
	// between the two latency lines is where the machines live, nothing else.
	runOne := func(runtime string, seed uint64) (time.Duration, int, error) {
		src, err := input.Source()
		if err != nil {
			return 0, 0, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		t0 := time.Now()
		rep, err := engine.Run(ctx, engine.Spec{
			Task: taskName, Beta: beta, Rounds: roundCap,
			Runtime: runtime, K: len(addrs), Seed: seed,
			Cluster: cluster.Config{Workers: addrs, MaxRetries: maxRetries},
		}, src)
		if err != nil {
			return 0, 0, err
		}
		return time.Since(t0), rep.Retries, nil
	}

	fire := func(label, runtime string) ([]time.Duration, int, int, time.Duration) {
		var (
			mu        sync.Mutex
			latencies []time.Duration
			failures  int
			retries   int
		)
		start := time.Now()
		next := make(chan int)
		go func() {
			for i := 0; i < jobs; i++ {
				next <- i
			}
			close(next)
		}()
		var wg sync.WaitGroup
		for c := 0; c < conc; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					d, r, err := runOne(runtime, uint64(i%seeds))
					mu.Lock()
					retries += r
					if err != nil {
						failures++
						fmt.Fprintf(stderr, "coresetload: %s job %d: %v\n", label, i, err)
					} else {
						latencies = append(latencies, d)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return latencies, failures, retries, time.Since(start)
	}

	report := func(label string, latencies []time.Duration, failures, retries int, wall time.Duration) bool {
		sum, ok := summarize(latencies, warmup)
		if !ok {
			fmt.Fprintf(stderr, "coresetload: no %s job succeeded\n", label)
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

	cl, cf, cr, cw := fire("cluster", engine.Cluster)
	// Snapshot before the in-process replay: only the cluster wave touches
	// the workers, so the window should close with it.
	after, err := scrapers.snapshot()
	if err != nil {
		fmt.Fprintln(stderr, "coresetload: scraping /metrics:", err)
		return 1
	}
	sl, sf, sr, sw := fire("in-process", engine.Stream)
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
