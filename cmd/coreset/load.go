package main

// `coreset load` is the load generator for a `coreset serve` service: it
// registers a graph, fires a stream of jobs from concurrent clients through
// service.Client (each one submitted and long-polled to completion) and
// reports client-side latency percentiles plus the server's cache counters.
// Cycling a small seed set (-seeds) makes repeated keys hit the result
// cache, so the tool doubles as a demonstration that cached queries are
// orders of magnitude cheaper than cold ones.
//
// -mode picks the job runtime: batch, stream, or cluster for a service
// started with `coreset serve -cluster …` (k must equal the fleet size).
// That is how a worker fleet is load-tested: through the same job path as
// production traffic. Task edcs with -rounds N makes every job a
// multi-round MPC run (internal/rounds); the round cap rides in the job
// request and its cache key.
//
// With -scrape URL[,URL...] the tool snapshots each URL's GET /metrics
// before and after the run and prints the counter deltas attributable to the
// workload next to the latency percentiles. The URLs are explicit so one run
// can watch every metrics surface a deployment exposes side by side: the
// service (-addr base; submitted/done totals, cache traffic, wire byte
// counters) and each worker's -admin listener (per-worker frame, byte and
// phase counters).
//
// With -dataset NAME the workload runs against a stored dataset from the
// service's -datasets store instead of a generator spec — jobs stream the
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
//	coreset load -addr http://127.0.0.1:8440 -mode cluster -k 2 \
//	             -gen gnp -n 20000 -deg 8 -task matching -jobs 16 -c 2

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/task"
)

// runLoad is the load subcommand.
func runLoad(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coreset load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8440", "service base URL")
		genName  = fs.String("gen", "gnp", "graph generator: gnp | star | powerlaw")
		dsName   = fs.String("dataset", "", "dataset name in the service's store (serve -datasets); replaces -gen")
		mix      = fs.Bool("mix", false, "with -dataset: alternate dataset-backed and gen-backed jobs and report per-kind latency percentiles")
		n        = fs.Int("n", 20000, "vertices")
		deg      = fs.Float64("deg", 8, "average degree (gnp)")
		gseed    = fs.Uint64("graphseed", 1, "generator seed")
		taskName = fs.String("task", "matching", "job task: "+strings.Join(task.Names(), " | "))
		beta     = fs.Int("beta", 0, "EDCS degree bound (task edcs; 0 = default)")
		rounds   = fs.Int("rounds", 0, "multi-round MPC round cap (task edcs; 0 = single round)")
		k        = fs.Int("k", 4, "machines per job (mode cluster: the service's fleet size)")
		mode     = fs.String("mode", "stream", "job mode: batch | stream | cluster (cluster needs a service started with serve -cluster)")
		jobs     = fs.Int("jobs", 32, "total jobs to run")
		conc     = fs.Int("c", 4, "concurrent clients")
		seeds    = fs.Int("seeds", 4, "distinct job seeds to cycle (repeats hit the service cache)")
		warmup   = fs.Int("warmup", 0, "jobs excluded from latency percentiles as warmup")
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
	api := service.NewClient(*addr, &http.Client{Timeout: 2 * time.Minute})
	ctx := context.Background()

	// The workload's graphs, one per kind. Plain runs use a single kind (the
	// generator spec, or the stored dataset with -dataset); -mix registers
	// both and alternates jobs across them so dataset-backed and gen-backed
	// latency distributions print side by side.
	var graphIDs, kinds []string
	if *dsName != "" {
		info, err := api.AddGraph(ctx, service.CreateGraphRequest{Dataset: *dsName})
		if err != nil {
			fmt.Fprintln(stderr, "coreset load: registering dataset:", err)
			return 1
		}
		fmt.Fprintf(stdout, "graph %s: dataset %s n=%d m=%d\n", info.ID, *dsName, info.N, info.M)
		graphIDs, kinds = append(graphIDs, info.ID), append(kinds, "dataset")
	}
	if *dsName == "" || *mix {
		info, err := api.AddGraph(ctx, service.CreateGraphRequest{Gen: &service.GenSpec{Name: *genName, N: *n, Deg: *deg, Seed: *gseed}})
		if err != nil {
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
	done, failures, wall := fire(*jobs, *conc, stderr, func(i int) error {
		ctx, cancel := context.WithTimeout(ctx, *timeout)
		defer cancel()
		_, err := api.Run(ctx, service.CreateJobRequest{
			Graph: graphIDs[i%len(graphIDs)], Task: *taskName, K: *k,
			Seed: uint64(i % *seeds), Mode: *mode,
			Beta: *beta, Rounds: *rounds,
		})
		return err
	})
	var latencies []time.Duration
	perKind := make(map[string][]time.Duration)
	for _, j := range done {
		kind := kinds[j.i%len(kinds)]
		latencies = append(latencies, j.d)
		perKind[kind] = append(perKind[kind], j.d)
	}

	sum, ok := summarize(latencies, *warmup)
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

	st, err := api.Stats(ctx)
	if err != nil {
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

// fire runs jobs jobs across conc concurrent clients. do runs job i; a
// failure is logged. It returns the successes in completion order, the
// failure count and the wall time.
func fire(jobs, conc int, stderr io.Writer, do func(i int) error) (done []timedJob, failures int, wall time.Duration) {
	var mu sync.Mutex
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
				t0 := time.Now()
				err := do(i)
				d := time.Since(t0)
				mu.Lock()
				if err != nil {
					failures++
					fmt.Fprintf(stderr, "coreset load: job %d: %v\n", i, err)
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
		m, err := service.NewClient(u, s.client).Metrics(context.Background())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u, err)
		}
		out[u] = m
	}
	return out, nil
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
		base, _, _ := strings.Cut(name, "{")
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
