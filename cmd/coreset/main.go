// Command coreset runs the randomized-composable-coreset pipeline on an
// edge-list graph: it partitions the edges across k simulated machines,
// computes per-machine coresets, composes the final solution and reports
// quality plus communication cost.
//
// Usage:
//
//	coreset -task matching -k 8 -in graph.txt
//	coreset -task vc -k 8 -in graph.txt
//	coreset -task edcs -beta 16 -k 8 -in graph.txt    (EDCS coreset)
//	coreset -task edcs -rounds 3 -k 16 -in graph.txt  (multi-round MPC)
//	coreset -task diversity -k 8 -in graph.txt        (dispersion coreset)
//	coreset -task matching -gen gnp -n 10000 -deg 8   (synthetic input)
//	coreset -task vc -k 8 -stream -in graph.txt       (streaming runtime)
//	coreset -task vc -cluster host:p1,host:p2 -in g   (cluster runtime)
//	coreset -task vc -cluster local -k 4 -in g        (self-spawned workers)
//	coreset ingest -in web.txt -out data/web          (store a dataset)
//	coreset -task matching -k 8 -dataset data/web     (run from the store)
//
// Tasks: matching and vc are the paper's Theorem 1/2 coresets; edcs is the
// edge-degree constrained subgraph coreset of "Coresets Meet EDCS"
// (arXiv:1711.03076), a (3/2+eps)-approximate matching coreset whose degree
// bound is set with -beta; diversity is a randomized composable core-set
// for dispersion maximization in the style of arXiv:1506.06715 (per-machine
// greedy k-center summaries composed by re-running the greedy on their
// union). The accepted task list is the task registry (internal/task) — the
// -task usage string, this paragraph's membership and every runtime's
// dispatch all derive from it, so a newly registered task is available in
// all modes with no change here. With
// -rounds N the EDCS task runs the paper's multi-round MPC algorithm
// (internal/rounds): shard, build per-machine EDCSs, union, reshard with a
// fresh seed and a shrunken machine count, for up to N rounds or until the
// union stops shrinking; the report gains a per-round breakdown, and
// -rounds 1 reproduces the single-round run exactly.
//
// The default (batch) mode materializes the graph and partitions it with a
// single sequential RNG. With -stream the input is never materialized:
// edges flow from the source through a deterministic hash sharder to k
// concurrent machine goroutines, each maintaining its coreset incrementally
// — the shape of a real deployment, where every machine summarizes its share
// in O(n)-ish space as data arrives. Streaming mode reads files and stdin
// incrementally and streams all three generators (gnp, star and powerlaw)
// without ever building the edge list.
//
// With -cluster the machines are separate OS processes: either an existing
// fleet of cmd/coresetworker processes named as comma-separated addresses
// (one machine per address; -k is ignored), or "-cluster local", which
// forks -k workers from this binary and tears them down after the run. The
// sharding seed and per-machine algorithms are identical to -stream, so the
// answers match bit for bit; what changes is that TotalCommBytes in the
// report is measured off the TCP connections (the simulated estimate is
// reported alongside as estCommBytes). The -worker flag is the internal
// worker mode "-cluster local" forks; it serves runs until stdin closes.
//
// With -json the run report is emitted as a single JSON object using the
// same schema (graph.RunReport) the coresetd service returns for jobs, so
// CLI runs and service queries are interchangeable downstream.
//
// With -trace the run logs span events to stderr (run.start/run.end, plus
// per-round spans for -rounds and shard spans for -stream), each stamped
// with a run ID derived deterministically from -seed. Cluster runs ship that
// run ID to every worker in the HELLO frame, so a worker started with
// coresetworker -trace logs spans carrying the same run ID and the two
// streams can be joined by grep.
//
// With -cluster, -trace-out FILE additionally writes the run's timeline as
// Chrome trace-event JSON assembled from the workers' per-machine phase
// telemetry: one process per machine (pid 0 is the coordinator), one track
// per round, with decode/build/encode spans per machine. Load the file in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// The input format is one "u v" edge per line, optionally preceded by a
// header "p <n> <m>"; lines starting with '#' or '%' are comments.
//
// The ingest subcommand converts an edge list (or a generator draw) into an
// on-disk dataset (internal/dataset): segment files of varint-delta encoded
// edge batches under a content-hashed manifest. Ingestion uses the lenient
// SNAP-style parser — tabs, CRLF, comments, self-loops and duplicate edges
// are tolerated, with the drops recorded in the manifest. A stored dataset
// replaces -in/-gen via -dataset DIR in every mode: edges stream off disk
// segment by segment, so the graph is never materialized, and the source is
// restartable, which cluster-mode round replay requires. The same directory
// layout is what cmd/coresetd serves from its -datasets store.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"strings"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/rng"
	rnd "repro/internal/rounds"
	"repro/internal/service"
	"repro/internal/stream"
	"repro/internal/task"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and writes all
// output to the given writers.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "ingest" {
		return runIngest(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("coreset", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		taskName  = fs.String("task", "matching", "problem: "+strings.Join(task.Names(), " | "))
		k         = fs.Int("k", 4, "number of machines")
		beta      = fs.Int("beta", 0, "EDCS degree bound for -task edcs (0 = default)")
		rounds    = fs.Int("rounds", 0, "multi-round MPC: iterate the EDCS sketch for up to N rounds (-task edcs; 0 = single round)")
		in        = fs.String("in", "", "input edge-list file ('-' for stdin)")
		genName   = fs.String("gen", "", "synthetic input: gnp | powerlaw | star")
		n         = fs.Int("n", 10000, "vertices for -gen")
		deg       = fs.Float64("deg", 8, "average degree for -gen")
		dsDir     = fs.String("dataset", "", "input dataset directory (coreset ingest); edges stream off disk")
		seed      = fs.Uint64("seed", 1, "root seed")
		workers   = fs.Int("workers", 0, "max goroutines in batch mode (0 = GOMAXPROCS)")
		streaming = fs.Bool("stream", false, "use the streaming sharded runtime (never materializes the graph)")
		clusterTo = fs.String("cluster", "", "use the cluster runtime: worker addresses host:p1,host:p2,... or 'local' to fork -k workers")
		retries   = fs.Int("max-retries", -1, "cluster only: per-machine, per-round replay budget after a worker failure (-1 = default, 0 = fail fast)")
		workerM   = fs.Bool("worker", false, "internal: run as a cluster worker until stdin closes (used by -cluster local)")
		batch     = fs.Int("batch", 0, "streaming batch size in edges (0 = default)")
		quiet     = fs.Bool("q", false, "print only the summary line")
		jsonOut   = fs.Bool("json", false, "emit the run report as JSON (graph.RunReport schema)")
		traceF    = fs.Bool("trace", false, "log run and round spans to stderr (run ID derived from -seed)")
		traceOut  = fs.String("trace-out", "", "cluster only: write the run timeline as Chrome trace-event JSON to FILE (view in Perfetto)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// One validator for -beta and -rounds across every surface
	// (service.ValidateTaskParams is also what coresetd's job API and
	// cmd/coresetload call): the flags only mean something for tasks whose
	// registry descriptor declares the capability, and each is an error —
	// never a silent fallback or a silently ignored flag — outside its
	// range, with identical message text everywhere.
	if err := service.ValidateTaskParams(*taskName, *beta, *rounds); err != nil {
		fmt.Fprintln(stderr, "coreset:", err)
		return 2
	}
	if *workerM {
		return runWorker(stdout, stderr)
	}
	// The registry is the authority on which tasks exist; the usage string
	// above and this error name the same list, so a newly registered task
	// is accepted (and advertised) with no CLI change.
	desc, ok := task.Get(*taskName)
	if !ok {
		fmt.Fprintf(stderr, "coreset: unknown task %q (known tasks: %s)\n", *taskName, strings.Join(task.Names(), ", "))
		return 2
	}
	if *k < 1 {
		fmt.Fprintf(stderr, "coreset: -k must be at least 1 (got %d)\n", *k)
		return 2
	}
	if *dsDir != "" && (*in != "" || *genName != "") {
		fmt.Fprintln(stderr, "coreset: -dataset replaces -in/-gen; set only one input")
		return 2
	}
	if *clusterTo == "" && *retries >= 0 {
		fmt.Fprintln(stderr, "coreset: -max-retries requires -cluster (replay only exists in the cluster runtime)")
		return 2
	}
	if *clusterTo == "" && *traceOut != "" {
		fmt.Fprintln(stderr, "coreset: -trace-out requires -cluster (the timeline is built from worker phase telemetry)")
		return 2
	}
	// The tracer derives its run ID from the root seed, so repeated runs of
	// the same configuration produce identical trace streams (modulo
	// durations) — which is what makes the trace output golden-testable.
	var tracer *obs.Tracer
	if *traceF {
		tracer = obs.NewTextTracer(stderr, obs.RunIDFromSeed(*seed))
	}
	mode := "batch"
	switch {
	case *clusterTo != "":
		mode = "cluster"
	case *streaming:
		mode = "stream"
	}
	input := inputSpec{in: *in, genName: *genName, dataset: *dsDir, n: *n, deg: *deg, seed: *seed}
	endRun := tracer.Span("run", "task", *taskName, "mode", mode, "k", *k, "seed", *seed)
	var code int
	switch mode {
	case "cluster":
		code = runCluster(desc, input, *k, *batch, *beta, *rounds, *retries, *clusterTo, *traceOut, *quiet, *jsonOut, tracer, stdout, stderr)
	case "stream":
		code = runStream(desc, input, *k, *batch, *beta, *rounds, *quiet, *jsonOut, tracer, stdout, stderr)
	default:
		code = runBatch(desc, input, *k, *workers, *beta, *rounds, *quiet, *jsonOut, tracer, stdout, stderr)
	}
	endRun("code", code)
	return code
}

// roundsConfig assembles the multi-round driver configuration shared by the
// three runtimes (engaged by -rounds N with N >= 1).
func roundsConfig(k, roundCap int, seed uint64, p edcs.Params, batch, workers int, tr *obs.Tracer) rnd.Config {
	return rnd.Config{K: k, Rounds: roundCap, Seed: seed, Params: p, BatchSize: batch, Workers: workers, Trace: tr}
}

// printRoundStats prints the per-round breakdown of a multi-round run.
func printRoundStats(stdout io.Writer, st *rnd.Stats, measured bool) {
	label := "est"
	if measured {
		label = "measured"
	}
	fmt.Fprintf(stdout, "rounds: %d of %d (cap); total comm %d bytes (%s)\n",
		st.RoundsRun, st.RoundCap, st.TotalCommBytes, label)
	for _, rs := range st.Rounds {
		fmt.Fprintf(stdout, "  round %d: k=%d input=%d union=%d comm=%d bytes\n",
			rs.Round, rs.K, rs.InputEdges, rs.UnionEdges, rs.TotalCommBytes)
		if rs.Retries > 0 {
			fmt.Fprintf(stdout, "    recovery: %d replay attempts, machines replayed %v\n",
				rs.Retries, rs.ReplayedMachines)
		}
		printMachineStats(stdout, rs.MachineStats, "    ")
	}
}

// printMachineStats prints the per-machine phase telemetry the workers
// reported in their TELEM frames (cluster runs only; empty elsewhere).
func printMachineStats(stdout io.Writer, ms []graph.MachineStats, indent string) {
	for _, m := range ms {
		replayed := ""
		if m.Replayed {
			replayed = " (replayed)"
		}
		fmt.Fprintf(stdout, "%smachine %d: decode %.2fms build %.2fms encode %.2fms; %d edges in, %d repair iters, %d removals, peak |H| %d%s\n",
			indent, m.Machine, m.DecodeMS, m.BuildMS, m.EncodeMS, m.EdgesIn, m.RepairIters, m.Removals, m.PeakCoreset, replayed)
	}
}

// emitReport writes the JSON run report, the CLI's machine-readable output.
func emitReport(stdout io.Writer, rep *graph.RunReport) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return 1
	}
	return 0
}

func runBatch(d *task.Descriptor, input inputSpec, k, workers, beta, rounds int, quiet, jsonOut bool, tracer *obs.Tracer, stdout, stderr io.Writer) int {
	seed := input.seed
	g, err := loadGraph(input)
	if err != nil {
		fmt.Fprintln(stderr, "coreset:", err)
		return 1
	}
	if err := g.Validate(); err != nil {
		fmt.Fprintln(stderr, "coreset: invalid input:", err)
		return 1
	}
	if !quiet && !jsonOut {
		fmt.Fprintf(stdout, "graph: n=%d m=%d, k=%d machines\n", g.N, g.M(), k)
	}

	p := task.Params{}
	if d.UsesBeta {
		p.EDCS = edcs.ParamsForBeta(beta)
	}
	if rounds >= 1 {
		// Validation already restricted -rounds to the rounds-capable task.
		m, st, err := rnd.Batch(g, roundsConfig(k, rounds, seed, p.EDCS, 0, workers, tracer))
		if err != nil {
			fmt.Fprintln(stderr, "coreset:", err)
			return 1
		}
		if err := matching.Verify(g.N, g.Edges, m); err != nil {
			fmt.Fprintln(stderr, "coreset: internal error:", err)
			return 1
		}
		if jsonOut {
			return emitReport(stdout, st.Report("batch", seed, m.Size(), p.EDCS.Beta))
		}
		if !quiet {
			printRoundStats(stdout, st, false)
		}
		fmt.Fprintf(stdout, "%s: %d %s (multi-round, %d rounds, %d machines)\n",
			d.SolutionNoun, m.Size(), d.SolutionUnit, st.RoundsRun, k)
		return 0
	}
	start := time.Now()
	sol, st := d.Batch(g, k, workers, seed, p)
	dur := time.Since(start)
	if d.Verify != nil {
		if err := d.Verify(g.N, g.Edges, sol); err != nil {
			fmt.Fprintln(stderr, "coreset: internal error:", err)
			return 1
		}
	}
	if jsonOut {
		rep := st.Report(d.Name, g.N, g.M(), seed, sol.Size, dur)
		if d.UsesBeta {
			rep.Beta = p.EDCS.Beta
		}
		return emitReport(stdout, rep)
	}
	if !quiet {
		if d.FixedLabel != "" {
			fmt.Fprintf(stdout, "%s: %v\n", d.FixedLabel, st.CoresetFixed)
		}
		fmt.Fprintf(stdout, "%s: %v\n", d.CoresetLabel, st.CoresetEdges)
		fmt.Fprintf(stdout, "communication: total %d bytes, max machine %d bytes\n",
			st.TotalCommBytes, st.MaxMachineBytes)
	}
	fmt.Fprintf(stdout, "%s: %d %s (distributed, %d machines)\n", d.SolutionNoun, sol.Size, d.SolutionUnit, k)
	return 0
}

func runStream(d *task.Descriptor, input inputSpec, k, batch, beta, rounds int, quiet, jsonOut bool, tracer *obs.Tracer, stdout, stderr io.Writer) int {
	seed := input.seed
	src, closeSrc, err := openSource(input)
	if err != nil {
		fmt.Fprintln(stderr, "coreset:", err)
		return 1
	}
	if closeSrc != nil {
		defer closeSrc()
	}
	cfg := stream.Config{K: k, Seed: seed, BatchSize: batch, Trace: tracer}

	p := task.Params{}
	if d.UsesBeta {
		p.EDCS = edcs.ParamsForBeta(beta)
	}
	if rounds >= 1 {
		m, st, err := rnd.Stream(context.Background(), src, roundsConfig(k, rounds, seed, p.EDCS, batch, 0, tracer))
		if err != nil {
			fmt.Fprintln(stderr, "coreset:", err)
			return 1
		}
		if jsonOut {
			return emitReport(stdout, st.Report("stream", seed, m.Size(), p.EDCS.Beta))
		}
		if !quiet {
			printRoundStats(stdout, st, false)
		}
		fmt.Fprintf(stdout, "%s: %d %s (multi-round streamed, %d rounds, %d machines)\n",
			d.SolutionNoun, m.Size(), d.SolutionUnit, st.RoundsRun, k)
		return 0
	}
	sol, st, err := stream.Solve(context.Background(), src, cfg, d, p)
	if err != nil {
		fmt.Fprintln(stderr, "coreset:", err)
		return 1
	}
	if jsonOut {
		rep := st.Report(d.Name, seed, sol.Size)
		if d.UsesBeta {
			rep.Beta = p.EDCS.Beta
		}
		return emitReport(stdout, rep)
	}
	if !quiet {
		printStreamStats(stdout, st)
		if d.FixedLabel != "" {
			fmt.Fprintf(stdout, "%s: %v\n", d.FixedLabel, st.CoresetFixed)
		}
		fmt.Fprintf(stdout, "%s: %v\n", d.CoresetLabel, st.CoresetEdges)
		if d.ShowStored {
			fmt.Fprintf(stdout, "stored vs received per machine: %v / %v\n", st.StoredEdges, st.PartEdges)
		}
		if d.LiveLabel != "" {
			fmt.Fprintf(stdout, "%s: %v\n", d.LiveLabel, st.Live)
		}
	}
	fmt.Fprintf(stdout, "%s: %d %s (streamed, %d machines)\n", d.SolutionNoun, sol.Size, d.SolutionUnit, k)
	return 0
}

// runWorker is the internal worker mode "-cluster local" forks: serve runs
// on an ephemeral loopback port, announce it with the ready line, and drain
// when the parent closes our stdin.
func runWorker(stdout, stderr io.Writer) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(stderr, "coreset: worker listen:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s%s\n", cluster.ReadyPrefix, ln.Addr())
	w := cluster.NewWorker(log.New(stderr, "coreset-worker: ", 0))
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // parent closing the pipe is our stop signal
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = w.Shutdown(ctx)
	}()
	if err := w.Serve(ln); err != nil {
		fmt.Fprintln(stderr, "coreset: worker:", err)
		return 1
	}
	return 0
}

// resolveCluster turns the -cluster flag into worker addresses, forking a
// local fleet when asked. The returned cleanup (possibly nil) tears the
// fleet down.
func resolveCluster(spec string, k int, stderr io.Writer) (addrs []string, cleanup func(), err error) {
	if spec != "local" {
		addrs, err := cluster.ParseWorkerList(spec)
		return addrs, nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("-cluster local: %w", err)
	}
	lw, err := cluster.SpawnLocal(exe, []string{"-worker"}, k, stderr)
	if err != nil {
		return nil, nil, err
	}
	return lw.Addrs(), func() { _ = lw.Close() }, nil
}

func runCluster(d *task.Descriptor, input inputSpec, k, batch, beta, rounds, retries int, spec, traceOut string, quiet, jsonOut bool, tracer *obs.Tracer, stdout, stderr io.Writer) int {
	seed := input.seed
	addrs, cleanup, err := resolveCluster(spec, k, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "coreset:", err)
		return 1
	}
	if cleanup != nil {
		defer cleanup()
	}
	src, closeSrc, err := openSource(input)
	if err != nil {
		fmt.Fprintln(stderr, "coreset:", err)
		return 1
	}
	if closeSrc != nil {
		defer closeSrc()
	}
	k = len(addrs) // one machine per worker address
	if retries < 0 {
		retries = cluster.DefaultMaxRetries // -1 means unset: replay on by default
	}
	// The run ID shipped to every worker in the HELLO frame is the same
	// seed-derived ID -trace stamps on coordinator spans, so worker-side
	// trace streams join the coordinator's without coordination.
	cfg := cluster.Config{Workers: addrs, Seed: seed, BatchSize: batch, MaxRetries: retries, RunID: obs.RunIDFromSeed(seed)}
	ctx := context.Background()

	// emit finishes a successful run: the Perfetto timeline first (it must
	// be written even for -q and -json runs), then the JSON report when
	// asked. Returns the exit code, or -1 to continue with text output.
	emit := func(rep *graph.RunReport) int {
		if traceOut != "" {
			if err := writeChromeTrace(traceOut, rep); err != nil {
				fmt.Fprintln(stderr, "coreset:", err)
				return 1
			}
		}
		if jsonOut {
			return emitReport(stdout, rep)
		}
		return -1
	}

	p := task.Params{}
	if d.UsesBeta {
		p.EDCS = edcs.ParamsForBeta(beta)
	}
	if rounds >= 1 {
		m, st, err := rnd.Cluster(ctx, src, cfg, roundsConfig(k, rounds, seed, p.EDCS, batch, 0, tracer))
		if err != nil {
			fmt.Fprintln(stderr, "coreset:", err)
			return 1
		}
		if code := emit(st.Report("cluster", seed, m.Size(), p.EDCS.Beta)); code >= 0 {
			return code
		}
		if !quiet {
			printRoundStats(stdout, st, true)
		}
		fmt.Fprintf(stdout, "%s: %d %s (multi-round cluster, %d rounds, %d machines)\n",
			d.SolutionNoun, m.Size(), d.SolutionUnit, st.RoundsRun, k)
		return 0
	}
	sol, st, err := cluster.Solve(ctx, src, cfg, d, p)
	if err != nil {
		fmt.Fprintln(stderr, "coreset:", err)
		return 1
	}
	rep := st.Report(d.Name, seed, sol.Size)
	if d.UsesBeta {
		rep.Beta = p.EDCS.Beta
	}
	if code := emit(rep); code >= 0 {
		return code
	}
	if !quiet {
		printClusterStats(stdout, st)
		if d.FixedLabel != "" {
			fmt.Fprintf(stdout, "%s: %v\n", d.FixedLabel, st.CoresetFixed)
		}
		fmt.Fprintf(stdout, "%s: %v\n", d.CoresetLabel, st.CoresetEdges)
	}
	fmt.Fprintf(stdout, "%s: %d %s (cluster, %d machines)\n", d.SolutionNoun, sol.Size, d.SolutionUnit, k)
	return 0
}

func printClusterStats(stdout io.Writer, st *cluster.Stats) {
	fmt.Fprintf(stdout, "cluster: n=%d, %d edges in %d batches, k=%d worker processes\n",
		st.N, st.EdgesTotal, st.Batches, st.K)
	fmt.Fprintf(stdout, "communication (measured): total %d bytes, max machine %d bytes; simulated estimate %d bytes\n",
		st.TotalCommBytes, st.MaxMachineBytes, st.EstCommBytes)
	fmt.Fprintf(stdout, "shard traffic: %d bytes to workers; throughput %.0f edges/sec (%.1f ms)\n",
		st.ShardBytes, st.EdgesPerSec(), float64(st.Duration.Microseconds())/1000)
	if st.Retries > 0 {
		fmt.Fprintf(stdout, "recovery: %d replay attempts, machines replayed %v\n",
			st.Retries, st.ReplayedMachines)
	}
	printMachineStats(stdout, st.MachineStats, "  ")
}

func printStreamStats(stdout io.Writer, st *stream.Stats) {
	fmt.Fprintf(stdout, "stream: n=%d, %d edges in %d batches, k=%d machines\n",
		st.N, st.EdgesTotal, st.Batches, st.K)
	fmt.Fprintf(stdout, "communication: total %d bytes, max machine %d bytes\n",
		st.TotalCommBytes, st.MaxMachineBytes)
	fmt.Fprintf(stdout, "throughput: %.0f edges/sec (%.1f ms)\n",
		st.EdgesPerSec(), float64(st.Duration.Microseconds())/1000)
}

// inputSpec bundles the CLI flags that name an input graph: an edge-list
// file, a generator draw, or a stored dataset directory. One dispatch
// (openSource) serves every runtime, so the modes can never drift apart on
// what a given set of input flags means.
type inputSpec struct {
	in      string // edge-list file, '-' for stdin
	genName string // gnp | star | powerlaw
	dataset string // dataset directory (coreset ingest)
	n       int
	deg     float64
	seed    uint64
}

// openSource builds a streaming edge source from the CLI input flags. The
// returned close function is non-nil when a file must be closed after the run.
func openSource(sp inputSpec) (stream.EdgeSource, func() error, error) {
	if sp.dataset != "" {
		d, err := dataset.Open(sp.dataset)
		if err != nil {
			return nil, nil, err
		}
		return stream.NewDatasetSource(d), d.Close, nil
	}
	if sp.genName != "" {
		n, deg, seed := sp.n, sp.deg, sp.seed
		switch sp.genName {
		case "gnp":
			return stream.NewIterSource(n, func() gen.EdgeIter { return gen.GNPIter(n, deg/float64(n), rng.New(seed)) }), nil, nil
		case "star":
			return stream.NewIterSource(n, func() gen.EdgeIter { return gen.StarIter(n) }), nil, nil
		case "powerlaw":
			return stream.NewIterSource(n, func() gen.EdgeIter { return gen.PowerlawIter(n, 2.0, n/16+1, rng.New(seed)) }), nil, nil
		default:
			return nil, nil, fmt.Errorf("unknown generator %q", sp.genName)
		}
	}
	switch sp.in {
	case "":
		return nil, nil, fmt.Errorf("need -in FILE, -gen NAME or -dataset DIR")
	case "-":
		return stream.NewReaderSource(os.Stdin), nil, nil
	default:
		f, err := os.Open(sp.in)
		if err != nil {
			return nil, nil, err
		}
		return stream.NewReaderSource(f), f.Close, nil
	}
}

// runIngest implements the ingest subcommand: store an edge list (or a
// generator draw) as an on-disk dataset that -dataset and coresetd -datasets
// can stream without re-parsing.
func runIngest(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coreset ingest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "", "input edge-list file ('-' for stdin); SNAP-style messiness tolerated")
		genName  = fs.String("gen", "", "synthetic input: gnp | powerlaw | star")
		n        = fs.Int("n", 10000, "vertices for -gen")
		deg      = fs.Float64("deg", 8, "average degree for -gen")
		seed     = fs.Uint64("seed", 1, "generator seed for -gen")
		out      = fs.String("out", "", "dataset directory to create (required)")
		segEdges = fs.Int("seg-edges", 0, "edges per segment block (0 = default)")
		quiet    = fs.Bool("q", false, "print only the summary line")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "coreset ingest: need -out DIR")
		return 2
	}
	if (*in == "") == (*genName == "") {
		fmt.Fprintln(stderr, "coreset ingest: need exactly one of -in FILE and -gen NAME")
		return 2
	}

	opts := dataset.IngestOptions{SegmentEdges: *segEdges}
	var (
		man *dataset.Manifest
		err error
	)
	switch {
	case *genName != "":
		// Generator draws are trusted (no self-loops, no duplicates) and must
		// keep their draw order, so they go through the Builder directly: a
		// dataset-backed run composes the exact coresets the -gen run would.
		opts.Source = fmt.Sprintf("gen:%s n=%d deg=%g seed=%d", *genName, *n, *deg, *seed)
		man, err = ingestSource(inputSpec{genName: *genName, n: *n, deg: *deg, seed: *seed}, *out, opts)
	case *in == "-":
		opts.Source = "stdin"
		man, err = dataset.Ingest(*out, os.Stdin, opts)
	default:
		man, err = dataset.IngestFile(*out, *in, opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "coreset ingest:", err)
		return 1
	}
	if !*quiet {
		fmt.Fprintf(stdout, "source: %s\n", man.Source)
		fmt.Fprintf(stdout, "layout: %d segments, %d bytes on disk\n", len(man.Segments), man.Bytes)
		fmt.Fprintf(stdout, "hash: %s\n", man.Hash)
		if man.SelfLoops > 0 || man.Duplicates > 0 {
			fmt.Fprintf(stdout, "dropped: %d self-loops, %d duplicate edges\n", man.SelfLoops, man.Duplicates)
		}
	}
	fmt.Fprintf(stdout, "ingested: n=%d m=%d into %s\n", man.N, man.M, *out)
	return 0
}

// ingestSource drains a streaming edge source into a dataset build.
func ingestSource(sp inputSpec, dir string, opts dataset.IngestOptions) (*dataset.Manifest, error) {
	src, closeSrc, err := openSource(sp)
	if err != nil {
		return nil, err
	}
	if closeSrc != nil {
		defer closeSrc()
	}
	b, err := dataset.NewBuilder(dir, opts)
	if err != nil {
		return nil, err
	}
	buf := make([]graph.Edge, 4096)
	for {
		c, err := src.Next(buf)
		if addErr := b.Add(buf[:c]...); addErr != nil {
			b.Abort()
			return nil, addErr
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Abort()
			return nil, err
		}
	}
	return b.Finish(src.NumVertices(), opts.Source, 0, 0)
}

// loadGraph materializes the same input openSource streams: one dispatch,
// two consumption modes, so batch and -stream can never drift apart on what
// a given set of input flags means.
func loadGraph(sp inputSpec) (*graph.Graph, error) {
	src, closeSrc, err := openSource(sp)
	if err != nil {
		return nil, err
	}
	if closeSrc != nil {
		defer closeSrc()
	}
	var edges []graph.Edge
	buf := make([]graph.Edge, 4096)
	for {
		c, err := src.Next(buf)
		edges = append(edges, buf[:c]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return &graph.Graph{N: src.NumVertices(), Edges: edges}, nil
}
