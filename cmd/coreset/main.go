// Command coreset is the one binary of the randomized-composable-coreset
// system. In the paper's simultaneous model every machine runs the same
// summarizer and one coordinator composes what they send; the subcommands
// are the roles a process can play in that model:
//
//	coreset [run] [flags]        run one pipeline and print its report (the default)
//	coreset ingest [flags]       store an edge list or a generator draw as a dataset
//	coreset serve [flags]        the long-running HTTP service (internal/service)
//	coreset worker [flags]       one cluster machine as a resident process
//	coreset load [flags]         load-test a service (and the fleet behind it)
//	coreset experiments [flags]  regenerate the paper's tables (internal/expt)
//
// A command line that starts with a flag is a run. Every subcommand rejects
// positional arguments: flag parsing stops at the first one, so a stray word
// would otherwise drop every flag after it without a word.
//
// # run
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
//	coreset -task matching -k 8 -dataset data/web     (run from a stored dataset)
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
// The run subcommand is a frontend and nothing more: the flags become one
// engine.Spec, engine.Run (internal/engine) dispatches on runtime and rounds,
// and every output format — the text lines, -json, -trace-out — is drawn
// from the graph.RunReport it returns.
//
// The default (batch) mode materializes the graph and runs the stream
// pipeline over it, sharded by the same deterministic hash router
// (stream.Route) every mode uses; having the whole graph in hand, it also
// checks the input's structure and verifies the composed solution. With
// -stream the input is never materialized: edges flow from the source
// through the router to k concurrent machine goroutines, each maintaining its
// coreset incrementally — the shape of a real deployment, where every
// machine summarizes its share in O(n)-ish space as data arrives. Streaming mode reads files and stdin
// incrementally and streams all three generators (gnp, star and powerlaw)
// without ever building the edge list.
//
// With -cluster the machines are separate OS processes: either an existing
// fleet of `coreset worker` processes named as comma-separated addresses
// (one machine per address; -k is ignored), or "-cluster local", which
// forks -k `coreset worker -exit-on-stdin-eof` processes from this binary
// and tears them down after the run. The sharding seed and per-machine
// algorithms are identical to -stream, so the answers match bit for bit;
// what changes is that TotalCommBytes in the report is measured off the TCP
// connections (the simulated estimate is reported alongside as
// estCommBytes). A lost worker is replayed for the current round, up to
// -max-retries times per machine (default cluster.DefaultMaxRetries; 0 fails
// fast).
//
// With -json the run report is emitted as a single JSON object — the very
// report (graph.RunReport, built by the engine) a `coreset serve` job
// returns for the same request, so CLI runs and service queries are
// interchangeable downstream (TestCLIMatchesDaemon).
//
// With -trace the run logs span events to stderr (run.start/run.end, plus
// per-round spans for -rounds and shard spans for -stream), each stamped
// with a run ID derived deterministically from -seed; the run span's k is
// the k that ran (the fleet size under -cluster). Cluster runs ship that
// run ID to every worker in the HELLO frame, so a worker started with
// `coreset worker -trace` logs spans carrying the same run ID and the two
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
// # ingest
//
//	coreset ingest -in web.txt -out data/web
//	coreset ingest -gen gnp -n 100000 -deg 8 -seed 1 -out data/gnp
//
// The ingest subcommand converts an edge list (or a generator draw) into an
// on-disk dataset (internal/dataset): segment files of varint-delta encoded
// edge batches under a content-hashed manifest. Ingestion uses the lenient
// SNAP-style parser — tabs, CRLF, comments, self-loops and duplicate edges
// are tolerated, with the drops recorded in the manifest. A stored dataset
// replaces -in/-gen via -dataset DIR in every mode: edges stream off disk
// segment by segment, so the graph is never materialized, and the source is
// restartable, which cluster-mode round replay requires. The same directory
// layout is what `coreset serve -datasets` serves.
//
// # serve and worker
//
// serve and worker are the two resident roles (daemon.go); they share one
// -admin surface (/metrics, /healthz, /debug/pprof/) and one drain sequence,
// run when SIGINT or SIGTERM arrives.
//
// # load and experiments
//
// load is the load generator for a service and the fleet behind it
// (load.go), and experiments regenerates the table behind each of the
// paper's results (experiments.go).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/stream"
	"repro/internal/task"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// subcommands lists the roles this binary plays; run is the default.
var subcommands = []string{"run", "ingest", "serve", "worker", "load", "experiments"}

// workerArgs is the command line "-cluster local" forks: a worker that
// drains and exits when its parent closes its stdin, and logs nothing, so a
// successful run prints nothing on stderr.
var workerArgs = []string{"worker", "-exit-on-stdin-eof", "-q"}

// run is the testable entry point: it dispatches on the subcommand and
// writes all output to the given writers. serve and worker stop on SIGINT or
// SIGTERM; tests call runServe and runWorker with a context of their own.
func run(args []string, stdout, stderr io.Writer) int {
	sub := "run"
	if len(args) > 0 && slices.Contains(subcommands, args[0]) {
		sub, args = args[0], args[1:]
	}
	switch sub {
	case "ingest":
		return runIngest(args, stdout, stderr)
	case "serve", "worker":
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		if sub == "serve" {
			return runServe(ctx, args, stderr)
		}
		return runWorker(ctx, args, os.Stdin, stdout, stderr)
	case "load":
		return runLoad(args, stdout, stderr)
	case "experiments":
		return runExperiments(args, stdout, stderr)
	}
	return runPipeline(args, stdout, stderr)
}

// parseFlags is every subcommand's flag parse. ok is false when the
// subcommand should exit with code: 0 after -h, 2 on a bad flag or on a
// positional argument, which the error names with hint appended.
func parseFlags(fs *flag.FlagSet, args []string, hint string) (code int, ok bool) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q%s\n", fs.Name(), fs.Arg(0), hint)
		return 2, false
	}
	return 0, true
}

// checkMaxRetries is the one -max-retries rule of run and serve: the budget
// defaults to cluster.DefaultMaxRetries, a negative one is an error, and so
// is setting it with no -cluster fleet to replay on.
func checkMaxRetries(fs *flag.FlagSet, retries int, haveFleet bool) error {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == "max-retries" })
	switch {
	case retries < 0:
		return fmt.Errorf("-max-retries must be >= 0 (got %d)", retries)
	case set && !haveFleet:
		return errors.New("-max-retries requires -cluster (replay only exists in the cluster runtime)")
	}
	return nil
}

// runPipeline is the run subcommand: one pipeline, one report.
func runPipeline(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coreset", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: coreset [%s] [flags]; the run flags are:\n", strings.Join(subcommands, "|"))
		fs.PrintDefaults()
	}
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
		streaming = fs.Bool("stream", false, "use the streaming sharded runtime (never materializes the graph)")
		clusterTo = fs.String("cluster", "", "use the cluster runtime: worker addresses host:p1,host:p2,... or 'local' to fork -k workers")
		retries   = fs.Int("max-retries", cluster.DefaultMaxRetries, "cluster only: per-machine, per-round replay budget after a worker failure (0 = fail fast)")
		batch     = fs.Int("batch", 0, "streaming batch size in edges (0 = default)")
		quiet     = fs.Bool("q", false, "print only the summary line")
		jsonOut   = fs.Bool("json", false, "emit the run report as JSON (graph.RunReport schema)")
		traceF    = fs.Bool("trace", false, "log run and round spans to stderr (run ID derived from -seed)")
		traceOut  = fs.String("trace-out", "", "cluster only: write the run timeline as Chrome trace-event JSON to FILE (view in Perfetto)")
	)
	if code, ok := parseFlags(fs, args, " (subcommands: "+strings.Join(subcommands, ", ")+")"); !ok {
		return code
	}

	// One validator for -beta and -rounds across every surface
	// (task.ValidateParams is also what the service's job API, coreset load
	// and the engine call): the flags only mean something for tasks whose
	// registry descriptor declares the capability, and each is an error —
	// never a silent fallback or a silently ignored flag — outside its
	// range, with identical message text everywhere.
	if err := task.ValidateParams(*taskName, *beta, *rounds); err != nil {
		fmt.Fprintln(stderr, "coreset:", err)
		return 2
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
	if err := checkMaxRetries(fs, *retries, *clusterTo != ""); err != nil {
		fmt.Fprintln(stderr, "coreset:", err)
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
	// The flags become one engine.Spec; the engine owns the runtime × rounds
	// dispatch and hands back the report every output format is printed from.
	spec := engine.Spec{
		Task: *taskName, Beta: *beta, Rounds: *rounds,
		Runtime: engine.Batch, K: *k, Seed: *seed,
		BatchSize: *batch, Trace: tracer,
	}
	switch {
	case *clusterTo != "":
		addrs, cleanup, err := resolveCluster(*clusterTo, *k, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "coreset:", err)
			return 1
		}
		if cleanup != nil {
			defer cleanup()
		}
		// One machine per worker address: the fleet, not -k, is this run's k.
		// The run ID shipped to every worker in the HELLO frame is the same
		// seed-derived ID -trace stamps on coordinator spans, so worker-side
		// trace streams join the coordinator's without coordination.
		spec.Runtime, spec.K = engine.Cluster, len(addrs)
		spec.Cluster = cluster.Config{Workers: addrs, MaxRetries: *retries, RunID: obs.RunIDFromSeed(*seed)}
	case *streaming:
		spec.Runtime = engine.Stream
	}
	src, closeSrc, err := openSource(inputSpec{in: *in, genName: *genName, dataset: *dsDir, n: *n, deg: *deg, seed: *seed})
	if err != nil {
		fmt.Fprintln(stderr, "coreset:", err)
		return 1
	}
	if closeSrc != nil {
		defer closeSrc()
	}

	endRun := tracer.Span("run", "task", spec.Task, "mode", spec.Runtime, "k", spec.K, "seed", spec.Seed)
	code := 0
	rep, err := engine.Run(context.Background(), spec, src)
	if err == nil && *traceOut != "" {
		// The Perfetto timeline is written even for -q and -json runs.
		err = writeChromeTrace(*traceOut, rep)
	}
	switch {
	case err != nil:
		fmt.Fprintln(stderr, "coreset:", err)
		code = 1
	case *jsonOut:
		code = emitReport(stdout, rep)
	default:
		printReport(stdout, desc, rep, *quiet)
	}
	endRun("code", code)
	return code
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

// modeWords is how the summary line names each runtime, single-round and
// multi-round.
var modeWords = map[string][2]string{
	engine.Batch:   {"distributed", "multi-round"},
	engine.Stream:  {"streamed", "multi-round streamed"},
	engine.Cluster: {"cluster", "multi-round cluster"},
}

// printReport is the CLI's text output, drawn from the run report alone —
// the same object -json emits and the service serves. d supplies the task's
// display labels. With quiet only the summary line prints.
func printReport(w io.Writer, d *task.Descriptor, rep *graph.RunReport, quiet bool) {
	multiRound := rep.Rounds > 0
	if !quiet {
		if rep.Mode == engine.Batch {
			fmt.Fprintf(w, "graph: n=%d m=%d, k=%d machines\n", rep.N, rep.M, rep.K)
		}
		coresets := func() {
			if d.FixedLabel != "" {
				fmt.Fprintf(w, "%s: %v\n", d.FixedLabel, rep.CoresetFixed)
			}
			fmt.Fprintf(w, "%s: %v\n", d.CoresetLabel, rep.CoresetEdges)
		}
		switch {
		case multiRound:
			printRounds(w, rep)
		case rep.Mode == engine.Batch:
			coresets()
			fmt.Fprintf(w, "communication: total %d bytes, max machine %d bytes\n", rep.TotalCommBytes, rep.MaxMachineBytes)
		case rep.Mode == engine.Stream:
			fmt.Fprintf(w, "stream: n=%d, %d edges in %d batches, k=%d machines\n", rep.N, rep.M, rep.Batches, rep.K)
			fmt.Fprintf(w, "communication: total %d bytes, max machine %d bytes\n", rep.TotalCommBytes, rep.MaxMachineBytes)
			fmt.Fprintf(w, "throughput: %.0f edges/sec (%.1f ms)\n", rep.EdgesPerSec, rep.DurationMS)
			coresets()
			if d.ShowStored {
				fmt.Fprintf(w, "stored vs received per machine: %v / %v\n", rep.StoredEdges, rep.PartEdges)
			}
			if d.LiveLabel != "" {
				fmt.Fprintf(w, "%s: %v\n", d.LiveLabel, rep.Live)
			}
		default:
			fmt.Fprintf(w, "cluster: n=%d, %d edges in %d batches, k=%d worker processes\n", rep.N, rep.M, rep.Batches, rep.K)
			fmt.Fprintf(w, "communication (measured): total %d bytes, max machine %d bytes; simulated estimate %d bytes\n",
				rep.TotalCommBytes, rep.MaxMachineBytes, rep.EstCommBytes)
			fmt.Fprintf(w, "shard traffic: %d bytes to workers; throughput %.0f edges/sec (%.1f ms)\n",
				rep.ShardBytes, rep.EdgesPerSec, rep.DurationMS)
			printRecovery(w, rep.Retries, rep.ReplayedMachines, "")
			printMachineStats(w, rep.MachineStats, "  ")
			coresets()
		}
	}
	if multiRound {
		fmt.Fprintf(w, "%s: %d %s (%s, %d rounds, %d machines)\n",
			d.SolutionNoun, rep.SolutionSize, d.SolutionUnit, modeWords[rep.Mode][1], rep.RoundsRun, rep.K)
		return
	}
	fmt.Fprintf(w, "%s: %d %s (%s, %d machines)\n", d.SolutionNoun, rep.SolutionSize, d.SolutionUnit, modeWords[rep.Mode][0], rep.K)
}

// printRounds prints the per-round breakdown of a multi-round run. Cluster
// rounds measure their communication off the wire; the in-process runtimes
// report the simulated estimate.
func printRounds(w io.Writer, rep *graph.RunReport) {
	label := "est"
	if rep.Mode == engine.Cluster {
		label = "measured"
	}
	fmt.Fprintf(w, "rounds: %d of %d (cap); total comm %d bytes (%s)\n",
		rep.RoundsRun, rep.Rounds, rep.TotalCommBytes, label)
	for _, rs := range rep.RoundStats {
		fmt.Fprintf(w, "  round %d: k=%d input=%d union=%d comm=%d bytes\n",
			rs.Round, rs.K, rs.InputEdges, rs.UnionEdges, rs.TotalCommBytes)
		printRecovery(w, rs.Retries, rs.ReplayedMachines, "    ")
		printMachineStats(w, rs.MachineStats, "    ")
	}
}

// printRecovery reports worker-failure replays (cluster runs only; silent on
// an undisturbed run or round).
func printRecovery(w io.Writer, retries int, replayed []int, indent string) {
	if retries > 0 {
		fmt.Fprintf(w, "%srecovery: %d replay attempts, machines replayed %v\n", indent, retries, replayed)
	}
}

// printMachineStats prints the per-machine phase telemetry the workers
// reported in their TELEM frames (cluster runs only; empty elsewhere).
func printMachineStats(w io.Writer, ms []graph.MachineStats, indent string) {
	for _, m := range ms {
		replayed := ""
		if m.Replayed {
			replayed = " (replayed)"
		}
		fmt.Fprintf(w, "%smachine %d: decode %.2fms build %.2fms encode %.2fms; %d edges in, %d repair iters, %d removals, peak |H| %d%s\n",
			indent, m.Machine, m.DecodeMS, m.BuildMS, m.EncodeMS, m.EdgesIn, m.RepairIters, m.Removals, m.PeakCoreset, replayed)
	}
}

// resolveCluster turns the -cluster flag into worker addresses, forking a
// local fleet of `coreset worker` processes when asked. The returned
// cleanup (possibly nil) tears the fleet down.
func resolveCluster(spec string, k int, stderr io.Writer) (addrs []string, cleanup func(), err error) {
	if spec != "local" {
		addrs, err := cluster.ParseWorkerList(spec)
		return addrs, nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("-cluster local: %w", err)
	}
	lw, err := cluster.SpawnLocal(exe, workerArgs, k, stderr)
	if err != nil {
		return nil, nil, err
	}
	return lw.Addrs(), func() { _ = lw.Close() }, nil
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
		// The service's generator table is the only one: a -gen run and a
		// service generator spec with the same parameters name the same graph.
		src, err := (&service.GenSpec{Name: sp.genName, N: sp.n, Deg: sp.deg, Seed: sp.seed}).Source()
		return src, nil, err
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
// generator draw) as an on-disk dataset that -dataset and serve -datasets
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
	if code, ok := parseFlags(fs, args, ""); !ok {
		return code
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
