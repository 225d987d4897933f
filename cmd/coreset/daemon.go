package main

// serve and worker are the two resident roles of the binary.
//
// `coreset serve` is the long-running coreset service: it keeps graphs and
// their composed coreset results resident and answers matching / vertex-cover
// queries over HTTP, so the reusable summaries the paper constructs are
// computed once and served many times.
//
//	coreset serve -addr :8440
//	coreset serve -addr :8440 -datasets /var/lib/coreset/datasets
//	coreset serve -addr :8440 -cluster host:9601,host:9602
//
// With -datasets DIR it serves a dataset store built by `coreset ingest`:
// graphs registered as {"dataset": "name"} keep their edges on disk, jobs
// stream them segment by segment, and results are cached by the dataset's
// content hash — a repeated job on a stored graph never re-parses or even
// re-reads it. With -cluster it can also dispatch jobs to a fleet of
// resident `coreset worker` processes: a job with mode "cluster" (k must
// equal the fleet size) runs the coordinator against them and its report
// carries measured wire bytes next to the simulated estimate.
//
// API (JSON unless noted):
//
//	POST   /v1/graphs     register a graph: JSON {"gen": {...}},
//	                      {"edgeList": "..."} or {"dataset": "name"} (a stored
//	                      dataset from the -datasets store, streamed off disk);
//	                      any other content type is raw edge-list text
//	                      (optional ?id=NAME)
//	GET    /v1/graphs/{id}  describe a registered graph
//	DELETE /v1/graphs/{id}  drop an idle graph
//	POST   /v1/jobs       submit a job: {"graph","task","k","seed","mode"}
//	                      (any task registered in internal/task — currently
//	                      matching | vc | edcs | diversity; edcs takes "beta")
//	GET    /v1/jobs/{id}  poll a job; ?wait=2s long-polls until terminal
//	DELETE /v1/jobs/{id}  cancel a job
//	GET    /v1/stats      registry / job / cache counters
//	GET    /healthz       liveness probe (text); 503 "draining" during shutdown
//	GET    /metrics       Prometheus text exposition
//
// `coreset worker` is one of the paper's k machines as a long-running OS
// process. It accepts run-assignment connections from any coordinator
// (coreset -cluster, coreset serve -cluster or coreset load -target
// cluster), hosts the same incremental coreset builders the in-process
// runtimes use, and answers each run with a single CORESET frame over the
// measured wire protocol (internal/cluster). It serves any number of
// concurrent runs and keeps no state between them. Once the listener is
// bound it prints
//
//	CORESETWORKER READY <host:port>
//
// on stdout, which is how self-spawn deployments (coreset -cluster local,
// cluster.SpawnLocal) learn the address when -addr ends in :0; with -admin
// a second line, CORESETWORKER ADMIN <host:port>, names the admin surface.
// With -exit-on-stdin-eof the worker also stops when its stdin closes, the
// lifetime contract SpawnLocal uses so orphaned workers die with their
// parent. With -trace it logs run and round spans stamped with the run ID
// the coordinator shipped in its HELLO, so worker streams join the
// coordinator's -trace stream by run ID.
//
// Both roles share one -admin surface — GET /metrics (Prometheus text),
// GET /healthz and net/http/pprof under /debug/pprof/, on a listener kept
// off the job- or coordinator-facing port — and one drain sequence: on
// SIGINT/SIGTERM the listeners stop accepting (the service's /healthz first
// flips to "draining"), in-flight jobs or runs finish within -drain, and the
// process exits.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
)

// runServe is the serve subcommand; it drains and returns when ctx ends.
func runServe(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("coreset serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8440", "listen address")
		workers   = fs.Int("workers", 4, "job worker pool size")
		queue     = fs.Int("queue", 64, "pending-job queue depth")
		maxGraphs = fs.Int("max-graphs", 64, "resident graph cap (idle graphs beyond it are evicted)")
		cacheCap  = fs.Int("cache", 256, "result cache capacity (entries)")
		drain     = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		clusterW  = fs.String("cluster", "", "comma-separated `coreset worker` addresses; enables jobs with mode 'cluster'")
		spares    = fs.String("spares", "", "comma-separated standby worker addresses round replay may substitute for failed fleet members")
		retries   = fs.Int("max-retries", cluster.DefaultMaxRetries, "per-machine, per-round replay budget after a cluster worker failure (0 = fail fast)")
		datasets  = fs.String("datasets", "", "dataset store directory (coreset ingest layout); enables {\"dataset\": name} registrations")
		admin     = fs.String("admin", "", "optional admin listener address serving /metrics, /healthz and /debug/pprof/")
		trace     = fs.Bool("trace", false, "log job and round spans to stderr")
	)
	if code, ok := parseFlags(fs, args, ""); !ok {
		return code
	}
	logger := log.New(stderr, "coreset serve: ", log.LstdFlags)

	var fleet, spareFleet []string
	var err error
	if *clusterW != "" {
		if fleet, err = cluster.ParseWorkerList(*clusterW); err != nil {
			logger.Printf("-cluster: %v", err)
			return 2
		}
	}
	if *spares != "" {
		if len(fleet) == 0 {
			logger.Printf("-spares requires -cluster")
			return 2
		}
		if spareFleet, err = cluster.ParseWorkerList(*spares); err != nil {
			logger.Printf("-spares: %v", err)
			return 2
		}
	}
	if err := checkMaxRetries(fs, *retries, len(fleet) > 0, "-cluster"); err != nil {
		logger.Print(err)
		return 2
	}
	maxRetries := *retries
	if maxRetries == 0 {
		maxRetries = -1 // service convention: negative disables replay
	}
	var tracer *obs.Tracer
	if *trace {
		tracer = obs.NewTracer(slog.New(slog.NewTextHandler(stderr, nil)), "")
	}
	svc := service.New(service.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		MaxGraphs:         *maxGraphs,
		CacheSize:         *cacheCap,
		ClusterWorkers:    fleet,
		ClusterSpares:     spareFleet,
		ClusterMaxRetries: maxRetries,
		DatasetDir:        *datasets,
		Tracer:            tracer,
	})
	httpSrv := &http.Server{Handler: svc, ReadTimeout: 5 * time.Minute}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("listen: %v", err)
		return 1
	}
	if len(fleet) > 0 {
		logger.Printf("cluster fleet: %d workers (%s)", len(fleet), *clusterW)
	}
	if *datasets != "" {
		logger.Printf("dataset store: %s", *datasets)
	}
	logger.Printf("serving on %s (workers=%d queue=%d)", ln.Addr(), *workers, *queue)
	d := &daemon{logger: logger, drain: *drain}
	// The service routes /healthz itself, so the admin probe flips to 503
	// "draining" with the job API's.
	if _, err := d.listenAdmin(*admin, adminMux(svc.Metrics(), svc)); err != nil {
		logger.Printf("admin listen: %v", err)
		ln.Close()
		return 1
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	stopAccepting := func(ctx context.Context) error {
		// Flip /healthz to "draining" before the listeners come down, so load
		// balancers stop routing while in-flight requests finish.
		svc.BeginDrain()
		return httpSrv.Shutdown(ctx)
	}
	if err := d.serveUntil(ctx, serveErr, stopAccepting, svc.Shutdown); err != nil {
		logger.Print(err)
		return 1
	}
	logger.Printf("drained cleanly")
	return 0
}

// runWorker is the worker subcommand; it drains and returns when ctx ends,
// or when stdin closes under -exit-on-stdin-eof.
func runWorker(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coreset worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
		drain    = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget for in-flight runs")
		stdinEOF = fs.Bool("exit-on-stdin-eof", false, "shut down when stdin closes (set by self-spawn parents)")
		quiet    = fs.Bool("q", false, "log nothing: no lifecycle lines, no per-run abort lines")
		admin    = fs.String("admin", "", "optional admin listener address serving /metrics, /healthz and /debug/pprof/")
		trace    = fs.Bool("trace", false, "log run and round spans to stderr (run IDs join the coordinator's trace stream)")
	)
	if code, ok := parseFlags(fs, args, ""); !ok {
		return code
	}
	logger := log.New(stderr, "coreset worker: ", log.LstdFlags)
	if *quiet {
		logger = log.New(io.Discard, "", 0)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "coreset worker: listen:", err)
		return 1
	}
	// The ready line is the machine-readable contract with SpawnLocal; print
	// it only after the listener is bound so the address is dialable.
	fmt.Fprintf(stdout, "%s%s\n", cluster.ReadyPrefix, ln.Addr())
	logger.Printf("serving on %s", ln.Addr())

	w := cluster.NewWorker(logger)
	var tracer *obs.Tracer
	if *trace {
		// The empty base run ID is deliberate: every span is stamped with the
		// run ID the coordinator's HELLO carries, never a locally minted one.
		tracer = obs.NewTextTracer(stderr, "")
	}
	reg := obs.NewRegistry()
	w.Instrument(tracer, reg)

	d := &daemon{logger: logger, drain: *drain}
	ok := http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(rw, "ok")
	})
	adminAddr, err := d.listenAdmin(*admin, adminMux(reg, ok))
	if err != nil {
		fmt.Fprintln(stderr, "coreset worker: admin listen:", err)
		ln.Close()
		return 1
	}
	if adminAddr != nil {
		// A second machine-readable line so harnesses that bind the admin
		// surface to port 0 can find it (same contract as the ready line).
		fmt.Fprintf(stdout, "CORESETWORKER ADMIN %s\n", adminAddr)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- w.Serve(ln) }()

	if *stdinEOF {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		go func() {
			_, _ = io.Copy(io.Discard, stdin)
			logger.Printf("stdin closed")
			cancel()
		}()
	}
	// Worker.Shutdown both stops accepting and waits for in-flight runs.
	if err := d.serveUntil(ctx, serveErr, nil, w.Shutdown); err != nil {
		logger.Printf("%v (served %d runs)", err, w.Served())
		return 1
	}
	logger.Printf("drained cleanly (served %d runs)", w.Served())
	return 0
}

// adminMux is the operational surface serve and worker share behind
// -admin: reg rendered at GET /metrics, health at GET /healthz, and the
// stdlib pprof endpoints — one contract, so one set of scrape and
// profiling tooling covers the service and every worker.
func adminMux(reg *obs.Registry, health http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /healthz", health)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// daemon is the lifecycle serve and worker share: an optional admin
// listener beside the primary one, and one drain sequence once ctx ends.
type daemon struct {
	logger *log.Logger
	drain  time.Duration
	admin  *http.Server // nil without -admin
}

// listenAdmin serves mux on addr and returns the bound address; an empty
// addr starts nothing and returns nil.
func (d *daemon) listenAdmin(addr string, mux http.Handler) (net.Addr, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d.admin = &http.Server{Handler: mux}
	d.logger.Printf("admin surface on %s (/metrics, /healthz, /debug/pprof/)", ln.Addr())
	go func() {
		if err := d.admin.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.logger.Printf("admin serve: %v", err)
		}
	}()
	return ln.Addr(), nil
}

// serveUntil waits until ctx ends — a signal, stdin EOF, a test — or the
// primary server fails (serveErr), then drains: stopAccepting (may be nil)
// closes the primary listener and the admin listener closes with it, then
// drainWork waits for in-flight work. Each step has its own -drain budget,
// so a client parked in a long-poll cannot eat the time the work drain needs.
func (d *daemon) serveUntil(ctx context.Context, serveErr <-chan error, stopAccepting, drainWork func(context.Context) error) error {
	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	d.logger.Printf("shutting down: draining for up to %v", d.drain)
	withBudget := func(step func(context.Context) error) error {
		ctx, cancel := context.WithTimeout(context.Background(), d.drain)
		defer cancel()
		return step(ctx)
	}
	if err := withBudget(func(ctx context.Context) error {
		var errs []error
		if stopAccepting != nil {
			errs = append(errs, stopAccepting(ctx))
		}
		if d.admin != nil {
			errs = append(errs, d.admin.Shutdown(ctx))
		}
		return errors.Join(errs...)
	}); err != nil {
		d.logger.Printf("listener shutdown: %v", err)
	}
	if err := withBudget(drainWork); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	return nil
}
