// Package repro is a production-quality Go reproduction of
//
//	Sepehr Assadi and Sanjeev Khanna.
//	"Randomized Composable Coresets for Matching and Vertex Cover".
//	SPAA 2017 (arXiv:1705.08242).
//
// The paper shows that although maximum matching and minimum vertex cover
// admit no small summaries under adversarial edge partitioning, a *random*
// k-partitioning changes everything: any maximum matching of a machine's
// partition is an O(1)-approximate composable coreset (Theorem 1), and an
// iterative peeling algorithm yields an O(log n)-approximate coreset for
// vertex cover (Theorem 2) — both of size O~(n). The repository implements
// the coresets, the protocol variants that make the paper's communication
// lower bounds tight (Remarks 5.2 and 5.8), the negative baselines, the
// hard input distributions behind the lower bounds (Theorems 3-6), the
// 2-round MapReduce algorithms, and an experiment harness (internal/expt,
// `coreset experiments`) that regenerates a measurable table for every
// formal claim, with notes on the observed against the predicted shape.
//
// Four runtimes execute the model over one core, trading realism for
// convenience at each step, and one engine (internal/engine) sits between
// them and every frontend: a frontend states what it wants as an
// engine.Spec — task, β, rounds, runtime, k, seed, batch size, the resolved
// worker fleet — and engine.Run holds the only runtime × rounds dispatch in
// the repository and the only constructor of the run report. Every
// frontend is a subcommand of the one binary, cmd/coreset: run, ingest,
// serve, worker, load and experiments.
//
//	coreset run ──────┐
//	coreset serve job ┼─▶ engine.Run(ctx, Spec, EdgeSource) ─▶ graph.RunReport
//	coreset load ─────┘         │ (-target cluster)
//	           ┌────────────────▼────────────────────────────────────┐
//	batch      │ materialize edges → RandomK parts → map → compose   │ simulator's view
//	stream     │ EdgeSource → hash sharder → k goroutines → compose  │ deployment shape
//	cluster    │ EdgeSource → hash sharder → k OS PROCESSES over TCP │ real machines,
//	           │   (typed frames; shards as lists, coresets as sets) │ measured bytes
//	service    │ resident daemon dispatching jobs to any of the above│ summaries reused
//	           └──────────────── internal/core ──────────────────────┘
//	rounds     │ any of the above, iterated (task edcs, -rounds N):  │ multi-round MPC
//	           │   ┌────────────────────────────────────────┐        │ (O(log log n)
//	           │   └─▶ shard → k× EDCS → union ─▶ k ← ⌊√k⌋ ──┘        │  rounds)
//
// The batch pipeline (internal/core) materializes the edge list, partitions
// it with a single sequential RNG (partition.RandomK) and maps over the
// parts — the simulator's view. The streaming runtime (internal/stream) is
// the deployment's shape: an EdgeSource streams edges in batches (from a
// file, stdin or a generator, never holding the full graph), a seeded
// position-independent hash sharder (partition.HashAssign) routes them to k
// concurrent machine goroutines, each machine maintains its coreset
// incrementally (one-pass greedy matching telemetry plus an exact
// end-of-stream summary for Theorem 1; incremental degree tracking with
// online level-1 peeling for Theorem 2, which discards already-covered
// edges mid-stream), and a coordinator composes the final answer. Given the
// same hash k-partitioning the runtimes agree bit for bit (internal/stream's
// parity tests); coreset run selects between them with -stream (the Spec's
// Runtime), stream.Solve's example walks the pipeline, and experiment E19
// compares their throughput and quality at fixed k.
//
// Feeding every runtime is a disk-backed data plane (internal/dataset):
// real graphs are ingested once — `coreset ingest` runs the lenient
// SNAP-style parser (tabs, CRLF, comments tolerated; self-loops and
// duplicate edges dropped and recorded) — and stored as segment files of
// varint-delta encoded edge batches under a JSON manifest carrying n, m,
// per-segment offsets and a sha256 content hash:
//
//	edge list ─▶ coreset ingest ─▶ ┌ manifest.json (n, m, offsets, sha256) ┐
//	generator ─▶                   └ edges.seg (varint-delta batches)      ┘
//	                                    │ ReadSegment (positioned reads,
//	                                    ▼  bounded resident budget)
//	            stream.DatasetSource ─▶ batch │ stream │ cluster │ service
//
// The codec is the same fuzz-hardened edge-batch encoding the cluster wire
// protocol ships, so bytes on disk and bytes on the wire never drift. A
// DatasetSource is restartable by construction (segments are seekable),
// which is exactly what cluster round replay requires; sources that are
// not — a non-seekable reader — fail replay with a typed
// stream.NotRestartableError naming the source kind instead of replaying
// wrong data. The service layer registers datasets by name from a store
// directory (coreset serve -datasets) and keys cached results by the manifest's
// content hash, so a repeated job on a stored graph is answered with zero
// re-parse and zero re-read, regardless of the ID it was registered under.
//
// The cluster runtime (internal/cluster) makes the machines real: k worker
// OS processes (`coreset worker`, or self-spawned by coreset -cluster
// local) host the very same incremental builders behind a compact
// length-prefixed wire protocol — HELLO/ACK/SHARD/EOS/CORESET/ERROR frames
// over TCP. Two codecs carry edges (internal/graph, encode.go). A shard must
// arrive in the order it was routed, so SHARD frames use the
// order-preserving varint delta batch (graph.AppendEdgeBatch, the dataset
// segment format too). A coreset is a set — a matching, an EDCS, the peeled
// levels and the residual of Theorem 2 — and leaves every machine sorted, so
// CORESET bodies send the set and not a list of it: Golomb–Rice coded gaps of
// the sorted elements (graph.AppendEdgeSet / AppendIDSet), 13 to 17 bits an
// edge on the benchmark inputs against an information bound within 2 % of
// that, half what the list costs. The same functions price the messages in
// every runtime (core.CoresetSizeBytes, core.VCCoresetSizeBytes), so the
// communication a batch or stream run reports is the byte length the cluster
// would have sent, exactly. The coordinator shards with
// the same seeded hash, so a cluster run is bit-for-bit identical to the
// in-process pipelines for the same (graph, seed, k) — the seed-parity
// tests in internal/cluster assert deep-equal coresets — while
// TotalCommBytes/MaxMachineBytes in the run report are measured off the
// sockets, with the body lengths alongside (EstCommBytes): the difference
// is the frame headers and the stats varints, to the byte. Failures
// surface as typed *cluster.WorkerError values carrying a FailureKind
// taxonomy, and the retryable kinds — dial refused, connection drop, a
// frame stalled past Config.IOTimeout — do not abort the run: because the
// hash sharding is seeded, any machine's shard is deterministically
// recomputable, so the coordinator re-dials the lost worker (or promotes a
// Config.Spares standby) under capped exponential backoff and replays only
// the current round against it, bit-identical to the undisturbed run (the
// fault-injection tests in internal/cluster and the SIGKILL chaos drill in
// cmd/coreset pin this). An exhausted Config.MaxRetries budget fails the
// run with a terminal error wrapping ErrRetriesExhausted, handshake and
// protocol errors are never retried, concurrent secondary failures join
// behind the causally-first one via errors.Join, cancellation force-closes
// connections so nothing hangs, and workers drain gracefully on shutdown.
// Experiment E20 tabulates simulated vs measured
// communication as n and k scale, and the benchmark (go run -C bench .,
// workload dense_vc_cluster, ledger bench/out/result.json) prices the wire
// against the in-process runtime.
//
// The runtimes themselves are task-agnostic: every task lives as a
// task.Descriptor in the internal/task registry — the per-machine
// incremental builder, the CORESET body codec, the coordinator-side
// composer, the batch reference pipeline and the parameter rules (UsesBeta,
// the multi-round wire byte) bundled behind one name and one wire byte —
// and batch, stream, cluster and the service all dispatch through it, with
// no per-task branches in any runtime. Registering a descriptor is the
// entire integration surface: the CLIs derive their accepted-task lists,
// usage strings and "unknown task" errors from task.Names(), shared
// validation (task.ValidateParams) rejects parameters a task does not
// declare with messages pinned byte-identical across the service and both
// CLIs, the service derives its cache keys and pre-creates its per-task
// service_jobs_total metric series from the same table, and the cluster
// wire protocol resolves task bytes through task.ByWire — a HELLO carrying
// an unknown byte fails with a typed *cluster.UnknownTaskError naming the
// byte and the registry's known range, with no protocol version bump
// needed. The proof of the interface is task "diversity"
// (internal/diversity), a composable core-set for dispersion maximization
// in the style of Indyk, Mahabadi, Mahdian and Mirrokni (arXiv:1506.06715):
// each machine summarizes its shard as Gonzalez greedy farthest-point
// k-centers over the vertex IDs it saw (line metric |u-v|) and the
// coordinator re-runs the same greedy over the union of the summaries.
// Its summary is a vertex set rather than an edge set — deliberately not
// matching-shaped — and it was added as one package plus one registry
// entry, seed-parity-checked across batch, stream and cluster like the
// built-in tasks.
//
// Beyond the paper's own summaries, internal/edcs implements the
// edge-degree constrained subgraph coreset of the follow-up work "Coresets
// Meet EDCS" (Assadi, Bateni, Bernstein, Mirrokni, Stein; arXiv:1711.03076):
// a subgraph H in which every H-edge has bounded endpoint H-degrees (≤ β)
// and every non-H-edge already sees β⁻ worth of them. A per-machine EDCS is
// a randomized composable coreset whose union contains a (3/2+ε)-approximate
// maximum matching — strictly better than Theorem 1's O(1) — at the same
// O~(n) size. The construction is edge insertion with degree-constraint
// repair, a pure function of the machine's arrival order, so EDCS runs are
// bit-for-bit identical across all four runtimes: task "edcs" is first-class
// in the CLI (-task edcs, with -beta), the streaming builders (stream.Solve
// with the edcs descriptor), the cluster wire protocol (the HELLO frame
// carries β, β⁻), and the service job API. Experiment E21 prices the EDCS
// against the Theorem 1 coreset (approximation ratio, coreset bytes, measured cluster
// communication) and the benchmark's per-task rows (task.edcs.* beside
// task.matching.* in bench/out/result.json, written by go run -C bench .)
// compare the per-machine summary costs.
//
// The same paper's O(log log n)-round MPC algorithms come from *iterating*
// the sketch, and internal/rounds is that round-driver: round r shards its
// input over k_r machines, builds one EDCS per machine, unions the coresets
// (at most k·n·β/2 edges — a geometric shrink on dense inputs) and reshards
// the union over k_{r+1} = ⌊√k_r⌋ machines with a fresh per-round seed,
// until the configured cap or until the union stops shrinking; the final
// matching is composed over the last (much smaller) union. Round 0 uses the
// root seed, so a rounds=1 run reproduces the single-round EDCS pipeline
// bit for bit, and the whole schedule is seed-parity-checked across batch,
// stream and cluster. In cluster mode the coordinator's one conversation
// (cluster.Session — a single-round cluster.Solve is the same session with a
// round cap of 1) drives all rounds: the worker connections are dialed
// once, a single HELLO carries the round cap (task byte 4 on the same
// protocol version), each round is a
// SHARD*/EOS/CORESET exchange with a fresh per-round EDCS machine, and
// every round's communication is measured off the TCP connections into the
// run report's per-round breakdown (graph.RunReport.RoundStats). The driver
// is exposed as coreset -rounds N, the service job field "rounds"
// (folded into the result-cache key), coreset load -rounds, experiment
// E22 (rounds vs quality vs communication) and the rounds.* rows of the
// benchmark ledger (bench/out/result.json); engine.Run's multi-round example
// walks the per-round shrink end to end, in process and over TCP.
//
// Builder memory model. The model grants each machine O(m/k) space, and
// each task's builder (internal/task) spends it differently. The matching
// and vc builders keep their shard in a graph.EdgeStore: chunks that double
// up to 32768 edges and are never copied or re-grown, so a shard costs the 8
// bytes per edge it holds plus under one chunk of slack (an append-grown
// slice allocates about five times what it ends up holding). The matching
// builder adds a 4-byte greedy-mate entry per vertex ID and flattens the
// store once, for the matcher, at Finish. The vc builder keeps a 4-byte
// degree and a peeled flag per vertex and stores only the edges that no
// level-1 vertex covers yet (every edge, when the source cannot declare n);
// its Finish is the edge-list peel (core.PeelVC), which needs no adjacency:
// per level that fixed a vertex, one sweep over the store drops the covered
// edges, compacts the chunks in place and recounts the survivors' degrees,
// and the next level is selected from that table in ascending vertex order.
// The peel allocates two O(n) tables and the residual, sized to what
// survives — the batch core.ComputeVCCoreset runs the same loop over a
// borrowed slice it never writes. The
// diversity builder holds no edges, only the set of vertex IDs it saw. The
// edcs builder (edcs.Subgraph) stores each distinct non-loop edge once, in
// arrival order, as a 20-byte slot — endpoints, one next-link per endpoint
// threading the vertices' incidence lists, the in-H flag — inside
// 4096-slot chunks that are never copied, plus 5–11 bytes of open-addressed
// dedup index (4-byte refs, load between 3/8 and 3/4) and four small
// per-vertex tables (H-degree, list head and tail, dirty flag). Chunks
// instead of doubling make the bytes allocated the bytes held, and an
// insert allocates once per chunk or index doubling, not once per edge. The
// data plane around the builders is allocation-free in the steady state:
// dataset segments and SHARD frames decode into reused buffers
// (graph.DecodeEdgeBatchInto), the stream and cluster sharders take their
// routing batches back from the machines and senders that drained them, a
// cluster link encodes every SHARD payload into one buffer, and a worker
// reads every mid-run frame into one per connection (the coordinator, which
// keeps the TELEM and CORESET payloads it reads, does not).
//
// Above both runtimes sits the service layer (internal/service, served by
// coreset serve): a long-running daemon that keeps graphs and their composed
// results resident, which is how the paper frames randomized composable
// coresets in the first place — summaries computed once and reused across
// many queries. Its architecture:
//
//	                   ┌───────────────────── coreset serve ──────────────────────┐
//	POST /v1/graphs ──▶│ Registry: id → uploaded edges | gen spec | dataset ref   │
//	                   │           (ref-counted, LRU-evicted)                     │
//	                   │      │ Acquire/Release                                   │
//	POST /v1/jobs ────▶│ Manager: bounded queue ─▶ worker pool ─▶ engine.Run      │
//	GET  /v1/jobs/{id} │          (cancel via context)    (batch|stream|cluster)  │
//	                   │      │ publish on success                                │
//	GET  /v1/stats ───▶│ Cache: (graph, task, k, seed, mode, beta, rounds)        │
//	                   │        (LRU, hit/miss counters)                          │
//	                   └──────────────────────────────────────────────────────────┘
//
// A job names a registered graph, a task (any registry entry — matching,
// vc, edcs or diversity), k, a seed
// and a mode (batch, stream, or — when the daemon was started with -cluster
// — cluster, which dispatches the run to the configured `coreset worker`
// fleet).
// Because every runtime is a deterministic function of the seed, the
// composed run report is cacheable: a repeated query is answered from
// memory without re-running any pipeline (the cache-hit counters in
// /v1/stats make this observable, and the benchmark's service_mix workload
// records the cold-vs-hit latency gap in bench/out/result.json). Streaming
// and cluster jobs honor cancellation at batch granularity, batch jobs at
// round boundaries; on shutdown the daemon drains in-flight jobs before
// exiting. The CLI and the service share graph.RunReport as their result
// schema, and more than the schema: every runtime returns the one run-stats
// struct (core.PipelineStats — stream.Stats and cluster.Stats are aliases
// of it, a multi-round run carries one per round), and the engine's report
// function is the single place that turns it into a RunReport, so coreset
// -json and a coreset serve job give the same report for the same request.
// The batch runtime's self-checks (input structure, the task's verifier)
// live in the engine too, so daemon batch jobs run them like CLI runs do.
// coreset load is the matching load generator (-target service drives the
// HTTP API, -target cluster drives a worker fleet directly).
//
// Observability (internal/obs) is dependency-free and off by default: the
// runtimes report through an injected obs.Sink and a nil-safe *obs.Tracer,
// both free when unset (BenchmarkObsOverhead asserts 0 allocs/op).
// Tracing is cross-process: the coordinator derives a run ID from the root
// seed (deterministic, so fixed-seed traces reproduce) or mints one per
// daemon job, ships it to every worker in the HELLO frame, and a worker
// started with -trace stamps its own spans with that ID — one grep over the
// combined slog streams reconstructs a distributed run. The workers answer
// with in-band telemetry: a TELEM frame per round carrying phase wall times
// (shard decode, insert/repair, coreset encode) and build counters, which
// the coordinator folds into the run report's per-machine breakdown
// (graph.MachineStats; replayed machines report their replacement attempt).
// The same breakdown exports as a Perfetto-loadable Chrome trace timeline
// (coreset -trace-out). Both resident roles expose the operational surface —
// /metrics in Prometheus text exposition, /healthz, pprof — through one
// admin mux via -admin (coreset serve, coreset worker), and coreset load
// -scrape snapshots any set of those surfaces around a load run and prints
// per-URL counter deltas.
package repro
