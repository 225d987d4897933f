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
// worker fleet — and engine.Run holds the only runtime switch in the
// repository (it yields the runtime's round function, which a single-round
// run calls once and a multi-round run hands to the round driver) and the
// only constructor of the run report. Every
// frontend is a subcommand of the one binary, cmd/coreset: run, ingest,
// serve, worker, load and experiments.
//
//	coreset run ──────┐
//	coreset serve job ┴─▶ engine.Run(ctx, Spec, EdgeSource) ─▶ graph.RunReport
//	  ▲ coreset load            │
//	           ┌────────────────▼────────────────────────────────────┐
//	batch      │ edge list → validate → stream pipeline → verify     │ materialized
//	stream     │ EdgeSource → stream.Pass → k goroutines → compose   │ deployment shape
//	cluster    │ EdgeSource → stream.Pass → k WORKERS over TCP       │ real sockets,
//	           │   (typed frames; shards as lists, coresets as sets) │ measured bytes
//	service    │ resident daemon dispatching jobs to any of the above│ summaries reused
//	           └──────── internal/task builders, internal/core ──────┘
//	rounds     │ any of the above, iterated (task edcs, -rounds N):  │ multi-round MPC
//	           │   ┌────────────────────────────────────────┐        │ (O(log log n)
//	           │   └─▶ shard → k× EDCS → union ─▶ k ← ⌊√k⌋ ──┘        │  rounds)
//
// The streaming runtime (internal/stream) is the deployment's shape: an
// EdgeSource streams edges in batches (from a file, stdin or a generator,
// never holding the full graph), one router (stream.Route, the seeded,
// position-independent partition.HashAssign) sends them to k concurrent
// machine goroutines, each machine maintains its coreset incrementally
// (one-pass greedy matching telemetry plus an exact end-of-stream summary
// for Theorem 1; incremental degree tracking with online level-1 peeling for
// Theorem 2, which discards already-covered edges mid-stream), and a
// coordinator composes the final answer. One pass (stream.Pass) holds that
// loop — route the source over the machines taking part, serve each on its
// own goroutine, publish the final vertex count once the source is drained —
// and both runtimes run it: the batch runtime is the pipeline over the
// materialized edge list, bracketed by self-checks, and the cluster
// coordinator serves each machine of the same pass with a worker
// connection. Every runtime runs the same builders over the same
// k-partitioning and folds their summaries with one function
// (task.Descriptor.FoldStats), so for a fixed (graph, seed, k) they agree bit
// for bit with the materialized reference (task.Descriptor.Batch:
// partition.HashK, then each part, in order, to the task's own builder);
// coreset run selects the runtime with -stream and -cluster (the Spec's
// Runtime), stream.Solve's example walks the pipeline, and experiment E19
// compares the pipeline's throughput and quality with the reference at fixed
// k.
//
// Feeding every runtime is a disk-backed data plane (internal/dataset):
// real graphs are ingested once — `coreset ingest` runs the lenient
// SNAP-style parser (tabs, CRLF, comments tolerated; self-loops dropped)
// and drops repeated edges after their first occurrence, found by one sort
// of 8-byte keys after the last line, recording both counts — and stored as
// segment files of varint-delta encoded edge batches under a JSON manifest
// carrying n, m, per-segment offsets and a sha256 content hash:
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
// The cluster runtime (internal/cluster) makes the machines real: k workers
// (`coreset worker` processes, or loopback listeners inside the coordinator
// under coreset -cluster local) host the very same incremental builders behind a compact
// length-prefixed wire protocol — HELLO/ACK/SHARD/EOS/TELEM/CORESET/ERROR
// frames over TCP, one fixed layout per protocol version, each frame pinned
// by a golden under internal/cluster/testdata/v5 and closed by a CRC-32C
// trailer, so a damaged frame is refused whole (and replayed) rather than
// read as a different one. Two codecs carry edges (internal/graph,
// encode.go). A shard must arrive in the order it was routed, so SHARD
// frames use the order-preserving varint delta batch (graph.AppendEdgeBatch,
// the dataset segment format too). A coreset is a set — a matching, an EDCS, the peeled
// levels and the residual of Theorem 2 — and leaves every machine sorted, so
// CORESET bodies send the set and not a list of it: Golomb–Rice coded gaps of
// the sorted elements (graph.AppendEdgeSet / AppendIDSet), half what the list
// costs. An edge is undirected, so it is numbered in the upper triangle
// U <= V of the stride×stride square, which spares the bit an edge an
// orientation would cost. A Theorem 2 residual touches no vertex its machine
// fixed, and the coordinator decodes the levels first, so its endpoints
// travel as ranks among the unfixed vertices (graph.AppendRankedEdgeSet).
// That is 10 to 16.5 bits an edge on the benchmark inputs, each body within
// 1 % of the information bound of its edge set given what the message has
// already sent — 4 % for the dense vc body, whose peeled levels it counts
// against its residual's bound. The same functions price
// the messages in every runtime (core.CoresetSizeBytes,
// core.VCCoresetSizeBytes), so the communication a batch or stream run
// reports is the byte length the cluster would have sent, exactly. The
// coordinator shards with
// the same seeded hash, so a cluster run is bit-for-bit identical to the
// in-process pipelines for the same (graph, seed, k) — the seed-parity
// tests in internal/cluster assert deep-equal coresets — while
// TotalCommBytes/MaxMachineBytes in the run report are measured off the
// sockets, with the body lengths alongside (EstCommBytes): the difference
// is the frame headers and trailers and the stats varints, to the byte. Failures
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
// stream and cluster. The driver (rounds.Drive) does not know its runtime:
// the engine hands it the same round function a single-round run calls —
// stream.Summaries in process, or Session.Round on the coordinator's one
// conversation with the fleet (cluster.Session, which a single-round run
// opens with a round cap of 1). In cluster mode that session drives all
// rounds: the worker connections are dialed once, a single HELLO carries
// the round cap, each round is a
// SHARD*/EOS/TELEM/CORESET exchange with a fresh per-round EDCS machine, and
// every round's communication is measured off the TCP connections into the
// run report's per-round breakdown (graph.RunReport.RoundStats). The driver
// is exposed as coreset -rounds N, the service job field "rounds"
// (folded into the result-cache key), coreset load -rounds, experiment
// E22 (rounds vs quality vs communication) and the rounds.* rows of the
// benchmark ledger (bench/out/result.json); engine.Run's multi-round example
// walks the per-round shrink end to end, in process and over TCP.
//
// Builder memory model. The model grants each machine O(m/k) space, the
// same budget in every run, and each task's builder (internal/task) spends
// it differently. The matching and vc builders keep their shard in a
// graph.EdgeStore: fixed blocks of 1024 edges (graph.BlockEdges, 8 KiB)
// that are never copied or re-grown, so a shard costs the 8 bytes per edge
// it holds plus under one block of slack (an append-grown slice allocates
// about five times what it ends up holding). The blocks come from one
// process-wide free list (graph.GetBlock, a sync.Pool), which the router's
// batches are drawn from too, and each builder hands its memory back at
// Finish once its summary no longer needs it, so the next job's machines
// reuse it instead of allocating. A slice the store only borrows
// (graph.BorrowEdges) is never put on the free list, no summary, solution
// or report aliases a block, and a machine dropped by cancellation leaves
// its blocks to the GC. Blocks held on the free list between jobs count as
// live heap. The matching builder adds a 4-byte greedy-mate entry per
// vertex ID, sized once from the declared n, and its Finish hands the
// store's chunks to matching.Maximum, which reads them in place, then
// releases the store. The vc builder keeps a 4-byte running degree per
// vertex, in a table taken from graph's free list of int32 tables
// (graph.GetInt32s, size-classed sync.Pools whose classes round a length up
// by at most 1/16) and handed back at Finish — level 1 is every vertex whose
// degree reached its threshold — and stores only the edges that no level-1
// vertex covers yet (every edge, when the source cannot declare n); its
// Finish is the edge-list peel (core.PeelVC), which runs in that degree
// table and needs no adjacency: per level that fixed a vertex, one sweep
// over the store drops the covered edges, compacts the chunks in place
// (returning the blocks it empties) and recounts the survivors' degrees, and
// the next level is selected from that table in ascending vertex order (a
// level above every degree left is recorded without a scan). The peel
// allocates a dead flag per vertex once a level fixes someone, and copies
// the residual, exactly what survives and sorted only if the store saw an
// edge out of order, into a slice from graph's free list of edge slices
// (EdgeStore.Edges, graph.GetEdges), after which it releases the store — the
// batch core.ComputeVCCoreset runs the same loop over a borrowed slice it
// never writes, in a degree table of its own from the int32 free list. A
// residual belongs to the summary that carries it, and goes back to the free
// list (task.Release) where the run is done with it: a cluster worker hands
// it back as soon as its CORESET frame is encoded, the coordinator decodes
// each machine's residual into a slice of its own from the same free list
// (core.DecodeVCCoreset), and engine.Run, stream.Solve and cluster.Solve
// hand back every summary's residual once they have composed and reported.
// The composer's n-sized mark table (core.ComposeVC) comes from the int32
// free list and goes back before it returns; only the cover is allocated. So
// a warm vc run allocates under 2 bytes per edge (TestVCRunAllocationBudget
// in internal/engine). Summaries taken from a round function
// (stream.Summaries, Session.Round) are the caller's to release;
// task.Descriptor.Batch, the reference, leaves its summaries to the GC, as
// it does any residual never handed back. The matching and edcs summaries
// stay GC-managed: recycling them was measured to cost more resident memory
// than it saved. The
// diversity builder holds no edges, only the set of vertex IDs it saw. The
// edcs builder (edcs.Subgraph) stores each distinct non-loop edge as two
// 4-byte entries, one in each endpoint's chain of 64-byte blocks: a block
// is one cache line holding its owner, the next block's number, an entry
// count with the entries' H bits, and 13 entries in arrival order, each the
// neighbour with the edge's orientation. Blocks come from 1024-block chunks
// that are never copied. Next to them sit five small per-vertex tables
// (H-degree, stored degree, chain head and tail, dirty flag) and an
// open-addressed dedup index that holds only the edges between two heavy
// vertices, those whose chains hold at least 26 entries, at 5–11 bytes each
// (the 4-byte location of either entry, load between 3/8 and 3/4). An
// arrival with a light endpoint is checked against its lighter endpoint's
// chain, at most two blocks, instead. Chunks instead of doubling make the bytes
// allocated the bytes held, and an insert allocates once per chunk or index
// doubling, not once per edge. Per stored edge the builder allocates 111 B
// at a per-machine average degree of 1, where nearly every block is a
// chain's only, mostly empty one, 15.8 B at 16, where few vertices are
// heavy and the index stays small, and 27.3 B at 64, where the index holds
// nearly every edge. The
// data plane around the builders is allocation-free in the steady state:
// dataset segments and SHARD frames decode into reused buffers
// (graph.DecodeEdgeBatchInto), the stream and cluster sharders take their
// routing batches back from the machines and senders that drained them and
// hand them to the block free list when the pass ends, a
// cluster link encodes every SHARD frame into one buffer, and a worker
// reads every mid-run frame into one per connection (the coordinator, which
// keeps the TELEM and CORESET payloads it reads, does not). Every frame,
// from either side, leaves in one write: its sender reserves the 5 header
// bytes in front of the payload it encodes and appends the 4-byte checksum
// trailer behind it, so the frame shares one TCP segment without a copy. A
// worker reads each connection through one buffered reader, the HELLO
// included, so one read brings in several SHARD frames. Neither granularity
// is part of the protocol: the bytes are version 5's whichever way they are
// cut.
//
// Above both runtimes sits the service layer (internal/service, served by
// coreset serve): a long-running daemon that keeps graphs and their composed
// results resident, which is how the paper frames randomized composable
// coresets in the first place — summaries computed once and reused across
// many queries. Its architecture:
//
//	service.Client     ┌───────────────────── coreset serve ──────────────────────┐
//	AddGraph ─────────▶│ Registry: id → resident edges (upload | gen spec drawn   │
//	                   │           once) | dataset ref (ref-counted, LRU-evicted) │
//	                   │      │ Acquire/Release                                   │
//	Submit ───────────▶│ Manager: bounded queue ─▶ worker pool ─▶ engine.Run      │
//	Wait (long-poll)   │          (cancel via context)    (batch|stream|cluster)  │
//	                   │      │ publish on success                                │
//	Stats, Metrics ───▶│ Cache: (graph, task, k, seed, mode, beta, rounds)        │
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
// memory without re-running any pipeline (the service's cache-hit counters
// make this observable, and the benchmark's service_mix workload records
// the cold-vs-hit latency gap in bench/out/result.json). Jobs of
// every mode honor cancellation at batch granularity; on shutdown the daemon drains in-flight jobs before
// exiting. The CLI and the service share graph.RunReport as their result
// schema, and more than the schema: every runtime returns the one run-stats
// struct (core.PipelineStats; a multi-round run carries one per round), and
// the engine's report function is the single place that turns it into a
// RunReport, so coreset -json and a coreset serve job give the same report
// for the same request. Each counter is declared once: the per-machine and
// communication accounting is graph.RunCounts, embedded in the stats, the
// report and each round's graph.RoundReport, so the engine copies it as one
// block, and the EDCS build
// counters are graph.BuildCounters, which the builder returns, the TELEM
// frame carries and graph.MachineStats embeds. The root TestArchitecture
// keeps every RunReport and RoundReport literal inside internal/engine.
// The batch runtime's self-checks (input structure, the task's verifier)
// live in the engine too, so daemon batch jobs run them like CLI runs do.
// coreset load is the matching load generator: it drives the HTTP API
// through service.Client, and a worker fleet through the service's
// cluster-mode jobs.
//
// Observability (internal/obs) is dependency-free and off by default: the
// runtimes write to the *obs.Registry their caller passes (Spec.Metrics;
// nil is silent), resolving their counters once per session or run, and
// trace through a nil-safe *obs.Tracer (BenchmarkObsOverhead asserts
// 0 allocs/op for the tracer off and the per-frame counter add).
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
