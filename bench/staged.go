package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/edcs"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rounds"
	"repro/internal/stream"
	"repro/internal/task"
)

// stagedLayers are the spans of the staged replay, in pipeline order. Their
// self times are what trace.accounted_share sums; whatever the replay spends
// outside them (routing appends, bookkeeping) is the harness's own.
var stagedLayers = []string{
	"stream.source_next",
	"partition.hash_assign",
	"graph.encode_batch",
	"graph.decode_batch",
	"task.add",
	"task.finish",
	"task.summary_encode",
	"task.summary_decode",
	"task.compose",
}

// staged is what one staged replay hands to the rest of the traced pass.
type staged struct {
	n      int
	shards [][]graph.Edge // machine → routed edges, arrival order
	sums   []task.Summary // machine → summary, after the codec round trip
	sol    task.Solution  // composed from sums
	wall   time.Duration  // the replay's root span
}

// replayStaged runs ONE job stage by stage on the calling goroutine, through
// the same public functions the stream and cluster runtimes call, a span
// around every call: source read, hash routing into k pending batches of
// stream.DefaultBatchSize (the coordinator's own batching), the edge-batch
// codec both ways per routed batch, then per machine Add, Finish and the
// summary codec both ways, then Compose. It fills the staged-layer rows of m.
//
// It is also the single-threaded baseline of the job, and by the repo's seed
// parity guarantee it must reproduce stream.Summaries and stream.Solve
// exactly; the caller checks that.
func replayStaged(e *inprocEnv, tr *tracer, seed uint64, m Metrics) (*staged, error) {
	k, d, bs := e.w.k, e.d, stream.DefaultBatchSize
	root := tr.begin("trace.staged")

	// Source → router. Routed batches are encoded and decoded as soon as
	// they fill, into one reused buffer, as the cluster coordinator does.
	src := e.source()
	nHint := 0
	if src.KnownUpfront() {
		nHint = src.NumVertices()
	}
	var readsBefore int64
	if e.ds != nil {
		readsBefore = e.ds.SegmentReads()
	}
	var (
		buf      = make([]graph.Edge, bs)
		pending  = make([][]graph.Edge, k)
		batches  = make([][][]graph.Edge, k) // machine → decoded batches
		wire     []byte
		total    int
		encBytes int
	)
	ship := func(i int) error {
		id := tr.begin("graph.encode_batch")
		wire = graph.AppendEdgeBatch(wire[:0], pending[i])
		tr.end(id)
		encBytes += len(wire)
		id = tr.begin("graph.decode_batch")
		got, rest, err := graph.DecodeEdgeBatch(wire)
		tr.end(id)
		if err != nil || len(rest) != 0 {
			return fmt.Errorf("edge batch did not survive its codec: %v, %d trailing bytes", err, len(rest))
		}
		batches[i] = append(batches[i], got)
		pending[i] = pending[i][:0]
		return nil
	}
	for {
		id := tr.begin("stream.source_next")
		c, err := src.Next(buf)
		tr.end(id)
		// The router's loop as the coordinators write it; the codec spans
		// of a batch that fills are children, so they are not its self time.
		id = tr.begin("partition.hash_assign")
		for _, ed := range buf[:c] {
			i := partition.HashAssign(ed, k, seed)
			pending[i] = append(pending[i], ed)
			if len(pending[i]) == bs {
				if err := ship(i); err != nil {
					return nil, err
				}
			}
		}
		tr.end(id)
		total += c
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return nil, fmt.Errorf("source: %w", err)
			}
			break
		}
	}
	for i := range pending {
		if len(pending[i]) > 0 {
			if err := ship(i); err != nil {
				return nil, err
			}
		}
	}
	n := src.NumVertices()

	// Builders: every Add of every machine, then every Finish.
	builders := make([]task.Builder, k)
	received := make([]int, k)
	mallocs0 := mallocs()
	for i := range builders {
		builders[i] = d.NewBuilder(k, nHint, e.params)
		for _, batch := range batches[i] {
			id := tr.begin("task.add")
			for _, ed := range batch {
				builders[i].Add(ed)
			}
			tr.end(id)
			received[i] += len(batch)
		}
	}
	addAllocs := mallocs() - mallocs0
	sums := make([]task.Summary, k)
	var finishMax time.Duration
	sumBytes := 0
	for i, b := range builders {
		id := tr.begin("task.finish")
		s := b.Finish(n)
		finishMax = max(finishMax, tr.end(id))
		s.Edges = received[i]

		id = tr.begin("task.summary_encode")
		wire = task.AppendSummary(wire[:0], d, s)
		tr.end(id)
		sumBytes += len(wire)
		id = tr.begin("task.summary_decode")
		got, err := task.DecodeSummary(d, wire)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("machine %d summary did not survive its codec: %w", i, err)
		}
		sums[i] = got
	}

	mallocs0 = mallocs()
	id := tr.begin("task.compose")
	sol := d.Compose(n, sums)
	tr.end(id)
	composeAllocs := mallocs() - mallocs0
	wall := tr.end(root)

	self := selfTimes(tr.spans)
	perEdge := func(name string) float64 { return float64(self[name].Nanoseconds()) / float64(total) }
	m.set("stream.source_next.busy_s", self["stream.source_next"].Seconds())
	m.set("partition.hash_assign.busy_s", self["partition.hash_assign"].Seconds())
	m.set("partition.hash_assign.ns_per_edge", perEdge("partition.hash_assign"))
	m.set("partition.skew", float64(slices.Max(received))*float64(k)/float64(total))
	m.set("graph.encode_batch.busy_s", self["graph.encode_batch"].Seconds())
	m.set("graph.encode_batch.ns_per_edge", perEdge("graph.encode_batch"))
	m.set("graph.decode_batch.busy_s", self["graph.decode_batch"].Seconds())
	m.set("graph.decode_batch.ns_per_edge", perEdge("graph.decode_batch"))
	m.set("graph.batch.bytes_per_edge", float64(encBytes)/float64(total))
	m.set("task.add.busy_s", self["task.add"].Seconds())
	m.set("task.add.ns_per_edge", perEdge("task.add"))
	m.set("task.add.allocs_per_edge", float64(addAllocs)/float64(total))
	m.set("task.finish.busy_s", self["task.finish"].Seconds())
	m.set("task.finish.max_s", finishMax.Seconds())
	m.set("task.summary_encode.busy_s", self["task.summary_encode"].Seconds())
	m.set("task.summary_decode.busy_s", self["task.summary_decode"].Seconds())
	m.set("task.summary.bytes", float64(sumBytes))
	m.set("task.compose.busy_s", self["task.compose"].Seconds())
	composeEdges := 0
	for _, s := range sums {
		composeEdges += d.CoresetLen(s)
	}
	m.set("task.compose.edges", float64(composeEdges))
	m.set("task.compose.allocs", float64(composeAllocs))
	if e.ds != nil {
		m.set("dataset.segment_reads", float64(e.ds.SegmentReads()-readsBefore))
		m.set("dataset.peak_resident_bytes", float64(src.(*stream.DatasetSource).PeakResidentBytes()))
	}
	var accounted time.Duration
	for _, name := range stagedLayers {
		accounted += self[name]
	}
	m.set("trace.staged_total_s", wall.Seconds())
	m.set("trace.accounted_share", accounted.Seconds()/wall.Seconds())
	shards := make([][]graph.Edge, k)
	for i := range shards {
		shards[i] = slices.Concat(batches[i]...)
	}
	return &staged{n: n, shards: shards, sums: sums, sol: sol, wall: wall}, nil
}

// tracedPass is one pass of the traced run at one job seed: the standalone
// segment reads, the staged replay, then the whole-job calls of every
// runtime on the same input, each under one span. It returns the pass's
// per-layer readings; trace.parity_ok is 1 only if the staged replay, the
// stream runtime and the cluster runtime all agree exactly.
func tracedPass(e *inprocEnv, spec *benchSpec, tr *tracer, seed uint64, checkSummaries bool) (Metrics, error) {
	ctx := context.Background()
	m := newMetrics(spec.PerLayer)
	k, d := e.w.k, e.d
	m.set("dataset.ingest.busy_s", e.ingest.Seconds())
	m.set("dataset.ingest.ns_per_edge", float64(e.ingest.Nanoseconds())/float64(len(e.edges)))

	if e.ds != nil {
		var scratch []byte
		var busy time.Duration
		read, bytes := 0, 0
		for i, seg := range e.ds.Manifest().Segments {
			id := tr.begin("dataset.read_segment")
			edges, sc, err := e.ds.ReadSegment(i, scratch)
			busy += tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("segment %d: %w", i, err)
			}
			scratch = sc
			read += len(edges)
			bytes += seg.Length
		}
		m.set("dataset.read_segment.busy_s", busy.Seconds())
		m.set("dataset.read_segment.ns_per_edge", float64(busy.Nanoseconds())/float64(read))
		m.set("dataset.read_segment.bytes", float64(bytes))
	}

	st, err := replayStaged(e, tr, seed, m)
	if err != nil {
		return nil, fmt.Errorf("staged replay: %w", err)
	}

	cfg := stream.Config{K: k, Seed: seed}
	id := tr.begin("stream.shard")
	parts, _, err := stream.Shard(e.source(), cfg)
	m.set("stream.shard.busy_s", tr.end(id).Seconds())
	if err != nil {
		return nil, fmt.Errorf("stream.Shard: %w", err)
	}

	// The same job with no span around it, through the workload's own
	// runtime, right before the spanned call trace.overhead_share compares
	// it with.
	var plain time.Duration
	plainJob := func(runtime string) error {
		if e.w.runtime != runtime {
			return nil
		}
		t0 := time.Now()
		_, _, _, err := e.job(seed)
		plain = time.Since(t0)
		return err
	}
	if err := plainJob("stream"); err != nil {
		return nil, fmt.Errorf("plain job: %w", err)
	}
	id = tr.begin("stream.solve")
	streamSol, _, err := stream.Solve(ctx, e.source(), cfg, d, e.params)
	streamDur := tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("stream.Solve: %w", err)
	}
	m.set("stream.solve.busy_s", streamDur.Seconds())
	m.set("stream.solve.overlap", st.wall.Seconds()/streamDur.Seconds())

	if err := plainJob("cluster"); err != nil {
		return nil, fmt.Errorf("plain job: %w", err)
	}
	id = tr.begin("cluster.solve")
	clusterSol, cst, err := cluster.Solve(ctx, e.source(), cluster.Config{Workers: e.addrs, Seed: seed}, d, e.params)
	clusterDur := tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("cluster.Solve: %w", err)
	}
	m.set("cluster.solve.busy_s", clusterDur.Seconds())
	m.set("cluster.wire_tax_s", (clusterDur - streamDur).Seconds())
	m.set("cluster.shard_bytes", float64(cst.ShardBytes))
	m.set("cluster.coreset_bytes", float64(cst.TotalCommBytes))
	m.set("cluster.retries", float64(cst.Retries))
	var dec, build, enc float64
	for _, ms := range cst.MachineStats {
		dec, build, enc = max(dec, ms.DecodeMS), max(build, ms.BuildMS), max(enc, ms.EncodeMS)
	}
	m.set("cluster.worker.decode_s", dec/1e3)
	m.set("cluster.worker.build_s", build/1e3)
	m.set("cluster.worker.encode_s", enc/1e3)

	spanned := streamDur
	if e.w.runtime == "cluster" {
		spanned = clusterDur
	}
	m.set("trace.overhead_share", spanned.Seconds()/plain.Seconds()-1)

	g := &graph.Graph{N: e.n, Edges: e.edges}
	id = tr.begin("core.batch")
	batchSol, _ := d.Batch(g, k, 0, seed, e.params)
	m.set("core.batch.busy_s", tr.end(id).Seconds())
	if err := d.Verify(e.n, e.edges, batchSol); err != nil {
		return nil, fmt.Errorf("Descriptor.Batch: wrong answer: %w", err)
	}

	if st.sol.Matching != nil {
		// Compose = union + exact matcher; time the matcher alone.
		coresets := make([][]graph.Edge, k)
		for i, s := range st.sums {
			coresets[i] = s.Coreset
		}
		union := graph.UnionEdges(coresets...)
		id = tr.begin("matching.maximum")
		mm := matching.Maximum(st.n, union)
		dur := tr.end(id)
		if mm.Size() != st.sol.Size {
			return nil, fmt.Errorf("matching.Maximum on the union: size %d, composed %d", mm.Size(), st.sol.Size)
		}
		m.set("matching.maximum.busy_s", dur.Seconds())
		m.set("matching.maximum.ns_per_edge", float64(dur.Nanoseconds())/float64(len(union)))
	}

	if d.WireRounds != 0 {
		id = tr.begin("rounds.stream")
		_, rst, err := rounds.Stream(ctx, e.source(), rounds.Config{K: k, Rounds: 2, Seed: seed, Params: e.params.EDCS})
		dur := tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("rounds.Stream: %w", err)
		}
		m.set("rounds.stream.busy_s", dur.Seconds())
		m.set("rounds.rounds_run", float64(rst.RoundsRun))
		m.set("rounds.union_edges", float64(rst.CompositionEdges))
		m.set("rounds.comm_bytes", float64(rst.TotalCommBytes))
	}

	if e.w.sweep {
		if err := taskSweep(tr, k, st.n, st.shards[0], m); err != nil {
			return nil, err
		}
	}

	parity := reflect.DeepEqual(st.shards, parts) &&
		reflect.DeepEqual(st.sol, streamSol) &&
		reflect.DeepEqual(clusterSol, streamSol)
	if parity && checkSummaries {
		want, _, err := stream.Summaries(ctx, e.source(), cfg, d, e.params)
		if err != nil {
			return nil, fmt.Errorf("stream.Summaries: %w", err)
		}
		parity = reflect.DeepEqual(st.sums, want)
	}
	if parity {
		m.set("trace.parity_ok", 1)
	}
	return m, nil
}

// taskSweep runs every registered task's builder, summary codec and composer
// on one machine's shard, so the tasks can be compared on equal input and a
// newly registered task gets rows without a harness change.
func taskSweep(tr *tracer, k, n int, shard []graph.Edge, m Metrics) error {
	for _, name := range task.Names() {
		d := task.MustGet(name)
		var p task.Params
		if d.UsesBeta {
			p.EDCS = edcs.ParamsForBeta(16)
		}
		prefix := "task." + name + "."
		b := d.NewBuilder(k, n, p)
		id := tr.begin(prefix + "add")
		for _, ed := range shard {
			b.Add(ed)
		}
		add := tr.end(id)
		id = tr.begin(prefix + "finish")
		s := b.Finish(n)
		m.set(prefix+"finish.busy_s", tr.end(id).Seconds())
		s.Edges = len(shard)
		wire := task.AppendSummary(nil, d, s)
		if _, err := task.DecodeSummary(d, wire); err != nil {
			return fmt.Errorf("task %s: summary did not survive its codec: %w", name, err)
		}
		id = tr.begin(prefix + "compose")
		sol := d.Compose(n, []task.Summary{s})
		m.set(prefix+"compose.busy_s", tr.end(id).Seconds())
		if sol.Size <= 0 {
			return fmt.Errorf("task %s: composed size %d on a %d-edge shard", name, sol.Size, len(shard))
		}
		m.set(prefix+"add.ns_per_edge", float64(add.Nanoseconds())/float64(len(shard)))
		m.set(prefix+"summary.bytes", float64(len(wire)))
	}
	return nil
}

// exactLayerCounts are the per-layer counts that depend only on the seed.
var exactLayerCounts = []string{
	"task.compose.edges",
	"task.summary.bytes",
	"dataset.segment_reads",
	"cluster.coreset_bytes",
	"rounds.union_edges",
}

// tracedInproc is the traced run of an in-process workload: a short plain
// timed phase (it yields the job_tail_s row), then traced passes at the first
// job's seed until the run's time is up. Readings are medians over the
// passes; parity must hold in every pass.
func tracedInproc(e *inprocEnv, o runOpts, res *runResult) error {
	start := time.Now()
	samples, sols, _ := timedJobs(e, o.seed, o.seconds/3)
	checkSolutions(e.d, e.n, e.edges, samples, sols)

	seed := jobSeed(o.seed, 0)
	var passes []Metrics
	var tracers []*tracer
	for len(passes) == 0 || time.Since(start).Seconds() < o.seconds {
		tr := newTracer(start, 0)
		tr.job = len(passes)
		m, err := tracedPass(e, o.spec, tr, seed, len(passes) == 0)
		if err != nil {
			return err
		}
		if err := checkNesting(tr.spans); err != nil {
			return err
		}
		passes = append(passes, m)
		tracers = append(tracers, tr)
	}

	out := newMetrics(o.spec.PerLayer)
	for name := range out {
		var vals []float64
		for _, p := range passes {
			vals = append(vals, p.value(name))
		}
		out.set(name, median(vals))
	}
	parity := 1.0
	for _, p := range passes {
		parity = min(parity, p.value("trace.parity_ok"))
	}
	out.set("trace.parity_ok", parity)
	tail, pct := jobTail(samples)
	out.set(e.w.runtime+".job_tail_s", tail)

	res.Metrics = out
	res.Attempted = len(samples) + len(passes)
	for _, s := range samples {
		if s.err != nil {
			res.Failed++
		}
	}
	for _, p := range passes {
		if p.value("trace.parity_ok") != 1 {
			res.Failed++
		}
	}
	res.Jobs, res.TailPercentile = len(samples), pct
	for _, name := range exactLayerCounts {
		res.Exact[name] = int64(passes[0].value(name))
	}
	res.Shares = map[string]float64{}
	for _, name := range stagedLayers {
		res.Shares[name] = out.value(name+".busy_s") / out.value("trace.staged_total_s")
	}
	// Every pass replays the same job, so the file holds the first one only.
	return writeChromeTrace(filepath.Join(o.outDir, "trace-"+e.w.name+".json"), e.w.name, tracers[:1])
}
