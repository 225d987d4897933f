package engine

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// parityK is the machine count of every matrix cell, and the loopback fleet's
// size.
const parityK = 4

// parityInput is one graph of the matrix: its materialized edge list, the
// reference every runtime is held to, and the sources that stream it.
type parityInput struct {
	name string
	g    *graph.Graph
	// iter mints the graph's generator iterator: the IterSource's draw, which
	// gen's materializing generator collects into g.
	iter func() gen.EdgeIter
	// dense: the vc peel fixes vertices and keeps a residual on every
	// machine, so both halves of the Theorem 2 summary cross the wire, and a
	// two-round edcs run shrinks the union and runs both rounds.
	dense bool
}

// paritySource is one way to stream a graph: mint returns a fresh source per
// run. headerless marks a source that learns n only at end of stream.
type paritySource struct {
	name       string
	mint       func() stream.EdgeSource
	headerless bool
}

func parityInputs() []parityInput {
	const seed = 7
	return []parityInput{
		// Small enough for matching.BruteForceSize, so a matching row is held
		// to the deterministic ⌈OPT/k⌉ bound.
		{name: "gnp18", g: gen.GNP(18, 0.3, rng.New(seed)),
			iter: func() gen.EdgeIter { return gen.GNPIter(18, 0.3, rng.New(seed)) }},
		// Dense: the vc peel fires on every machine and leaves a residual, the
		// EDCS trims, and two edcs rounds both run.
		{name: "gnp-dense", g: gen.GNP(300, 0.3, rng.New(seed)), dense: true,
			iter: func() gen.EdgeIter { return gen.GNPIter(300, 0.3, rng.New(seed)) }},
		// The CLI's powerlaw spec (exponent 2, weight cap n/16+1): hubs walk
		// long adjacency chains in the EDCS builder.
		{name: "powerlaw", g: gen.ChungLu(2000, 2.0, 2000/16+1, rng.New(seed)),
			iter: func() gen.EdgeIter { return gen.PowerlawIter(2000, 2.0, 2000/16+1, rng.New(seed)) }},
	}
}

// sources returns in's three sources: the generator's IterSource, a dataset
// ingested from the text edge list under a temporary directory, in segments
// small enough that the graph spans several, and the edge list as headerless
// text.
func (in parityInput) sources(t *testing.T) []paritySource {
	t.Helper()
	var text, headerless bytes.Buffer
	if err := graph.WriteEdgeList(&text, in.g); err != nil {
		t.Fatal(err)
	}
	for _, e := range in.g.Edges {
		fmt.Fprintf(&headerless, "%d %d\n", e.U, e.V)
	}
	dir := t.TempDir()
	if _, err := dataset.Ingest(dir, &text, dataset.IngestOptions{SegmentEdges: 97}); err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	if ds.NumVertices() != in.g.N || ds.Edges() != in.g.M() || ds.Segments() < 2 && in.g.M() > 97 {
		t.Fatalf("%s: dataset holds n=%d m=%d in %d segments, want n=%d m=%d", in.name,
			ds.NumVertices(), ds.Edges(), ds.Segments(), in.g.N, in.g.M())
	}
	// A headerless reader's n is one past the largest ID it reads: the
	// comparisons below need that to be the graph's n.
	if g, err := stream.Collect(stream.NewReaderSource(bytes.NewReader(headerless.Bytes()))); err != nil || g.N != in.g.N {
		t.Fatalf("%s: headerless text reads back as %v (err %v), want n=%d", in.name, g, err, in.g.N)
	}
	return []paritySource{
		{name: "gen", mint: func() stream.EdgeSource { return stream.NewIterSource(in.g.N, in.iter) }},
		{name: "dataset", mint: func() stream.EdgeSource { return stream.NewDatasetSource(ds) }},
		{name: "text", headerless: true, mint: func() stream.EdgeSource {
			return stream.NewReaderSource(bytes.NewReader(headerless.Bytes()))
		}},
	}
}

// parityRun is what one runtime produced for one cell.
type parityRun struct {
	rep  *graph.RunReport
	sums []task.Summary
	sol  task.Solution
}

// TestParityMatrix is the cross-runtime contract of the paper's model: a
// randomized composable coreset is a function of a machine's subgraph alone,
// so batch, stream and cluster (over a loopback fleet) must compose the same
// summaries for the same (graph, seed, k) — multi-round runs, each round a
// single-round run, included. One cell is (graph, source, task, rounds,
// batch size); in every cell each runtime
//   - composes an answer that passes the task's verifier against the full
//     edge list (and, for matching on a brute-forceable graph, is at least
//     ⌈OPT/k⌉: some machine holds OPT/k edges of an optimum, and its maximum
//     matching lies in the union);
//   - leaves per-machine summaries deep-equal to the stream runtime's;
//   - reports what the stream runtime reports, but for wall-clock and
//     worker phase times, with a cluster run's estimate equal to the stream
//     run's charged bytes and its measured bytes checked on their own;
//
// and a single-round cell is deep-equal to the materialized reference,
// task.Descriptor.Batch on the generator's graph. A multi-round cell on
// another source is held to the generator source's stream run instead.
func TestParityMatrix(t *testing.T) {
	addrs, shutdown, err := cluster.ServeLoopback(parityK)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	ctx := context.Background()
	const seed = 11

	for _, in := range parityInputs() {
		opt := -1
		if in.g.N <= 18 {
			opt = matching.BruteForceSize(in.g.N, in.g.Edges)
		}
		// multi holds the generator source's multi-round stream run, the
		// reference of every other source's multi-round cells.
		multi := map[string]parityRun{}
		for _, src := range in.sources(t) {
			for _, name := range task.Names() {
				d := task.MustGet(name)
				var p task.Params
				beta := 0
				if d.UsesBeta {
					beta = 8
					p.EDCS = edcs.ParamsForBeta(beta)
				}
				refSol, refSt := d.Batch(in.g, parityK, 0, seed, p)
				for _, roundCap := range []int{0, 2} {
					if roundCap > 0 && d.WireRounds == 0 {
						continue
					}
					for _, bs := range []int{0, 64} {
						cell := fmt.Sprintf("%s/%s/%s/rounds=%d/batch=%d", in.name, src.name, name, roundCap, bs)
						t.Run(cell, func(t *testing.T) {
							runs := map[string]parityRun{}
							for _, runtime := range []string{Stream, Batch, Cluster} {
								sp := Spec{Task: name, Beta: beta, Rounds: roundCap, Runtime: runtime, K: parityK,
									Seed: seed, BatchSize: bs, Cluster: cluster.Config{Workers: addrs}}
								rep, sums, sol, err := run(ctx, sp, src.mint())
								if err != nil {
									t.Fatalf("%s on %s: %v", runtime, src.name, err)
								}
								runs[runtime] = parityRun{rep, sums, sol}
								if sol.Size <= 0 {
									t.Fatalf("%s on %s: empty answer on a graph of %d edges", runtime, src.name, in.g.M())
								}
								if err := d.Verify(in.g.N, in.g.Edges, sol); err != nil {
									t.Fatalf("%s on %s: composed answer fails the verifier: %v", runtime, src.name, err)
								}
								if name == "matching" && opt >= 0 && parityK*sol.Size < opt {
									t.Fatalf("%s on %s: matching of %d below ⌈OPT/k⌉ (OPT %d, k %d)", runtime, src.name, sol.Size, opt, parityK)
								}
							}
							checkCell(t, in, src, roundCap, runs)
							if roundCap == 0 {
								checkReference(t, src, runs, refSol, refSt)
								return
							}
							if src.name == "gen" && bs == 0 {
								multi[name] = runs[Stream]
							}
							if ref, ok := multi[name]; ok {
								got := runs[Stream]
								if !reflect.DeepEqual(got.sums, ref.sums) || !reflect.DeepEqual(got.sol, ref.sol) {
									t.Fatalf("stream on %s: multi-round summaries differ from the generator source's", src.name)
								}
							}
						})
					}
				}
			}
		}
	}
}

// checkCell holds the runtimes of one cell to the stream runtime's run.
func checkCell(t *testing.T, in parityInput, src paritySource, roundCap int, runs map[string]parityRun) {
	t.Helper()
	want := runs[Stream]
	for _, runtime := range []string{Batch, Cluster} {
		got := runs[runtime]
		gotSums, wantSums := got.sums, want.sums
		gotRep, wantRep := comparable(*got.rep), comparable(*want.rep)
		if runtime == Batch {
			// The batch runtime reads the graph it collected, not the source,
			// so its first round counts the reads of a graph source.
			gotRep.Batches, wantRep.Batches = 0, 0
			if roundCap > 0 {
				gotRep.RoundStats[0].Batches, wantRep.RoundStats[0].Batches = 0, 0
			}
		}
		if src.headerless && runtime == Batch {
			// The batch runtime collects its input and so knows n, which
			// turns the vc machine's online peel on; a streaming runtime
			// over a headerless source learns n at end of stream and peels
			// then. Only the online telemetry differs.
			gotSums, wantSums = withoutOnline(gotSums), withoutOnline(wantSums)
			gotRep.StoredEdges, gotRep.Live, wantRep.StoredEdges, wantRep.Live = nil, nil, nil, nil
			for i := range gotRep.RoundStats {
				gotRep.RoundStats[i].StoredEdges, gotRep.RoundStats[i].Live = nil, nil
				wantRep.RoundStats[i].StoredEdges, wantRep.RoundStats[i].Live = nil, nil
			}
		}
		if !reflect.DeepEqual(gotSums, wantSums) {
			t.Fatalf("%s on %s: per-machine summaries differ from stream's:\n got %+v\nwant %+v", runtime, src.name, gotSums, wantSums)
		}
		if !reflect.DeepEqual(got.sol, want.sol) {
			t.Fatalf("%s on %s: composed answer differs from stream's", runtime, src.name)
		}
		if !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("%s on %s: report differs from stream's:\n got %+v\nwant %+v", runtime, src.name, gotRep, wantRep)
		}
	}
	checkWire(t, src, runs[Cluster].rep)

	rep, name := want.rep, want.rep.Task
	if roundCap > 0 {
		if in.dense && rep.RoundsRun < 2 {
			t.Fatalf("stream on %s: ran %d rounds, want both", src.name, rep.RoundsRun)
		}
		for _, r := range runs {
			last := r.rep.RoundStats[len(r.rep.RoundStats)-1]
			if !reflect.DeepEqual(r.rep.CoresetEdges, last.CoresetEdges) || !reflect.DeepEqual(r.rep.MachineStats, last.MachineStats) {
				t.Fatalf("%s on %s: top-level per-machine figures are not the final round's", r.rep.Mode, src.name)
			}
		}
	}
	if name == "matching" {
		// The greedy telemetry is a maximal matching of the machine's share,
		// so at least half the maximum matching its coreset holds.
		for i, live := range rep.Live {
			if 2*live < rep.CoresetEdges[i] {
				t.Fatalf("stream on %s machine %d: greedy %d below half of maximum %d", src.name, i, live, rep.CoresetEdges[i])
			}
		}
	}
	if name == "vc" && in.dense {
		for i := range rep.CoresetEdges {
			if rep.CoresetEdges[i] == 0 || rep.CoresetFixed[i] == 0 {
				t.Fatalf("stream on %s machine %d: %d residual edges and %d fixed vertices; the input is too tame",
					src.name, i, rep.CoresetEdges[i], rep.CoresetFixed[i])
			}
		}
	}
}

// checkWire checks a cluster report's measured figures, which no in-process
// runtime has: every CORESET frame costs its body (the estimate) plus its
// 5-byte header, its 4-byte CRC-32C trailer and the three stats varints, and
// nothing else; the workers received shard traffic; and each round's
// machines each sent their telemetry.
func checkWire(t *testing.T, src paritySource, rep *graph.RunReport) {
	t.Helper()
	// A multi-round report's top-level byte figures sum its rounds, so the
	// rounds are checked one by one instead.
	counts := []graph.RunCounts{rep.RunCounts}
	machines := [][]graph.MachineStats{rep.MachineStats}
	if rep.RoundStats != nil {
		counts, machines = nil, nil
	}
	for _, rr := range rep.RoundStats {
		counts, machines = append(counts, rr.RunCounts), append(machines, rr.MachineStats)
	}
	for i, c := range counts {
		overhead := 0
		for m := range c.PartEdges {
			overhead += 5 + 4 + graph.UvarintLen(uint64(c.PartEdges[m])) +
				graph.UvarintLen(uint64(c.StoredEdges[m])) + graph.UvarintLen(uint64(c.Live[m]))
		}
		if c.TotalCommBytes != c.EstCommBytes+overhead || c.MaxMachineBytes <= c.EstMaxMachineBytes || c.ShardBytes <= 0 {
			t.Fatalf("cluster on %s: measured %d B (max %d) over an estimate of %d B (max %d) and %d B of framing, %d shard bytes",
				src.name, c.TotalCommBytes, c.MaxMachineBytes, c.EstCommBytes, c.EstMaxMachineBytes, overhead, c.ShardBytes)
		}
		if len(machines[i]) != len(c.PartEdges) {
			t.Fatalf("cluster on %s: %d machineStats entries for %d machines", src.name, len(machines[i]), len(c.PartEdges))
		}
		for m, ms := range machines[i] {
			// A worker times its build in microseconds: a thousand inserts
			// take longer than one.
			if ms.Machine != m || ms.EdgesIn != c.PartEdges[m] || ms.EdgesIn >= 1000 && ms.BuildMS <= 0 {
				t.Fatalf("cluster on %s: machineStats[%d] = %+v, routed %d edges", src.name, m, ms, c.PartEdges[m])
			}
		}
	}
}

// checkReference holds a single-round cell to task.Descriptor.Batch, which
// splits the generator's graph with partition.HashK and feeds each part to
// the task's builder: the same answer and the same accounting. The
// reference does not batch, and is not a streaming runtime over a headerless
// source.
func checkReference(t *testing.T, src paritySource, runs map[string]parityRun, refSol task.Solution, refSt *core.PipelineStats) {
	t.Helper()
	for _, runtime := range []string{Stream, Batch, Cluster} {
		r := runs[runtime]
		if !reflect.DeepEqual(r.sol, refSol) {
			t.Fatalf("%s on %s: answer differs from Descriptor.Batch (size %d, want %d)", runtime, src.name, r.sol.Size, refSol.Size)
		}
		rep := comparable(*r.rep)
		got := core.PipelineStats{K: rep.K, N: rep.N, EdgesTotal: rep.M, RunCounts: rep.RunCounts}
		got.Batches = 0
		want := *refSt
		want.Duration = 0
		if src.headerless && runtime != Batch {
			got.StoredEdges, got.Live, want.StoredEdges, want.Live = nil, nil, nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on %s: accounting differs from Descriptor.Batch:\n got %+v\nwant %+v", runtime, src.name, got, want)
		}
	}
}

// comparable clears what differs between two runs of one cell: the runtime's
// name, wall clock and the workers' phase times. A cluster run's estimate —
// the CORESET bodies' lengths — stands where an in-process runtime charges
// those same lengths, and its measured figures (checkWire) are cleared.
func comparable(rep graph.RunReport) graph.RunReport {
	cluster := rep.Mode == Cluster
	rep.Mode, rep.DurationMS, rep.EdgesPerSec = "", 0, 0
	rep.RunCounts = estimated(rep.RunCounts, cluster)
	rep.MachineStats = nil
	rounds := make([]graph.RoundReport, len(rep.RoundStats))
	for i, rr := range rep.RoundStats {
		rr.DurationMS, rr.MachineStats = 0, nil
		rr.RunCounts = estimated(rr.RunCounts, cluster)
		rounds[i] = rr
	}
	if rep.RoundStats != nil {
		rep.RoundStats = rounds
	}
	return rep
}

func estimated(c graph.RunCounts, cluster bool) graph.RunCounts {
	if cluster {
		c.TotalCommBytes, c.MaxMachineBytes = c.EstCommBytes, c.EstMaxMachineBytes
		c.EstCommBytes, c.EstMaxMachineBytes, c.ShardBytes = 0, 0, 0
	}
	return c
}

// withoutOnline returns sums with the online telemetry cleared.
func withoutOnline(sums []task.Summary) []task.Summary {
	out := append([]task.Summary(nil), sums...)
	for i := range out {
		out[i].Stored, out[i].Live = 0, 0
	}
	return out
}
