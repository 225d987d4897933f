package cluster

import (
	"context"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// storeDataset writes g into a dataset with small segments, asserting the
// resulting layout actually exercises the disk path: many segments, each far
// smaller than the full edge list.
func storeDataset(t *testing.T, g *graph.Graph, segEdges int) *dataset.Dataset {
	t.Helper()
	dir := t.TempDir()
	b, err := dataset.NewBuilder(dir, dataset.IngestOptions{SegmentEdges: segEdges})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(g.Edges...); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(g.N, "acceptance", 0, 0); err != nil {
		t.Fatal(err)
	}
	d, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// budgetFor returns the smallest per-segment resident budget that lets d
// stream (the largest encoded segment), and asserts that budget is a genuine
// constraint: strictly below the dataset's total edge bytes.
func budgetFor(t *testing.T, d *dataset.Dataset) int {
	t.Helper()
	man := d.Manifest()
	maxSeg := 0
	for _, s := range man.Segments {
		if s.Length > maxSeg {
			maxSeg = s.Length
		}
	}
	if int64(maxSeg) >= man.Bytes {
		t.Fatalf("budget %d is not below total edge bytes %d; the dataset is too small to prove streaming", maxSeg, man.Bytes)
	}
	return maxSeg
}

// budgeted returns a fresh source over d with the enforced resident budget.
func budgeted(d *dataset.Dataset, budget int) *stream.DatasetSource {
	src := stream.NewDatasetSource(d)
	src.MaxResidentBytes = budget
	return src
}

// TestDatasetStreamsUnderBudgetAllRuntimes is the data-plane acceptance
// test: a stored dataset whose edge bytes exceed an enforced in-memory
// budget must stream through the batch, stream and cluster runtimes and
// produce coresets deep-equal to the in-memory oracle.
func TestDatasetStreamsUnderBudgetAllRuntimes(t *testing.T) {
	g := gen.GNP(3000, 20.0/3000, rng.New(17))
	d := storeDataset(t, g, 512)
	budget := budgetFor(t, d)
	const k = 3
	const seed = uint64(17)

	// In-memory oracle: the streaming pipeline over the materialized slice.
	oracle, _, err := stream.Summaries(context.Background(),
		stream.NewGraphSource(g), stream.Config{K: k, Seed: seed, BatchSize: 64}, task.MustGet("matching"), task.Params{})
	if err != nil {
		t.Fatal(err)
	}

	// Stream runtime, straight off disk under the budget.
	src := budgeted(d, budget)
	got, _, err := stream.Summaries(context.Background(),
		src, stream.Config{K: k, Seed: seed, BatchSize: 64}, task.MustGet("matching"), task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	assertSummariesEqual(t, got, oracle)
	if src.PeakResidentBytes() > budget {
		t.Fatalf("stream run held %d bytes resident, budget %d", src.PeakResidentBytes(), budget)
	}

	// Batch reference: materialize partitions from a second budgeted pass and
	// build each machine's coreset the batch way; they must match the oracle
	// machine for machine.
	edges := drainBudgeted(t, d, budget)
	if !reflect.DeepEqual(edges, []graph.Edge(g.Edges)) {
		t.Fatal("dataset pass differs from the in-memory edge list")
	}
	parts := partition.ByAssignment(edges, k, partition.HashAssignAll(edges, k, seed))
	for m, part := range parts {
		coreset := task.MustGet("matching").NewBuilder(k, g.N, task.Params{})
		for _, e := range part {
			coreset.Add(e)
		}
		if sum := coreset.Finish(g.N); !reflect.DeepEqual(sum.Coreset, oracle[m].Coreset) {
			t.Fatalf("batch machine %d coreset diverged from the oracle", m)
		}
	}

	// Cluster runtime, single round, fed from disk under the budget.
	backends := startWorkers(t, k)
	csrc := budgeted(d, budget)
	var csums []task.Summary
	err = runWithTimeout(t, 30*time.Second, func() error {
		var err error
		csums, _, err = summaries(context.Background(), csrc,
			Config{Workers: backends, Seed: seed, BatchSize: 64}, matchingTask, task.Params{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSummariesEqual(t, csums, oracle)
	if csrc.PeakResidentBytes() > budget {
		t.Fatalf("cluster run held %d bytes resident, budget %d", csrc.PeakResidentBytes(), budget)
	}
}

// TestDatasetClusterRoundsWithReplay closes the acceptance loop: a
// multi-round (rounds >= 2) cluster session whose round-0 input is the
// budgeted on-disk dataset, with machine 1's connection killed mid-shard so
// round 0 MUST replay — replay restarts the DatasetSource (a segment seek)
// and the final coresets stay deep-equal to the all-in-memory oracle.
func TestDatasetClusterRoundsWithReplay(t *testing.T) {
	g := gen.GNP(1200, 24.0/1200, rng.New(23))
	d := storeDataset(t, g, 256)
	budget := budgetFor(t, d)

	backends := startWorkers(t, 2)
	// Connection 0 dies on its second SHARD frame (mid round 0); each
	// replacement serves one CORESET and dies, forcing a replay every round.
	proxyAddr, closeProxy := flakyProxy(t, backends[1],
		[]proxyPlan{{dropAfterFrames: 2}, {dropAfterCoreset: 1}})
	t.Cleanup(closeProxy)

	const rounds = 2
	p := edcs.ParamsForBeta(16)
	sess, err := Open(context.Background(), Config{
		Workers:      []string{backends[0], proxyAddr},
		BatchSize:    64,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
	}, edcsTask, task.Params{EDCS: p}, rounds, g.N)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Round r's oracle input: round 0 is the full graph, later rounds the
	// union of the previous round's coresets — exactly internal/rounds.
	oracleInput := []graph.Edge(g.Edges)
	for r := 0; r < rounds; r++ {
		seed := uint64(40 + r)
		var src stream.EdgeSource
		var dsrc *stream.DatasetSource
		if r == 0 {
			dsrc = budgeted(d, budget)
			src = dsrc
		} else {
			src = stream.NewSliceSource(g.N, oracleInput)
		}
		var sums []task.Summary
		var st *core.PipelineStats
		err := runWithTimeout(t, 30*time.Second, func() error {
			var err error
			sums, st, err = sess.Round(context.Background(), src, 2, seed)
			return err
		})
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if st.Retries < 1 || !reflect.DeepEqual(st.ReplayedMachines, []int{1}) {
			t.Fatalf("round %d: Retries=%d ReplayedMachines=%v, want a machine-1 replay", r, st.Retries, st.ReplayedMachines)
		}
		if dsrc != nil && dsrc.PeakResidentBytes() > budget {
			t.Fatalf("round %d held %d bytes resident, budget %d", r, dsrc.PeakResidentBytes(), budget)
		}

		want, _, err := stream.Summaries(context.Background(),
			stream.NewSliceSource(g.N, oracleInput), stream.Config{K: 2, Seed: seed, BatchSize: 64}, edcsTask, task.Params{EDCS: p})
		if err != nil {
			t.Fatal(err)
		}
		assertSummariesEqual(t, sums, want)

		oracleInput = nil
		for _, s := range sums {
			oracleInput = append(oracleInput, s.Coreset...)
		}
	}
}

// drainBudgeted materializes every edge of d through a budgeted source.
func drainBudgeted(t *testing.T, d *dataset.Dataset, budget int) []graph.Edge {
	t.Helper()
	src := budgeted(d, budget)
	var all []graph.Edge
	buf := make([]graph.Edge, 256)
	for {
		c, err := src.Next(buf)
		if err == io.EOF {
			return all
		}
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, buf[:c]...)
	}
}
