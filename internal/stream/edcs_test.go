package stream

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/task"
)

// TestEDCSParity: the streaming EDCS pipeline must reproduce an independent
// oracle on the same hash k-partitioning bit for bit — edcs.Coreset per
// oracle part, core.ComposeMatching on their union — with identical
// per-machine coresets, composed matchings and byte charges, across seeds
// and densities.
func TestEDCSParity(t *testing.T) {
	p := edcs.ParamsForBeta(16)
	for seed := uint64(1); seed <= 6; seed++ {
		g := parityGraph(seed, 500, 30)
		const k = 4
		mSol, st, err := Solve(context.Background(), NewGraphSource(g), Config{K: k, Seed: seed}, edcsTask, task.Params{EDCS: p})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m := mSol.Matching
		if err := matching.Verify(g.N, g.Edges, m); err != nil {
			t.Fatalf("seed %d: streamed EDCS matching invalid: %v", seed, err)
		}

		parts := batchHashParts(g, k, seed)
		coresets := make([][]graph.Edge, k)
		wantBytes, wantMax := 0, 0
		for i, part := range parts {
			coresets[i] = edcs.Coreset(g.N, part, p)
			if st.CoresetEdges[i] != len(coresets[i]) {
				t.Fatalf("seed %d machine %d: coreset size %d, oracle %d", seed, i, st.CoresetEdges[i], len(coresets[i]))
			}
			if st.PartEdges[i] != len(part) || st.StoredEdges[i] != len(part) {
				t.Fatalf("seed %d machine %d: routed/stored (%d, %d), oracle part has %d",
					seed, i, st.PartEdges[i], st.StoredEdges[i], len(part))
			}
			b := core.CoresetSizeBytes(coresets[i])
			wantBytes, wantMax = wantBytes+b, max(wantMax, b)
		}
		oracleM := core.ComposeMatching(g.N, coresets)
		if !reflect.DeepEqual(m.Edges(), oracleM.Edges()) {
			t.Fatalf("seed %d: streamed EDCS matching differs from the oracle (%d vs %d edges)",
				seed, m.Size(), oracleM.Size())
		}
		if st.TotalCommBytes != wantBytes || st.MaxMachineBytes != wantMax {
			t.Fatalf("seed %d: comm accounting (%d, %d) differs from the oracle (%d, %d)",
				seed, st.TotalCommBytes, st.MaxMachineBytes, wantBytes, wantMax)
		}
	}
}

// TestEDCSBuilderDeepParity drives the edcs machine directly against the
// batch edcs.Coreset on every oracle partition: deep-equal edge lists.
func TestEDCSBuilderDeepParity(t *testing.T) {
	p := edcs.ParamsForBeta(8)
	for seed := uint64(1); seed <= 4; seed++ {
		g := parityGraph(seed, 300, 40)
		const k = 3
		parts := batchHashParts(g, k, seed)
		for i, part := range parts {
			b := NewMachine(edcsTask.NewBuilder(0, g.N, task.Params{EDCS: p}))
			for _, e := range part {
				b.Add(e)
			}
			got := b.Finish(g.N).Coreset
			want := edcs.Coreset(g.N, part, p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d machine %d: builder EDCS differs from batch", seed, i)
			}
		}
	}
}

// TestEDCSInvalidParams: the pipeline rejects unusable degree constraints
// up front instead of panicking in a machine goroutine.
func TestEDCSInvalidParams(t *testing.T) {
	_, _, err := Solve(context.Background(), NewSliceSource(0, nil), Config{K: 2, Seed: 1},
		edcsTask, task.Params{EDCS: edcs.Params{Beta: 4, BetaMinus: 9}})
	if err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestEDCSContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.GNP(200, 0.05, rng.New(1))
	_, _, err := Solve(ctx, NewGraphSource(g), Config{K: 3, Seed: 1}, edcsTask, task.Params{EDCS: edcs.ParamsForBeta(8)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestZeroEdgeMachines: when k exceeds the edge count some machines receive
// nothing; every builder must emit a sane empty summary and the empty
// coresets must compose cleanly (the empty-coreset compose path).
func TestZeroEdgeMachines(t *testing.T) {
	// Two edges over eight machines: at least six machines see zero edges.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}
	const k = 8
	cfg := Config{K: k, Seed: 5}

	mSol, st, err := Solve(context.Background(), NewSliceSource(4, edges), cfg, matchingTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	m := mSol.Matching
	if m.Size() != 2 {
		t.Fatalf("matching %d, want 2", m.Size())
	}
	assertEmptyMachineStats(t, st, k)

	coverSol, vst, err := Solve(context.Background(), NewSliceSource(4, edges), cfg, vcTask, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	cover := coverSol.Cover
	if len(cover) == 0 || len(cover) > 4 {
		t.Fatalf("cover size %d out of range", len(cover))
	}
	assertEmptyMachineStats(t, vst, k)

	emSol, est, err := Solve(context.Background(), NewSliceSource(4, edges), cfg, edcsTask, task.Params{EDCS: edcs.ParamsForBeta(8)})
	if err != nil {
		t.Fatal(err)
	}
	em := emSol.Matching
	if em.Size() != 2 {
		t.Fatalf("EDCS matching %d, want 2", em.Size())
	}
	assertEmptyMachineStats(t, est, k)
}

// assertEmptyMachineStats checks that at least one machine received zero
// edges and that its summary fields are all-zero (but present).
func assertEmptyMachineStats(t *testing.T, st *Stats, k int) {
	t.Helper()
	if len(st.PartEdges) != k || len(st.CoresetEdges) != k {
		t.Fatalf("stats not sized to k=%d: %+v", k, st)
	}
	empties := 0
	for i := range st.PartEdges {
		if st.PartEdges[i] == 0 {
			empties++
			if st.CoresetEdges[i] != 0 || st.StoredEdges[i] != 0 || st.Live[i] != 0 {
				t.Fatalf("machine %d got no edges but summary is non-empty: coreset %d stored %d live %d",
					i, st.CoresetEdges[i], st.StoredEdges[i], st.Live[i])
			}
		}
	}
	if empties == 0 {
		t.Fatal("test premise broken: no machine received zero edges")
	}
}
