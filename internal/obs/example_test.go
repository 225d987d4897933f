package obs_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"slices"
	"strings"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stream"
)

// The library side of observability, no HTTP in between: the runtimes take
// the caller's Registry (engine.Spec.Metrics) and register their families on
// it, with bucket layouts of their own; the caller renders it — here a
// multi-round run's per-round families, read back with ParseText the way a
// scraper would.
func ExampleRegistry() {
	reg := obs.NewRegistry()
	g := gen.GNP(2000, 24.0/2000, rng.New(7))
	spec := engine.Spec{Task: "edcs", Beta: 8, Rounds: 3, Runtime: engine.Stream, K: 16, Seed: 7, Metrics: reg}
	if _, err := engine.Run(context.Background(), spec, stream.NewGraphSource(g)); err != nil {
		log.Fatal(err)
	}

	var text bytes.Buffer
	if _, err := reg.WriteTo(&text); err != nil {
		log.Fatal(err)
	}
	samples, err := obs.ParseText(&text)
	if err != nil {
		log.Fatal(err)
	}
	var names []string
	for name := range samples {
		if !strings.Contains(name, "_bucket") {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Printf("%s %g\n", name, samples[name])
	}
	// Output:
	// rounds_comm_bytes_total 67431
	// rounds_completed_total 3
	// rounds_shrink_ratio_count 3
	// rounds_shrink_ratio_sum 2.063113282758734
	// rounds_union_edges_count 3
	// rounds_union_edges_sum 43649
}
