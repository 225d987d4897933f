// Command bench is the repository's benchmark harness: four fixed workloads,
// the end-to-end metrics a user of the system sees, and a per-layer ledger
// from a traced run. Every layer is measured from outside, by timing calls
// into its public functions. BENCHMARK.json at the repository root is the
// contract; README.md in this directory is the metric dictionary.
//
// Run it from this directory's module:
//
//	go run -C bench .                       # all four workloads, traced passes too → bench/out/result.json
//	go run -C bench . -repeat 3             # the whole set three times: medians, quartiles, agreement check
//	go run -C bench . -compare OLD NEW      # verdict per workload × metric against BENCHMARK.json's bounds
//	go run -C bench . -workload NAME -seed 1 -seconds 20 -trace 0   # one run; last line is the result JSON
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"
)

const outDir = "out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload, in this process, and end with the result line")
		seed     = fs.Uint64("seed", 1, "seeds the generated inputs and the job-seed sequence seed*1000+i")
		seconds  = fs.Float64("seconds", 20, "how long one run measures")
		trace    = fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics with tracing off, 1 = the traced run's per-layer metrics")
		repeat   = fs.Int("repeat", 1, "run the whole set this many times and check that the runs agree")
		compare  = fs.Bool("compare", false, "compare two result files: -compare OLD.json NEW.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return fail(err)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files: OLD.json NEW.json")
			return 2
		}
		regressed, err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case *workload != "":
		w, ok := findWorkload(workloads(false), *workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		o := runOpts{spec: spec, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: outDir}
		res, err := runWorkload(w, o)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		printRun(stdout, res)
		if err := writeJSON(runFile(outDir, w.name, o.trace), res); err != nil {
			return fail(err)
		}
		line, err := json.Marshal(resultLine(res))
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	default:
		led, err := runAll(stdout, stderr, *seed, *seconds, *repeat)
		if err != nil {
			return fail(err)
		}
		if err := writeJSON(filepath.Join(outDir, "result.json"), led); err != nil {
			return fail(err)
		}
		printLedger(stdout, spec, led)
		if err := led.agreement(spec); err != nil {
			return fail(err)
		}
		return 0
	}
}

// runWorkload runs one workload once in this process.
func runWorkload(w workloadDef, o runOpts) (*runResult, error) {
	start := time.Now()
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	var res *runResult
	var err error
	if w.runtime == "service" {
		res, err = runService(w, o)
	} else {
		res, err = runInproc(w, o)
	}
	if err != nil {
		return nil, err
	}
	if res.Attempted == 0 {
		return nil, errors.New("no job was attempted")
	}
	res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

func runFile(dir, workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("run-%s-trace%d.json", workload, t))
}

// resultLine is the one-line result BENCHMARK.json's contract asks for.
func resultLine(res *runResult) map[string]any {
	return map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRun prints one run's metrics by name with their units.
func printRun(w io.Writer, res *runResult) {
	kind := "end-to-end, tracing off"
	if res.Trace {
		kind = "per-layer, traced run"
	}
	fmt.Fprintf(w, "%s  seed=%d  (%s)  jobs=%d (one latency sample each)  wall=%.1fs  reference=%s  host steal_share=%.3f\n",
		res.Workload, res.Seed, kind, res.Jobs, res.WallS, res.Reference, res.StealShare)
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  %-36s %14.6g ratio  (%d of %d)\n", "failed_share", res.FailedShare, res.Failed, res.Attempted)
}
