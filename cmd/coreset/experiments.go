package main

// `coreset experiments` runs the reproduction suite: every table/figure-level
// claim of "Randomized Composable Coresets for Matching and Vertex Cover"
// (Assadi & Khanna, SPAA 2017) is regenerated by a named experiment.
//
//	coreset experiments -list
//	coreset experiments -run E1,E3 [-seed 7] [-quick] [-workers 8]
//	coreset experiments -all [-quick]
//
// Output is a set of fixed-width tables (one per measured quantity) plus
// notes stating the expected shape from the paper.

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/expt"
)

// runExperiments is the experiments subcommand.
func runExperiments(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coreset experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list experiments and exit")
		runIDs  = fs.String("run", "", "comma-separated experiment ids (e.g. E1,E5)")
		all     = fs.Bool("all", false, "run every experiment")
		seed    = fs.Uint64("seed", 1, "root seed (all randomness derives from it)")
		quick   = fs.Bool("quick", false, "reduced sizes/repetitions (seconds instead of minutes)")
		workers = fs.Int("workers", 0, "max goroutines per parallel phase (0 = GOMAXPROCS)")
	)
	if code, ok := parseFlags(fs, args, ""); !ok {
		return code
	}

	var exps []expt.Experiment
	switch {
	case *list:
		for _, e := range expt.All() {
			fmt.Fprintf(stdout, "%-4s %s\n     paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return 0
	case *all:
		exps = expt.All()
	case *runIDs != "":
		// Resolve every id before running any, so a typo fails at once.
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := expt.Get(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "coreset experiments: unknown experiment %q (use -list)\n", id)
				return 1
			}
			exps = append(exps, e)
		}
	default:
		fs.Usage()
		return 2
	}

	cfg := expt.Config{Seed: *seed, Quick: *quick, Workers: *workers}
	for _, e := range exps {
		fmt.Fprintf(stdout, "### %s — %s\n", e.ID, e.Title)
		fmt.Fprintf(stdout, "paper: %s\n\n", e.Paper)
		start := time.Now()
		res := e.Run(cfg)
		for _, tb := range res.Tables {
			tb.Fprint(stdout)
			fmt.Fprintln(stdout)
		}
		for _, note := range res.Notes {
			fmt.Fprintf(stdout, "note: %s\n", note)
		}
		fmt.Fprintf(stdout, "elapsed: %s\n\n", time.Since(start).Round(time.Millisecond))
	}
	return 0
}
