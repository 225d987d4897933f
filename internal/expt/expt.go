// Package expt is the experiment harness: every formal result of the paper
// is mapped to a named, parameterised, seeded experiment that produces the
// table the paper's claim predicts (each Experiment's Paper field names the
// result). `coreset experiments` runs them and prints every table with its
// notes on the observed against the predicted shape.
package expt

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Config controls an experiment run.
type Config struct {
	// Seed is the root seed; every random choice in the experiment derives
	// from it, so runs are exactly reproducible.
	Seed uint64
	// Quick shrinks instance sizes and repetition counts so the whole
	// suite finishes in seconds (used by `go test` and -quick).
	Quick bool
	// Workers caps goroutine parallelism inside pipelines (0 = GOMAXPROCS).
	Workers int
}

// Result is an executed experiment: one or more tables plus free-form notes
// summarizing the observed vs expected shape.
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
}

// Experiment is a registered, runnable reproduction unit.
type Experiment struct {
	ID    string // E1..E22
	Title string
	Paper string // the paper result it reproduces
	Run   func(cfg Config) *Result
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns the experiments sorted by ID (E1, E2, ..., E22).
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		// Numeric sort on the suffix after 'E'.
		var a, b int
		fmt.Sscanf(out[i].ID, "E%d", &a)
		fmt.Sscanf(out[j].ID, "E%d", &b)
		return a < b
	})
	return out
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// pick returns quick when cfg.Quick is set and full otherwise.
func pick[T any](cfg Config, quick, full T) T {
	if cfg.Quick {
		return quick
	}
	return full
}

// ratio returns a/b guarding against division by zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
