package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// reading is one metric of one workload over the repeats of a ledger: the
// median is the value, the quartiles and the runs say how far to trust it.
type reading struct {
	Unit  string    `json:"unit"`
	Value float64   `json:"value"`
	Q1    float64   `json:"q1"`
	Q3    float64   `json:"q3"`
	Runs  []float64 `json:"runs"`
}

func newReading(unit string, runs []float64) reading {
	r := reading{Unit: unit, Value: median(runs), Runs: runs}
	r.Q1, r.Q3 = r.Value, r.Value
	if len(runs) >= 2 {
		r.Q1, r.Q3 = quartiles(runs)
	}
	return r
}

// ledgerWorkload is one workload's rows: the end-to-end metrics from the
// untraced runs, the per-layer metrics from the traced runs.
type ledgerWorkload struct {
	Name  string    `json:"name"`
	Jobs  []int     `json:"jobs"`   // timed jobs of each untraced run
	WallS []float64 `json:"wall_s"` // wall time of each untraced + traced run pair
	// StealShare is, per untraced run, the share of the CPU time the machine
	// wanted during the timed phase that its hypervisor withheld.
	StealShare []float64 `json:"steal_share"`
	Reference  string    `json:"reference"`
	// TailPercentile is the percentile behind the <runtime>.job_tail_s row.
	TailPercentile float64 `json:"tail_percentile"`
	// Failed counts the failed jobs of all runs, traced ones included.
	Failed   int                `json:"failed"`
	EndToEnd map[string]reading `json:"end_to_end"`
	PerLayer map[string]reading `json:"per_layer"`
	// Exact counts depend only on the seed; every repeat must reproduce them.
	Exact map[string]int64 `json:"exact"`
	// Shares is each staged layer's share of the staged single-threaded job.
	Shares map[string]float64 `json:"shares,omitempty"`
}

// ledger is bench/out/result.json. Claim is always null: the harness reports,
// it never claims a gain.
type ledger struct {
	Header struct {
		Go         string  `json:"go"`
		NProc      int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		Commit     string  `json:"commit"`
		Seed       uint64  `json:"seed"`
		Seconds    float64 `json:"seconds"`
		Repeat     int     `json:"repeat"`
		Started    string  `json:"started"`
	} `json:"header"`
	Workloads []ledgerWorkload `json:"workloads"`
	Claim     *string          `json:"claim"`
}

func (l *ledger) workload(name string) *ledgerWorkload {
	for i := range l.Workloads {
		if l.Workloads[i].Name == name {
			return &l.Workloads[i]
		}
	}
	return nil
}

// commit is the revision of the checkout the harness runs in: `git rev-parse
// HEAD` (`go run` stamps no VCS data), else what the binary was stamped with.
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runChild runs one workload once in a process of its own (peak_rss_mb is a
// per-process high-water mark) and reads back the run file it wrote.
func runChild(stderr io.Writer, w workloadDef, seed uint64, seconds float64, trace bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", w.name, t, err)
	}
	data, err := os.ReadFile(runFile(outDir, w.name, trace))
	if err != nil {
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// runAll runs every workload, untraced then traced, `repeat` times over, and
// folds the runs into a ledger. A count that should depend only on the seed
// and differs between repeats is an error.
func runAll(stdout, stderr io.Writer, seed uint64, seconds float64, repeat int) (*ledger, error) {
	if repeat < 1 {
		return nil, errors.New("-repeat must be at least 1")
	}
	led := &ledger{}
	led.Header.Go, led.Header.NProc, led.Header.GOMAXPROCS = runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0)
	led.Header.Commit, led.Header.Seed, led.Header.Seconds, led.Header.Repeat = commit(), seed, seconds, repeat
	led.Header.Started = time.Now().UTC().Format(time.RFC3339)

	type runs map[string][]float64
	ws := workloads(false)
	e2e, layer := make([]runs, len(ws)), make([]runs, len(ws))
	units := map[string]string{}
	for i, w := range ws {
		led.Workloads = append(led.Workloads, ledgerWorkload{Name: w.name, Exact: map[string]int64{}})
		e2e[i], layer[i] = runs{}, runs{}
	}
	for r := 0; r < repeat; r++ {
		for i, w := range ws {
			lw := &led.Workloads[i]
			plain, err := runChild(stderr, w, seed, seconds, false)
			if err != nil {
				return nil, err
			}
			traced, err := runChild(stderr, w, seed, seconds, true)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(stdout, "run %d/%d  %-22s %4d jobs  %d failed  parity_ok %g  steal_share %.3f  %.1fs\n", r+1, repeat, w.name,
				plain.Jobs, plain.Failed+traced.Failed, traced.Metrics.value("trace.parity_ok"), plain.StealShare, plain.WallS+traced.WallS)
			lw.Jobs = append(lw.Jobs, plain.Jobs)
			lw.WallS = append(lw.WallS, plain.WallS+traced.WallS)
			lw.StealShare = append(lw.StealShare, plain.StealShare)
			lw.Reference, lw.TailPercentile, lw.Shares = plain.Reference, traced.TailPercentile, traced.Shares
			lw.Failed += plain.Failed + traced.Failed
			for name, m := range plain.Metrics {
				e2e[i][name], units[name] = append(e2e[i][name], m.Value), m.Unit
			}
			for name, m := range traced.Metrics {
				layer[i][name], units[name] = append(layer[i][name], m.Value), m.Unit
			}
			for _, res := range []*runResult{plain, traced} {
				for name, v := range res.Exact {
					if old, seen := lw.Exact[name]; seen && old != v {
						return nil, fmt.Errorf("%s: %s is %d in run %d and was %d before, at the same seed", w.name, name, v, r+1, old)
					}
					lw.Exact[name] = v
				}
			}
		}
	}
	for i := range ws {
		lw := &led.Workloads[i]
		lw.EndToEnd, lw.PerLayer = map[string]reading{}, map[string]reading{}
		for name, vals := range e2e[i] {
			lw.EndToEnd[name] = newReading(units[name], vals)
		}
		for name, vals := range layer[i] {
			lw.PerLayer[name] = newReading(units[name], vals)
		}
	}
	return led, nil
}

// printLedger prints every metric of every workload by name with its unit,
// the quartiles beside the median when there are repeats, and the claim.
func printLedger(w io.Writer, spec *benchSpec, led *ledger) {
	row := func(name string, r reading) {
		fmt.Fprintf(w, "  %-36s %14.6g %-11s", name, r.Value, r.Unit)
		if len(r.Runs) > 1 {
			fmt.Fprintf(w, " q1 %.6g  q3 %.6g  spread %.3f", r.Q1, r.Q3, spread(r.Runs))
		}
		fmt.Fprintln(w)
	}
	for _, lw := range led.Workloads {
		fmt.Fprintf(w, "\n%s  seed=%d  jobs=%v  wall_s=%.1f  reference=%s  host steal_share=%.3f\n",
			lw.Name, led.Header.Seed, lw.Jobs, lw.WallS, lw.Reference, lw.StealShare)
		for _, d := range spec.EndToEnd {
			row(d.Name, lw.EndToEnd[d.Name])
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-11s (1 - ok_share)\n", "failed_share", 1-lw.EndToEnd["ok_share"].Value, "ratio")
		fmt.Fprintf(w, " per layer (traced run; job_tail_s is p%g):\n", lw.TailPercentile*100)
		for _, name := range slices.Sorted(maps.Keys(lw.PerLayer)) {
			row(name, lw.PerLayer[name])
		}
	}
	fmt.Fprintf(w, "\n\"claim\": null\n")
}

// agreement fails when repeats of the same code disagree: an end-to-end
// metric whose spread exceeds its bound, any failed job, or a traced pass
// without parity. With a single run only the last two can fail. setup_s is
// the one metric whose spread is not held to its bound: a set-up is a second
// or two of page-cache and scheduler luck, so its bound gates the medians of
// two ledgers (-compare), as the benchmark contract does, not single runs.
func (l *ledger) agreement(spec *benchSpec) error {
	var errs []error
	for _, lw := range l.Workloads {
		for _, d := range spec.EndToEnd {
			if d.Name == "setup_s" {
				continue
			}
			if s := spread(lw.EndToEnd[d.Name].Runs); s > d.Bound {
				errs = append(errs, fmt.Errorf("%s: %s runs disagree by %.3f of their median, bound %g", lw.Name, d.Name, s, d.Bound))
			}
		}
		if lw.Failed > 0 {
			errs = append(errs, fmt.Errorf("%s: %d failed jobs", lw.Name, lw.Failed))
		}
		if p := lw.PerLayer["trace.parity_ok"]; p.Value != 1 {
			errs = append(errs, fmt.Errorf("%s: trace.parity_ok %g", lw.Name, p.Value))
		}
	}
	return errors.Join(errs...)
}

// verdict compares one end-to-end reading of two ledgers against its bound.
// "unresolved" is for a metric whose run-to-run spread exceeds the bound, so
// that neither "same" nor a small move can be told from noise — unless every
// run of one side reads better than every run of the other.
func verdict(d metricDecl, old, cur reading) (string, float64) {
	sign := 1.0 // sign*x is x's badness: larger is worse
	if d.Better == "higher" {
		sign = -1
	}
	change := sign * (cur.Value - old.Value)
	if old.Value != 0 {
		change /= math.Abs(old.Value)
	}
	oldLo, oldHi := badness(old.Runs, sign)
	curLo, curHi := badness(cur.Runs, sign)
	switch noisy := max(spread(old.Runs), spread(cur.Runs)) > d.Bound; {
	case noisy && curHi < oldLo:
		return "better", change
	case noisy && curLo > oldHi && change > d.Bound:
		return "worse", change
	case noisy:
		return "unresolved", change
	case change > d.Bound:
		return "worse", change
	case change < -d.Bound:
		return "better", change
	}
	return "same", change
}

// badness returns the least and the greatest of sign*x over xs.
func badness(xs []float64, sign float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = min(lo, sign*x), max(hi, sign*x)
	}
	return lo, hi
}

// namesNoLayer reports per-layer rows that never name a regression's layer:
// ratios and differences of other rows, whose relative change near zero is
// noise, and time rows that moved by less than a hundredth of the job.
func namesNoLayer(name string, old, cur reading, jobS float64) bool {
	if old.Unit == "ratio" || name == "cluster.wire_tax_s" {
		return true
	}
	return old.Unit == "s" && math.Abs(cur.Value-old.Value) < jobS/100
}

// largestLayerChange names the per-layer metric of a workload that moved
// most, relative to its old value, between two ledgers.
func largestLayerChange(old, cur *ledgerWorkload) (name string, change float64) {
	jobS := old.EndToEnd["job_p50_s"].Value
	for _, n := range slices.Sorted(maps.Keys(cur.PerLayer)) {
		o, ok := old.PerLayer[n]
		if !ok || o.Value == 0 || namesNoLayer(n, o, cur.PerLayer[n], jobS) {
			continue
		}
		if c := (cur.PerLayer[n].Value - o.Value) / math.Abs(o.Value); math.Abs(c) > math.Abs(change) {
			name, change = n, c
		}
	}
	return name, change
}

// compareLedgers prints a verdict per workload × end-to-end metric and, for
// each workload that regressed, the per-layer metric that moved most. It
// reports whether anything regressed.
func compareLedgers(w io.Writer, spec *benchSpec, old, cur *ledger) bool {
	regressed := false
	for _, sw := range spec.Workloads {
		ow, nw := old.workload(sw.Name), cur.workload(sw.Name)
		if ow == nil || nw == nil {
			fmt.Fprintf(w, "%s: missing from one of the results\n", sw.Name)
			regressed = true
			continue
		}
		worse := false
		fmt.Fprintf(w, "%s\n", sw.Name)
		for _, d := range spec.EndToEnd {
			v, change := verdict(d, ow.EndToEnd[d.Name], nw.EndToEnd[d.Name])
			fmt.Fprintf(w, "  %-22s %-10s %14.6g -> %-14.6g %s  (%+.2f%% toward worse, bound %g%%)\n",
				d.Name, v, ow.EndToEnd[d.Name].Value, nw.EndToEnd[d.Name].Value, d.Unit, 100*change, 100*d.Bound)
			worse = worse || v == "worse"
		}
		if worse {
			regressed = true
			if name, change := largestLayerChange(ow, nw); name != "" {
				fmt.Fprintf(w, "  REGRESSION on %s; the layer row that moved most is %s: %.6g -> %.6g %s (%+.0f%%)\n",
					sw.Name, name, ow.PerLayer[name].Value, nw.PerLayer[name].Value, nw.PerLayer[name].Unit, 100*change)
			} else {
				fmt.Fprintf(w, "  REGRESSION on %s; no per-layer row moved\n", sw.Name)
			}
		}
	}
	if !regressed {
		fmt.Fprintln(w, "no regression")
	}
	return regressed
}

func loadLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func compareFiles(w io.Writer, spec *benchSpec, oldPath, newPath string) (regressed bool, err error) {
	old, err := loadLedger(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := loadLedger(newPath)
	if err != nil {
		return false, err
	}
	return compareLedgers(w, spec, old, cur), nil
}
