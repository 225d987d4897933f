package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/service"
	"repro/internal/stream"
	"repro/internal/task"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSelfTest runs all four workloads, untraced and traced, at a tiny scale
// and holds what they emit to BENCHMARK.json: every declared name exactly
// once with its declared unit and a finite value, and nothing undeclared.
func TestSelfTest(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, d := range spec.EndToEnd {
		declared[false][d.Name] = d.Unit
	}
	for _, d := range spec.PerLayer {
		declared[true][d.Name] = d.Unit
	}
	if len(declared[false]) != len(spec.EndToEnd) || len(declared[true]) != len(spec.PerLayer) {
		t.Fatal("BENCHMARK.json declares a metric name twice")
	}

	ws := workloads(true)
	if len(ws) != len(spec.Workloads) {
		t.Fatalf("harness has %d workloads, BENCHMARK.json %d", len(ws), len(spec.Workloads))
	}
	for i, w := range ws {
		if sw := spec.Workloads[i]; sw.Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness %q", i, sw.Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			res, err := runWorkload(w, runOpts{spec: spec, seed: 1, seconds: 0.2, trace: trace, outDir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d failed", w.name, trace, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				unit, ok := declared[trace][name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: emits undeclared metric %q", w.name, trace, name)
				case unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, unit)
				case !metricName.MatchString(name):
					t.Errorf("metric name %q is outside the contract's alphabet", name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", w.name, name, m.Value)
				}
			}
			for name := range declared[trace] {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: declared metric %q is not emitted", w.name, trace, name)
				}
			}
			checkResultLine(t, res)
			if entries, _ := os.ReadDir(dir); !trace && len(entries) != 0 {
				t.Errorf("%s: untraced run left %d entries in its output directory (temporary dataset not removed?)", w.name, len(entries))
			}
			if !trace {
				// The contract wants end-to-end metrics that are never 0.
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
					}
				}
				continue
			}
			if res.Metrics.value("trace.parity_ok") != 1 {
				t.Errorf("%s: trace.parity_ok = %v", w.name, res.Metrics.value("trace.parity_ok"))
			}
			if w.runtime != "service" && res.Metrics.value("trace.accounted_share") > 1 {
				t.Errorf("%s: trace.accounted_share = %v > 1", w.name, res.Metrics.value("trace.accounted_share"))
			}
			if res.Metrics.value(w.runtime+".job_tail_s") <= 0 {
				t.Errorf("%s: %s.job_tail_s is not set", w.name, w.runtime)
			}
			checkTraceFile(t, filepath.Join(dir, "trace-"+w.name+".json"))
		}
	}
}

// checkResultLine holds the result line to the contract's four keys.
func checkResultLine(t *testing.T, res *runResult) {
	t.Helper()
	data, err := json.Marshal(resultLine(res))
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   *bool   `json:"correct"`
		Attempted *int    `json:"attempted"`
		Failed    *int    `json:"failed"`
		Metrics   Metrics `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(res.Metrics) {
		t.Errorf("result line lacks a key: %s", data)
	}
}

// checkTraceFile checks that a trace file is Chrome trace-event JSON whose
// complete events carry a name, a timestamp and a job.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	complete := 0
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		complete++
		if _, ok := ev.Args["job"]; ev.Name == "" || ev.Ts < 0 || ev.Dur < 0 || !ok {
			t.Fatalf("%s: malformed event %+v", path, ev)
		}
	}
	if complete == 0 {
		t.Errorf("%s holds no spans", path)
	}
}

func TestSpanSelfTimeAndNesting(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Start: 0, End: 10 * ms, Parent: -1},
		{Name: "a", Start: 1 * ms, End: 4 * ms, Parent: 0},
		{Name: "b", Start: 2 * ms, End: 3 * ms, Parent: 1},
		{Name: "a", Start: 5 * ms, End: 9 * ms, Parent: 0},
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	if self["root"] != 3*ms || self["a"] != 6*ms || self["b"] != 1*ms {
		t.Errorf("self times %v", self)
	}
	spans[2].End = 5 * ms // b now outlives its parent a
	if err := checkNesting(spans); err == nil {
		t.Error("a span escaping its parent passed checkNesting")
	}

	tr := newTracer(time.Now(), 0)
	outer := tr.begin("outer")
	tr.end(tr.begin("inner"))
	tr.end(outer)
	if err := checkNesting(tr.spans); err != nil || tr.spans[1].Parent != 0 {
		t.Errorf("recorded spans %+v: %v", tr.spans, err)
	}
	var off *tracer // tracing off
	off.end(off.begin("x"))
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of [1 2] = %v, %v", q1, q3)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", s)
	}
	for samples, want := range map[int]float64{10: 0.5, 28: 0.5, 40: 0.75, 200: 0.95, 3000: 0.99} {
		if got := tailPercentile(samples); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", samples, got, want)
		}
	}
}

// TestCheckerCountsWrongAnswers feeds the answer checkers a matching with a
// shared endpoint, a cover with one vertex removed and a service report
// whose solutionSize is off by one; each must end up in failed_share.
func TestCheckerCountsWrongAnswers(t *testing.T) {
	path := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}
	declared, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	failedShare := func(samples []sample) float64 {
		m, failed := endToEnd(declared, nil, samples, phase{wall: time.Second}, oracle{ref: 1})
		if got := float64(failed) / float64(len(samples)); got != 1-m.value("ok_share") {
			t.Errorf("%d of %d failed, but ok_share = %v", failed, len(samples), m.value("ok_share"))
		}
		return 1 - m.value("ok_share")
	}
	ok := sample{dur: time.Millisecond, edges: 3, size: 1}

	good := matching.NewEmpty(4)
	good.Add(graph.Edge{U: 0, V: 1})
	bad := good.Clone()
	bad.Mate[2] = 1 // vertex 1 is now an endpoint of two "matched" edges
	samples := []sample{ok, ok}
	sols := []task.Solution{{Size: 1, Matching: good}, {Size: 1, Matching: bad}}
	checkSolutions(task.MustGet("matching"), 4, path, samples, sols)
	if samples[0].err != nil || samples[1].err == nil || failedShare(samples) != 0.5 {
		t.Errorf("shared endpoint: errs %v, %v; failed_share %v", samples[0].err, samples[1].err, failedShare(samples))
	}

	samples = []sample{ok, ok}
	sols = []task.Solution{{Size: 2, Cover: []graph.ID{1, 2}}, {Size: 1, Cover: []graph.ID{1}}}
	checkSolutions(task.MustGet("vc"), 4, path, samples, sols)
	if samples[0].err != nil || samples[1].err == nil || failedShare(samples) != 0.5 {
		t.Errorf("vertex removed from cover: errs %v, %v; failed_share %v", samples[0].err, samples[1].err, failedShare(samples))
	}

	spec := service.GenSpec{Name: "gnp", N: 400, Deg: 6, Seed: 3}
	src, err := spec.Source()
	if err != nil {
		t.Fatal(err)
	}
	vc := task.MustGet("vc")
	want, _, err := stream.Solve(context.Background(), src, stream.Config{K: 4, Seed: 7}, vc, task.Params{})
	if err != nil {
		t.Fatal(err)
	}
	right := sample{dur: time.Millisecond, edges: 1, size: want.Size, seed: 7}
	wrong := right
	wrong.size++
	for _, tc := range []struct {
		s      sample
		failed float64
	}{{right, 0}, {wrong, 1}} {
		samples = []sample{tc.s}
		if err := checkReports(vc, spec, 4, samples); err != nil {
			t.Fatal(err)
		}
		if got := failedShare(samples); got != tc.failed {
			t.Errorf("report with solutionSize %d (in-process %d): failed_share %v, want %v", tc.s.size, want.Size, got, tc.failed)
		}
	}
}

// syntheticLedger is a one-repeat ledger with every declared metric at 1.
func syntheticLedger(spec *benchSpec) *ledger {
	led := &ledger{}
	for _, w := range spec.Workloads {
		lw := ledgerWorkload{Name: w.Name, EndToEnd: map[string]reading{}, PerLayer: map[string]reading{}}
		for _, d := range spec.EndToEnd {
			lw.EndToEnd[d.Name] = newReading(d.Unit, []float64{1})
		}
		for _, d := range spec.PerLayer {
			lw.PerLayer[d.Name] = newReading(d.Unit, []float64{1})
		}
		led.Workloads = append(led.Workloads, lw)
	}
	return led
}

// TestCompareNamesTheDoubledLayer is the ROADMAP's "a deliberate 2x slowdown
// in any layer fails and names the layer": one layer row doubles, the job
// slows with it, and -compare must fail and say which row.
func TestCompareNamesTheDoubledLayer(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	old := syntheticLedger(spec)
	var out strings.Builder
	if compareLedgers(&out, spec, old, syntheticLedger(spec)) {
		t.Errorf("two equal ledgers compare as a regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "no regression") {
		t.Errorf("missing the no-regression line:\n%s", out.String())
	}

	slowed := syntheticLedger(spec)
	lw := slowed.workload("dense_vc_cluster")
	lw.PerLayer["graph.decode_batch.busy_s"] = newReading("s", []float64{2})
	lw.PerLayer["cluster.solve.busy_s"] = newReading("s", []float64{1.3})
	lw.PerLayer["trace.overhead_share"] = newReading("ratio", []float64{9}) // a derived row must not win
	lw.EndToEnd["job_p50_s"] = newReading("s", []float64{1.3})
	out.Reset()
	if !compareLedgers(&out, spec, old, slowed) {
		t.Fatalf("a 30%% slower job passed:\n%s", out.String())
	}
	for _, want := range []string{"REGRESSION on dense_vc_cluster", "graph.decode_batch.busy_s", "job_p50_s              worse"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "REGRESSION on gnp_matching_stream") {
		t.Errorf("an untouched workload is reported as regressed:\n%s", out.String())
	}

	// One failed job in 3000 is a regression: ok_share's bound is below it.
	failing := syntheticLedger(spec)
	failing.workload("service_mix").EndToEnd["ok_share"] = newReading("ratio", []float64{1 - 1.0/3000})
	out.Reset()
	if !compareLedgers(&out, spec, old, failing) {
		t.Errorf("a failed job passed:\n%s", out.String())
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "job_p50_s", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "edges_per_s", Better: "higher", Bound: 0.10}
	r := func(runs ...float64) reading { return newReading("", runs) }
	for _, tc := range []struct {
		d        metricDecl
		old, cur reading
		want     string
	}{
		{lower, r(1), r(1.05), "same"},
		{lower, r(1), r(1.2), "worse"},
		{lower, r(1), r(0.8), "better"},
		{higher, r(100), r(80), "worse"},
		{higher, r(100), r(120), "better"},
		{lower, r(1, 1.01, 1.02), r(1.2, 1.21, 1.22), "worse"},
		// Spread beyond the bound: a small move cannot be told from noise ...
		{lower, r(0.8, 1, 1.3), r(0.85, 1.05, 1.3), "unresolved"},
		// ... unless every run of one side beats every run of the other.
		{lower, r(0.8, 1, 1.3), r(0.5, 0.6, 0.7), "better"},
		{lower, r(0.8, 1, 1.3), r(1.4, 1.8, 2.4), "worse"},
	} {
		if got, _ := verdict(tc.d, tc.old, tc.cur); got != tc.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", tc.d.Name, tc.old.Runs, tc.cur.Runs, got, tc.want)
		}
	}
}
