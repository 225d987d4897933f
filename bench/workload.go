package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workloadDef is one benchmark workload. Sizes are fixed numbers,
// independent of the machine; only the self-test shrinks them.
type workloadDef struct {
	name    string
	runtime string // "stream" | "cluster" | "service": the layer whose job_tail_s row the jobs fill
	task    string
	k       int
	n       int
	deg     float64
	beta    int  // EDCS degree bound (task edcs)
	onDisk  bool // input is ingested into a dataset and streamed off it
	// segEdges is the dataset segment size (onDisk only).
	segEdges int
	// sweep runs the per-task sweep in the traced pass.
	sweep bool
	// clients is the closed-loop client count (service only).
	clients int
	warmup  int
}

// maxResidentBytes is the dataset_edcs_stream read budget: one segment of
// 65536 edges encodes to well under it, the whole dataset does not.
const maxResidentBytes = 1 << 20

func workloads(tiny bool) []workloadDef {
	ws := []workloadDef{
		{
			name: "gnp_matching_stream", runtime: "stream", task: "matching", k: 8,
			n: 16384, deg: 8, sweep: true, warmup: 3,
		},
		{
			name: "dense_vc_cluster", runtime: "cluster", task: "vc", k: 4,
			n: 16384, deg: 256, warmup: 3,
		},
		{
			name: "dataset_edcs_stream", runtime: "stream", task: "edcs", k: 4,
			n: 32768, deg: 64, beta: 16, onDisk: true, segEdges: 65536, warmup: 3,
		},
		{
			name: "service_mix", runtime: "service", task: "vc", k: 4,
			n: 20000, deg: 8, clients: 2, warmup: 100,
		},
	}
	if tiny {
		for i := range ws {
			w := &ws[i]
			w.n /= 32
			if w.deg > 32 {
				w.deg = 32
			}
			if w.onDisk {
				w.segEdges = 1024
			}
			w.warmup = 1
			if w.clients > 0 {
				w.warmup = 8
			}
		}
	}
	return ws
}

func findWorkload(ws []workloadDef, name string) (workloadDef, bool) {
	for _, w := range ws {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runOpts are the settings of one run of one workload.
type runOpts struct {
	spec    *benchSpec // the metrics the run may emit
	seed    uint64
	seconds float64
	trace   bool
	outDir  string // trace files, run files and temporary datasets go here
}

// setupRepeats is how many times an untraced run performs its whole set-up.
// setup_s is the median of them: the benchmark contract gates set-up time on
// the medians of two sets of runs, and one set-up per run (a second or two,
// at the mercy of one slow page-cache flush) does not repeat well enough for
// that. The traced run reports no setup_s and sets up once.
const setupRepeats = 3

// timedSetups performs a workload's whole set-up (warm-up included)
// setupRepeats times, closing all but the last, and returns the last with
// every one's wall time. A set-up that fails cleans up after itself.
func timedSetups[E interface{ close() }](o runOpts, setup func() (E, error)) (env E, times []time.Duration, err error) {
	n := setupRepeats
	if o.trace {
		n = 1
	}
	for r := 0; r < n; r++ {
		if r > 0 {
			env.close()
		}
		t0 := time.Now()
		if env, err = setup(); err != nil {
			return env, nil, err
		}
		times = append(times, time.Since(t0))
	}
	return env, times, nil
}

// jobSeed is the seed of timed job i; warmSeed keeps warm-up jobs out of
// that range so the service's result cache starts cold for every timed seed.
func jobSeed(seed uint64, i int) uint64  { return seed*1000 + uint64(i) }
func warmSeed(seed uint64, i int) uint64 { return jobSeed(seed, i) + 1<<40 }

// sample is one attempted job as its caller saw it.
type sample struct {
	dur    time.Duration
	edges  int   // input edges the answer covers (a cache hit answers for all of them)
	comm   int   // machine→coordinator coreset bytes
	size   int   // solution size
	cached bool  // served from the service's result cache
	err    error // job error, refusal, or a wrong answer found by the checker

	// service_mix only: the job's seed (the checker re-solves it), the POST
	// round trip, and whether the daemon refused the job (HTTP 503).
	seed     uint64
	submit   time.Duration
	rejected bool
}

// runResult is everything one run of one workload reports. It is written to
// <outDir>/run-<workload>-trace<0|1>.json; the result line is cut from it.
type runResult struct {
	Workload    string  `json:"workload"`
	Trace       bool    `json:"trace"`
	Seed        uint64  `json:"seed"`
	Attempted   int     `json:"attempted"`
	Failed      int     `json:"failed"`
	FailedShare float64 `json:"failed_share"`
	Metrics     Metrics `json:"metrics"`
	// StealShare is the host's disturbance during the timed phase (see
	// stealShare); it is not a metric of the program.
	StealShare float64 `json:"steal_share"`
	// Jobs is the number of timed jobs, each one latency sample behind
	// job_p50_s; TailPercentile names the percentile the
	// <runtime>.job_tail_s row reports.
	Jobs           int     `json:"jobs"`
	TailPercentile float64 `json:"tail_percentile"`
	WallS          float64 `json:"wall_s"` // the whole run, set-up and checks included
	Reference      string  `json:"reference"`
	// Exact holds counts that depend only on the seed and must therefore
	// repeat exactly between two runs of the same code.
	Exact map[string]int64 `json:"exact"`
	// Shares is each staged layer's self time as a share of the staged
	// (single-threaded) job, from the traced pass.
	Shares map[string]float64 `json:"shares,omitempty"`
}

// oracle is the quality reference, computed once per run outside setup_s.
type oracle struct {
	kind  string // how ref was obtained
	ref   int
	cover bool // true: ratio = size/ref (vertex cover); false: ref/size (matching)
}

func (o oracle) ratio(size int) float64 {
	if o.cover {
		return float64(size) / float64(o.ref)
	}
	return float64(o.ref) / float64(size)
}

// phase is what the timed phase of a run measured besides its samples.
type phase struct {
	wall       time.Duration
	allocBytes uint64  // runtime.MemStats.TotalAlloc delta
	peakRSSMB  float64 // VmHWM when the phase ended, before the answer check
	stealShare float64 // see stealShare
}

// endPhase closes a timed phase begun at start with alloc0 and ticks0.
func endPhase(start time.Time, alloc0 uint64, ticks0 cpuTicks) phase {
	return phase{
		wall:       time.Since(start),
		allocBytes: totalAlloc() - alloc0,
		peakRSSMB:  peakRSSMB(),
		stealShare: stealShare(ticks0, readCPUTicks()),
	}
}

// endToEnd turns the timed phase into the end-to-end metrics. A failed job
// counts as the slowest sample, answers for no edges, and has no ratio.
func endToEnd(spec *benchSpec, setups []time.Duration, samples []sample, ph phase, orc oracle) (Metrics, int) {
	var durs, comm, setupS []float64
	var slowest time.Duration
	for _, s := range samples {
		slowest = max(slowest, s.dur)
	}
	edges, failed, ratioSum := 0, 0, 0.0
	for _, s := range samples {
		if s.err != nil {
			failed++
			durs = append(durs, slowest.Seconds())
			continue
		}
		durs = append(durs, s.dur.Seconds())
		comm = append(comm, float64(s.comm))
		edges += s.edges
		ratioSum += orc.ratio(s.size)
	}
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	ok := float64(len(samples) - failed)
	m := newMetrics(spec.EndToEnd)
	for name, v := range map[string]float64{
		"setup_s":              median(setupS),
		"job_p50_s":            median(durs),
		"edges_per_s":          float64(edges) / ph.wall.Seconds(),
		"comm_bytes":           median(comm),
		"approx_ratio":         ratioSum / ok,
		"alloc_bytes_per_edge": float64(ph.allocBytes) / float64(edges),
		"peak_rss_mb":          ph.peakRSSMB,
		"ok_share":             ok / float64(len(samples)),
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // every job failed; ok_share says so
		}
		m.set(name, v)
	}
	return m, failed
}

// jobTail is the tail latency the <runtime>.job_tail_s row reports, and the
// percentile it is.
func jobTail(samples []sample) (float64, float64) {
	var durs []float64
	for _, s := range samples {
		durs = append(durs, s.dur.Seconds())
	}
	p := tailPercentile(len(durs))
	return percentile(durs, p), p
}

// failures lists what went wrong, for the operator; the count is what the
// result carries.
func failures(samples []sample) []string {
	var out []string
	for i, s := range samples {
		if s.err != nil {
			out = append(out, fmt.Sprintf("job %d: %v", i, s.err))
		}
	}
	return out
}

// totalAlloc is runtime.MemStats.TotalAlloc: bytes allocated so far by the
// whole process, in-process workers and server included.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuTicks are the machine's cumulative busy and stolen CPU time, in clock
// ticks, from the first line of /proc/stat; zero where there is none.
type cpuTicks struct{ busy, steal uint64 }

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, field := range f[1:9] {
		v, _ := strconv.ParseUint(field, 10, 64)
		switch i {
		case 0, 1, 2, 5, 6: // user, nice, system, irq, softirq
			t.busy += v
		case 7:
			t.steal = v
		}
	}
	return t
}

// stealShare is the part of the CPU time this machine wanted between two
// readings that its hypervisor gave to someone else. It is no metric of the
// program: it is recorded beside each run's readings because on a shared box
// it is the difference between a regression and a noisy neighbour. Above a
// few hundredths the time rows of that run are the host's, not the code's.
func stealShare(from, to cpuTicks) float64 {
	busy, steal := to.busy-from.busy, to.steal-from.steal
	if busy+steal == 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// peakRSSMB reads VmHWM, the process's peak resident set, from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
