package main

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// traceDurRe normalizes the only nondeterministic attribute in a trace
// stream: span durations.
var traceDurRe = regexp.MustCompile(`dur_ms=[0-9.e+-]+`)

// TestTraceGolden pins the -trace output of a fixed-seed multi-round batch
// run verbatim: the run ID is derived from -seed, the round breakdown and
// edge counts are deterministic, and only dur_ms varies between runs. Every
// in-process round emits its shard span, as a single-round run does.
func TestTraceGolden(t *testing.T) {
	runTraced := func() string {
		t.Helper()
		_, errOut, code := runCLI(t, "-trace", "-task", "edcs", "-rounds", "2",
			"-k", "4", "-gen", "gnp", "-n", "400", "-deg", "6", "-seed", "5", "-q")
		if code != 0 {
			t.Fatalf("exit %d\nstderr:\n%s", code, errOut)
		}
		return traceDurRe.ReplaceAllString(errOut, "dur_ms=*")
	}

	got := runTraced()
	want := `level=INFO msg=run.start run=r-a389c35a task=edcs mode=batch k=4 seed=5
level=INFO msg=round.start run=r-a389c35a round=0 k=4
level=INFO msg=shard.start run=r-a389c35a k=4
level=INFO msg=shard.end run=r-a389c35a k=4 edges=1210 batches=2 dur_ms=*
level=INFO msg=round.end run=r-a389c35a round=0 k=4 input_edges=1210 union_edges=1210 dur_ms=*
level=INFO msg=compose run=r-a389c35a machines=4 union_edges=1210
level=INFO msg=run.end run=r-a389c35a task=edcs mode=batch k=4 seed=5 code=0 dur_ms=*
`
	if got != want {
		t.Errorf("trace mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Same seed, same trace: the stream is reproducible run to run.
	if again := runTraced(); again != got {
		t.Errorf("trace not deterministic\nfirst:\n%s\nsecond:\n%s", got, again)
	}
}

// TestTraceOffByDefault: without -trace, stderr stays silent.
func TestTraceOffByDefault(t *testing.T) {
	_, errOut, code := runCLI(t, "-task", "edcs", "-rounds", "2",
		"-k", "4", "-gen", "gnp", "-n", "400", "-deg", "6", "-seed", "5", "-q")
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errOut)
	}
	if errOut != "" {
		t.Errorf("stderr not empty without -trace:\n%s", errOut)
	}
}

// TestTraceStream: the streaming runtime emits shard spans under -trace.
func TestTraceStream(t *testing.T) {
	_, errOut, code := runCLI(t, "-trace", "-task", "matching", "-stream",
		"-k", "2", "-gen", "gnp", "-n", "300", "-deg", "4", "-seed", "3", "-q")
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errOut)
	}
	for _, want := range []string{"msg=run.start", "msg=shard.start", "msg=shard.end", "msg=run.end", "run=r-"} {
		if !regexp.MustCompile(regexp.QuoteMeta(want)).MatchString(errOut) {
			t.Errorf("trace missing %q:\n%s", want, errOut)
		}
	}
}

// TestTraceClusterStampsFleetSize: -cluster host:a,host:b runs one machine
// per address whatever -k says, and the run span must say the same k the
// report does.
func TestTraceClusterStampsFleetSize(t *testing.T) {
	addrs, shutdown, err := cluster.ServeLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	out, errOut, code := runCLI(t, "-trace", "-task", "matching", "-k", "4", "-seed", "3",
		"-cluster", strings.Join(addrs, ","), "-json", "-in", writePath10(t))
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errOut)
	}
	var rep graph.RunReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.K != 2 {
		t.Fatalf("report k = %d, want the fleet size 2", rep.K)
	}
	for _, msg := range []string{"run.start", "run.end"} {
		if want := "msg=" + msg + " run=r-db018fed task=matching mode=cluster k=2 seed=3"; !strings.Contains(errOut, want) {
			t.Errorf("trace lacks %q:\n%s", want, errOut)
		}
	}
}
