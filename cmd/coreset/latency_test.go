package main

import (
	"strings"
	"testing"
	"time"
)

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

// TestPercentileNearestRank pins the nearest-rank definition on a fixed
// sample, including the small-count edge the old truncating formula got
// wrong (p99 of 4 samples must be the maximum, not the 3rd value).
func TestPercentileNearestRank(t *testing.T) {
	sorted := []time.Duration{ms(10), ms(20), ms(30), ms(40)}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0.00, ms(10)}, // rank clamps to 1
		{0.25, ms(10)}, // rank ceil(1.0) = 1
		{0.50, ms(20)}, // rank 2
		{0.75, ms(30)}, // rank 3
		{0.90, ms(40)}, // rank ceil(3.6) = 4 — old formula said 30ms
		{0.99, ms(40)}, // rank ceil(3.96) = 4 — old formula said 30ms
		{1.00, ms(40)},
	}
	for _, tc := range cases {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Fatalf("p%.0f of %v = %v, want %v", tc.p*100, sorted, got, tc.want)
		}
	}
	// Singleton: every percentile is the sample itself.
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := percentile([]time.Duration{ms(7)}, p); got != ms(7) {
			t.Fatalf("p%.0f of singleton = %v", p*100, got)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty sample percentile = %v", got)
	}
}

// TestSummarizeWarmup: the warmup window is excluded in completion order,
// so cold-start outliers at the front stop skewing p50; a window that would
// swallow everything is ignored.
func TestSummarizeWarmup(t *testing.T) {
	// Two slow cold-start jobs complete first, then eight fast ones.
	lat := []time.Duration{ms(500), ms(400), ms(10), ms(12), ms(11), ms(9), ms(10), ms(13), ms(8), ms(12)}

	cold, ok := summarize(lat, 0)
	if !ok || cold.Excluded != 0 {
		t.Fatalf("no-warmup summary: %+v ok=%v", cold, ok)
	}
	if cold.P99 != ms(500) || cold.Max != ms(500) {
		t.Fatalf("no-warmup p99/max = %v/%v, want 500ms", cold.P99, cold.Max)
	}

	warm, ok := summarize(lat, 2)
	if !ok || warm.Excluded != 2 || len(warm.Kept) != 8 {
		t.Fatalf("warmup summary: %+v ok=%v", warm, ok)
	}
	if warm.Max != ms(13) {
		t.Fatalf("warmup max = %v, want 13ms (cold-start samples leaked in)", warm.Max)
	}
	if warm.P50 != ms(10) { // rank ceil(0.5*8) = 4 of [8 9 10 10 11 12 12 13]
		t.Fatalf("warmup p50 = %v, want 10ms", warm.P50)
	}

	// A window covering every sample is ignored rather than reporting nothing.
	all, ok := summarize(lat, len(lat)+5)
	if !ok || all.Excluded != 0 || len(all.Kept) != len(lat) {
		t.Fatalf("oversized warmup: %+v ok=%v", all, ok)
	}
	if _, ok := summarize(nil, 0); ok {
		t.Fatal("empty input summarized")
	}
}

// TestRejectsUnusableBetaAndRounds: the load generator must fail fast on
// -beta/-rounds misuse with the same message shape as coreset run and
// the service — a silently ignored flag would mislabel every latency
// percentile the tool prints.
func TestRejectsUnusableBetaAndRounds(t *testing.T) {
	for name, args := range map[string][]string{
		"beta-wrong-task":   {"-task", "matching", "-beta", "16"},
		"beta-too-small":    {"-task", "edcs", "-beta", "1"},
		"rounds-wrong-task": {"-task", "vc", "-rounds", "2"},
		"rounds-too-large":  {"-task", "edcs", "-rounds", "100"},
		"rounds-cluster":    {"-target", "cluster", "-cluster", "127.0.0.1:1", "-task", "matching", "-rounds", "2"},
	} {
		var out, errb strings.Builder
		if code := runLoad(args, &out, &errb); code != 2 {
			t.Fatalf("%s: exited %d (stderr %q), want 2", name, code, errb.String())
		}
	}
}
