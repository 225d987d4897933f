package obs

import (
	"strings"
	"testing"
)

// sampleLines counts the non-comment, non-blank lines of an exposition —
// exactly the lines ParseText must turn into samples.
func sampleLines(s string) int {
	n := 0
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}

// TestParseTextRoundTripsRender is the property pin behind coreset load
// -scrape and the CI metrics validator: every sample line Registry.WriteTo
// can emit — plain and function-backed counters, gauges, histograms with
// their +Inf bucket and _sum/_count, labeled vectors with values needing
// escaping — parses back to exactly the value that was rendered, and no line
// is silently dropped.
func TestParseTextRoundTripsRender(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "plain counter").Add(42)
	reg.CounterFunc("fn_total", "function-backed counter", func() float64 { return 7.5 })
	reg.Gauge("depth", "can go negative").Set(-3)
	h := reg.Histogram("lat_seconds", "unlabeled histogram", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(10) // lands in the implicit +Inf bucket
	v := reg.CounterVec("jobs_total", "labeled counter", "task", "mode")
	v.With("edcs", "cluster").Add(3)
	hard := `quo"te back\slash` + "\nnewline"
	v.With(hard, "sp ace").Inc()
	hv := reg.HistogramVec("phase_seconds", "labeled histogram", []float64{0.5}, "phase")
	hv.With("decode").Observe(0.2)

	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	m, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText rejected WriteTo output: %v\n%s", err, text)
	}
	if got, want := len(m), sampleLines(text); got != want {
		t.Fatalf("parsed %d samples from %d sample lines:\n%s", got, want, text)
	}

	want := map[string]float64{
		"c_total":                                42,
		"fn_total":                               7.5,
		"depth":                                  -3,
		`lat_seconds_bucket{le="0.1"}`:           1,
		`lat_seconds_bucket{le="1"}`:             1,
		`lat_seconds_bucket{le="+Inf"}`:          2,
		"lat_seconds_sum":                        10.05,
		"lat_seconds_count":                      2,
		`jobs_total{task="edcs",mode="cluster"}`: 3,
		"jobs_total" + formatLabels([]string{"task", "mode"}, []string{hard, "sp ace"}): 1,
		`phase_seconds_bucket{phase="decode",le="0.5"}`:                                 1,
		`phase_seconds_bucket{phase="decode",le="+Inf"}`:                                1,
		`phase_seconds_sum{phase="decode"}`:                                             0.2,
		`phase_seconds_count{phase="decode"}`:                                           1,
	}
	for name, wantV := range want {
		got, ok := m[name]
		if !ok {
			t.Errorf("sample %q missing from parse:\n%s", name, text)
			continue
		}
		if got != wantV {
			t.Errorf("%s = %v, want %v", name, got, wantV)
		}
	}
}

// TestParseTextRejectsMalformed: a sample line without a value is an error,
// never a silently skipped line.
func TestParseTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{"loneword\n", "name notanumber\n"} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText accepted %q", bad)
		}
	}
}

// FuzzParseText drives the render→parse round trip with arbitrary label
// values and deltas: whatever WriteTo emits, ParseText must parse without
// error, recover every sample line, and return the rendered values under the
// exact rendered keys.
func FuzzParseText(f *testing.F) {
	f.Add("machine", int64(3))
	f.Add(`quo"te`, int64(1))
	f.Add(`back\slash`, int64(-5))
	f.Add("new\nline", int64(9))
	f.Add("sp ace{},=", int64(1<<40))
	f.Fuzz(func(t *testing.T, label string, delta int64) {
		reg := NewRegistry()
		reg.CounterVec("fuzz_total", "fuzzed counter", "l").With(label).Add(delta)
		reg.HistogramVec("fuzz_seconds", "fuzzed histogram", []float64{1}, "l").
			With(label).Observe(float64(delta))

		var b strings.Builder
		if _, err := reg.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		text := b.String()
		m, err := ParseText(strings.NewReader(text))
		if err != nil {
			t.Fatalf("ParseText rejected WriteTo output: %v\n%s", err, text)
		}
		if got, want := len(m), sampleLines(text); got != want {
			t.Fatalf("parsed %d samples from %d sample lines:\n%s", got, want, text)
		}
		lbl := formatLabels([]string{"l"}, []string{label})
		wantCount := float64(0)
		if delta > 0 {
			wantCount = float64(delta) // Counter.Add ignores negative deltas
		}
		if got := m["fuzz_total"+lbl]; got != wantCount {
			t.Fatalf("fuzz_total%s = %v, want %v\n%s", lbl, got, wantCount, text)
		}
		if got := m["fuzz_seconds_count"+lbl]; got != 1 {
			t.Fatalf("fuzz_seconds_count%s = %v, want 1\n%s", lbl, got, text)
		}
	})
}
