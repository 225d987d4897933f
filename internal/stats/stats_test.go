package stats

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if math.Abs(s.Var()-2.5) > 1e-12 {
		t.Fatalf("Var = %v, want 2.5", s.Var())
	}
	if math.Abs(s.Std()-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("Std = %v", s.Std())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary should be all zeros")
	}
	s.Add(7)
	if s.Mean() != 7 || s.Var() != 0 || s.Min() != 7 || s.Max() != 7 {
		t.Fatal("single-element summary wrong")
	}
}

func TestSummaryAgainstDirectComputation(t *testing.T) {
	r := rng.New(5)
	var s Summary
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := r.Float64()*10 - 5
		xs = append(xs, x)
		s.Add(x)
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	variance := 0.0
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	if math.Abs(s.Mean()-mean) > 1e-9 {
		t.Fatalf("mean %v vs %v", s.Mean(), mean)
	}
	if math.Abs(s.Var()-variance) > 1e-9 {
		t.Fatalf("var %v vs %v", s.Var(), variance)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	r := rng.New(7)
	var small, large Summary
	for i := 0; i < 20; i++ {
		small.Add(r.Float64())
	}
	for i := 0; i < 2000; i++ {
		large.Add(r.Float64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestMeanCIFormat(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(2)
	out := s.MeanCI()
	if !strings.Contains(out, "±") {
		t.Fatalf("MeanCI = %q", out)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "k", "ratio", "bytes")
	tb.AddRow(2, 1.2345678, "abc")
	tb.AddRow(16, 2.0, 12345)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "k") || !strings.Contains(out, "ratio") {
		t.Fatalf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "1.235") { // %.4g
		t.Fatalf("float formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	// Columns aligned: header and rows share prefix widths.
	if len(lines[1]) == 0 || lines[2][0] != '-' {
		t.Fatalf("rule line wrong:\n%s", out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	if strings.Contains(tb.String(), "==") {
		t.Fatal("empty title should not render")
	}
}
